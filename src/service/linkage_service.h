#ifndef AQP_SERVICE_LINKAGE_SERVICE_H_
#define AQP_SERVICE_LINKAGE_SERVICE_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "exec/operator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/parallel/thread_pool.h"
#include "service/admission.h"
#include "service/query.h"
#include "service/resource_governor.h"
#include "storage/relation.h"

namespace aqp {
namespace service {

/// \brief Service-wide configuration.
struct ServiceOptions {
  /// Workers of the shared pool (0 = hardware concurrency, >= 1).
  /// Runner threads participate in their own queries' phase groups, so
  /// even a 1-worker pool makes progress for any number of queries.
  size_t worker_threads = 0;
  /// Concurrency and shard budgets, plus the global memory high-water.
  AdmissionOptions admission;
  /// Memory governance and watchdog policy (default budgets, stall
  /// timeout, pressure reclaim).
  ResourceGovernorOptions governor;
};

/// \brief Multi-query linkage serving: N concurrent adaptive linkage
/// queries over ONE shared worker pool, with admission control and
/// per-query deadline budgets.
///
/// Each submitted query is registered (FIFO), admitted when a runner
/// slot and shard budget are free, and then driven by a runner thread:
/// the runner owns the query's ParallelAdaptiveJoin coordinator, pumps
/// its epochs, and materializes its output, while the per-shard phase
/// work of *all* running queries lands on the one shared ThreadPool as
/// task groups — the pool's FIFO-fair group dispatch interleaves them,
/// so a wide query cannot starve a narrow one.
///
/// Deadlines plug into the engine's control points through the
/// governor hook (every shard quiescent): past its soft deadline a
/// query is forced into the cheapest exact state and pinned there;
/// past its hard deadline it is finalized early and reports the
/// partial result it has, with completeness statistics — the paper's
/// time-completeness trade-off, per query. Cancel() tears a query down
/// between epochs through the same hook.
///
/// Memory budgets ride the same control points: the engine refreshes a
/// hierarchical accounting tree (global → per-query → per-shard) right
/// before the governor runs, a soft budget clamps the query toward
/// exact-only (freezing q-gram index growth), a hard budget finalizes
/// it early with a strict-prefix partial, and the global high-water
/// sheds new submissions with kResourceExhausted. A watchdog thread
/// force-finalizes queries whose control-point heartbeat goes stale,
/// and recoverably failed attempts (kUnavailable/kIOError) can be
/// retried whole with exponential backoff — queries are read-only over
/// re-openable children, so re-execution is idempotent.
///
/// Results are byte-identical to a solo ParallelAdaptiveJoin run of
/// the same options (without deadlines): pool sharing changes
/// scheduling, never merge order.
///
/// Thread contract: all public methods are safe to call from any
/// thread. Child operators of a query are borrowed, must outlive the
/// query's terminal state, and are only ever touched by that query's
/// runner thread.
///
/// Lock hierarchy: `mu_` is acquired strictly above the pool's
/// internal mutex (a runner holding `mu_` never submits to or waits on
/// the pool; ExecuteQuery drops `mu_` first) and above the failpoint
/// registry's mutex. The Debug lock-order detector enforces this at
/// runtime; the annotations enforce the per-field discipline at
/// compile time.
class LinkageService {
 public:
  explicit LinkageService(ServiceOptions options);

  /// Cancels queued and running queries (running ones stop at their
  /// next epoch boundary), then joins the runner threads.
  ~LinkageService();

  LinkageService(const LinkageService&) = delete;
  LinkageService& operator=(const LinkageService&) = delete;

  /// Registers a query over `left` ⋈ `right` and returns its id.
  /// Children must be unopened; the service opens and closes them on
  /// the query's runner thread. Fails after shutdown began.
  Result<QueryId> Submit(exec::Operator* left, exec::Operator* right,
                         QueryOptions options) AQP_EXCLUDES(mu_);

  /// Requests cancellation: a queued query is cancelled immediately, a
  /// running one at its next control point. Terminal queries are
  /// left untouched (NotFound for unknown ids, OK otherwise).
  Status Cancel(QueryId id) AQP_EXCLUDES(mu_);

  /// Blocks until `id` is terminal and returns its final stats.
  Result<QueryStats> Wait(QueryId id) AQP_EXCLUDES(mu_);

  /// Moves the query's collected output out of the registry. Valid
  /// exactly once, after the query reached `done` (including
  /// deadline-partial results); blocks until terminal.
  Result<storage::Relation> TakeResult(QueryId id) AQP_EXCLUDES(mu_);

  /// Current state of a query.
  Result<QueryState> state(QueryId id) const AQP_EXCLUDES(mu_);

  /// \name Introspection.
  /// @{
  size_t running_queries() const AQP_EXCLUDES(mu_);
  size_t queued_queries() const AQP_EXCLUDES(mu_);
  /// High-water mark of concurrently running queries (tests verify the
  /// admission cap with this).
  size_t peak_running_queries() const AQP_EXCLUDES(mu_);
  size_t peak_shards_in_use() const AQP_EXCLUDES(mu_);
  /// Shard budget currently held by running queries (0 at quiescence —
  /// the budget-leak check under fault injection).
  size_t shards_in_use() const AQP_EXCLUDES(mu_);
  /// Lifetime admission counters; equal at quiescence on every
  /// terminal path (done, failed, cancelled).
  size_t admitted_total() const AQP_EXCLUDES(mu_);
  size_t released_total() const AQP_EXCLUDES(mu_);
  /// Submissions shed with kResourceExhausted by the global memory
  /// high-water.
  size_t memory_shed_total() const AQP_EXCLUDES(mu_);
  /// Queries force-finalized by the stuck-query watchdog.
  size_t watchdog_finalized_total() const AQP_EXCLUDES(mu_);
  /// Queries force-finalized by global-pressure reclaim.
  size_t pressure_finalized_total() const AQP_EXCLUDES(mu_);
  /// The global budget root's owner (live usage, peak, policy).
  ResourceGovernor* governor() { return &governor_; }
  exec::parallel::ThreadPool* pool() { return &pool_; }
  const ServiceOptions& options() const { return options_; }
  /// @}

 private:
  /// Registry entry of one query. Fields fall into three ownership
  /// classes (the guard cannot be spelled as GUARDED_BY attributes —
  /// the analysis cannot name the owning service's `mu_` from a nested
  /// struct — so the accessing LinkageService methods carry the
  /// REQUIRES annotations instead):
  ///   * immutable after Submit: id, options, left, right, shards,
  ///     memory, stall_timeout;
  ///   * guarded by the service's `mu_`: state, final_status, stats,
  ///     result, result_taken, attempts, backing_off, resource,
  ///     budget_node;
  ///   * runner-thread-owned while running (no other thread reads
  ///     them until the query is terminal): forced_exact,
  ///     memory_clamped, prev_charge_bytes, max_growth_bytes, started,
  ///     join;
  ///   * lock-free atomics: cancel_requested, force_finalize,
  ///     heartbeat_ns.
  struct QueryRecord {
    QueryId id = 0;
    QueryOptions options;
    exec::Operator* left = nullptr;
    exec::Operator* right = nullptr;
    size_t shards = 0;

    QueryState state = QueryState::kQueued;
    Status final_status;
    QueryStats stats;
    std::optional<storage::Relation> result;
    bool result_taken = false;

    /// Set by Cancel()/shutdown, read by the query's governor at every
    /// control point.
    std::atomic<bool> cancel_requested{false};
    /// Set by the watchdog (stall or global pressure), read by the
    /// governor: finalize at the next control point with whatever
    /// prefix has been merged.
    std::atomic<bool> force_finalize{false};
    /// Liveness heartbeat: steady-clock nanos stamped by the runner at
    /// every control point and drain iteration, read by the
    /// watchdog thread. 0 = not running.
    std::atomic<int64_t> heartbeat_ns{0};
    /// Written only by the runner thread while running.
    bool forced_exact = false;
    bool memory_clamped = false;
    uint64_t attempts = 0;
    /// Previous control-point charge and the largest single-epoch
    /// growth seen, for the predictive hard-budget forecast
    /// (runner-owned). The forecast is 2x the max growth: capacity-
    /// doubling containers allocate exactly twice their previous jump
    /// when they next double, so last-epoch growth alone underpredicts.
    /// The first charge counts the whole upfront footprint as one
    /// jump — aggressive near the floor, but it is what keeps the
    /// recorded peak under the budget when no later control point
    /// arrives in time (see Govern).
    uint64_t prev_charge_bytes = 0;
    uint64_t max_growth_bytes = 0;
    /// True while the runner sleeps in retry backoff between attempts
    /// (guarded by mu_): the heartbeat is idle there by design, so the
    /// watchdog skips the query, and pressure reclaim too — the failed
    /// attempt's engine is already torn down, so it holds no memory.
    bool backing_off = false;
    std::chrono::steady_clock::time_point started{};

    /// Effective per-query budget and stall tolerance (query override,
    /// else service default), resolved at Submit.
    MemoryBudgetOptions memory;
    std::chrono::nanoseconds stall_timeout{0};
    /// Why governance intervened, if it did (guarded by mu_; first
    /// writer wins — a watchdog verdict is not overwritten by a later
    /// budget trip and vice versa).
    std::optional<ResourceReport> resource;

    /// The query's node in the global budget tree; the engine hangs
    /// its per-shard and coordinator children under it. Destroyed
    /// after the join (children before parent). Written and read under
    /// mu_ (the monitor dereferences it for running queries); the
    /// runner may read the raw pointer lock-free between its own
    /// writes.
    std::unique_ptr<mem::BudgetNode> budget_node;
    std::unique_ptr<exec::parallel::ParallelAdaptiveJoin> join;
  };

  /// Outcome of one execution attempt of a query.
  struct AttemptOutcome {
    QueryState state = QueryState::kFailed;
    Status status;
    std::optional<storage::Relation> collected;
  };

  /// Runner thread body: claim the oldest admissible queued query, run
  /// it to a terminal state, repeat.
  void RunnerLoop() AQP_EXCLUDES(mu_);
  /// Oldest queued query that fits the admission budget right now
  /// (strict FIFO: if the front does not fit, nothing runs).
  QueryRecord* FrontRunnableLocked() AQP_REQUIRES(mu_);
  /// Executes one admitted query end to end (no service lock held),
  /// including bounded whole-query retry of recoverably failed
  /// attempts.
  void ExecuteQuery(QueryRecord* q) AQP_EXCLUDES(mu_);
  /// One execution attempt: open, drain, close. Queries are read-only
  /// over re-openable children, so attempts are idempotent.
  AttemptOutcome RunAttempt(QueryRecord* q) AQP_EXCLUDES(mu_);
  /// Deadline/budget/cancel/watchdog policy, called by the engine at
  /// control points on the runner thread.
  exec::parallel::EpochDirective Govern(QueryRecord* q,
                                        const exec::parallel::EpochView& view)
      AQP_EXCLUDES(mu_);
  /// Stamps the query's liveness heartbeat (runner thread).
  static void StampHeartbeat(QueryRecord* q);
  /// Watchdog thread body: force-finalize stalled queries; optionally
  /// reclaim the youngest budget-governed query under global pressure.
  void MonitorLoop() AQP_EXCLUDES(mu_);
  /// Transitions `q` to a state and wakes waiters.
  void SetState(QueryRecord* q, QueryState state) AQP_EXCLUDES(mu_);
  /// Marks `q` terminal with stats harvested from its join.
  void Finish(QueryRecord* q, QueryState state, Status status)
      AQP_EXCLUDES(mu_);

  ServiceOptions options_;
  exec::parallel::ThreadPool pool_;

  mutable sync::Mutex mu_{"linkage_service.mu_"};
  sync::CondVar state_changed_;
  /// Pure accounting, NOT internally synchronized (see admission.h):
  /// every touch happens under mu_, which the annotation enforces.
  AdmissionController admission_ AQP_GUARDED_BY(mu_);
  /// Internally thread-safe (atomic budget tree, immutable options);
  /// deliberately NOT guarded — governor() hands it out for lock-free
  /// introspection.
  ResourceGovernor governor_;
  std::map<QueryId, std::unique_ptr<QueryRecord>> queries_
      AQP_GUARDED_BY(mu_);
  std::deque<QueryId> queue_ AQP_GUARDED_BY(mu_);
  QueryId next_id_ AQP_GUARDED_BY(mu_) = 1;
  bool shutdown_ AQP_GUARDED_BY(mu_) = false;
  size_t watchdog_finalized_total_ AQP_GUARDED_BY(mu_) = 0;
  size_t pressure_finalized_total_ AQP_GUARDED_BY(mu_) = 0;

  /// Written only by the constructor; joined by the destructor.
  std::vector<std::thread> runners_;
  /// Watchdog; started only when options_.governor.watchdog_enabled().
  std::thread monitor_;
};

}  // namespace service
}  // namespace aqp

#endif  // AQP_SERVICE_LINKAGE_SERVICE_H_
