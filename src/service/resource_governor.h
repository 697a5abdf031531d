#ifndef AQP_SERVICE_RESOURCE_GOVERNOR_H_
#define AQP_SERVICE_RESOURCE_GOVERNOR_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/memory_budget.h"
#include "common/status.h"

namespace aqp {
namespace service {

/// \brief Per-query memory budget — the memory twin of
/// DeadlineOptions, enforced at the same control points.
///
/// Past the *soft* budget the query is clamped into the cheapest exact
/// state (lex/rex) and pinned there: the symmetric stores keep growing
/// with input (correctness needs every row), but the q-gram index —
/// the dominant optional consumer — stops growing, exactly like the
/// soft deadline's response. Past the *hard* budget the query is
/// finalized early through the kFinalizePartial path: strict-prefix
/// partial result, CompletenessStats, and a ResourceReport saying why.
/// Zero disables a bound.
struct MemoryBudgetOptions {
  uint64_t soft_bytes = 0;
  uint64_t hard_bytes = 0;

  bool any() const { return soft_bytes > 0 || hard_bytes > 0; }
};

/// \brief Canonical ResourceReport::site values.
namespace resource_site {
/// Per-query hard budget tripped at an control point.
inline constexpr char kQueryHardBudget[] = "query.hard_budget";
/// Global high-water shed a submission or reclaimed a running query.
inline constexpr char kGlobalHighWater[] = "global.high_water";
/// The stuck-query watchdog force-finalized a stalled query.
inline constexpr char kWatchdogStall[] = "watchdog.stall";
}  // namespace resource_site

/// \brief Why resource governance intervened in a query — attached to
/// QueryStats::resource when a budget or the watchdog cut a run short.
struct ResourceReport {
  /// Peak of the query's budget subtree when the decision was taken.
  uint64_t peak_bytes = 0;
  /// The bound that tripped (hard budget bytes, or the global
  /// high-water for pressure reclaim; 0 for a pure watchdog stall).
  uint64_t budget_bytes = 0;
  /// Which enforcement site acted (see resource_site).
  std::string site;
  /// Human-readable cause, carrying a "site=…" breadcrumb.
  Status status;
};

/// \brief Per-control-point budget decision for one query.
enum class ResourceDecision {
  kProceed = 0,
  /// Over the soft budget: clamp toward exact-only (freezes q-gram
  /// index growth), keep running.
  kClampExact,
  /// Over (or predicted to cross) the hard budget: finalize early with
  /// the strict-prefix partial result.
  kFinalizePartial,
};

/// "proceed" / "clamp_exact" / "finalize_partial".
const char* ResourceDecisionName(ResourceDecision decision);

/// \brief Service-wide resource-governance knobs.
struct ResourceGovernorOptions {
  /// Applied to queries that set no per-query budget of their own.
  MemoryBudgetOptions default_query_budget;
  /// Stuck-query watchdog: a running query whose control-point
  /// heartbeat is older than this is force-finalized with a partial
  /// result and a ResourceReport. 0 disables the watchdog (per-query
  /// QueryOptions::stall_timeout overrides are only honored while the
  /// service-level watchdog thread is running).
  ///
  /// The heartbeat is stamped at open, at each drain iteration and at
  /// each control point the serial merge evaluates, which is after the
  /// shards have run their phases for the epoch. So with several shards
  /// a healthy query can go one epoch of phase work plus the merge
  /// between stamps, not δ_adapt steps. A settled query's epochs are
  /// 2 × ParallelJoinOptions::unbounded_epoch_steps long (1,024 steps
  /// by default): size the tolerance for that. A deadline, likewise,
  /// can be overshot by up to one such epoch of phase work.
  std::chrono::nanoseconds stall_timeout{0};
  /// Watchdog poll cadence.
  std::chrono::milliseconds poll_interval{2};
  /// Under global pressure (root usage at/above the admission
  /// high-water), the watchdog also force-finalizes the *youngest*
  /// running budget-governed query, so one greedy late arrival cannot
  /// evict its older neighbors.
  bool finalize_youngest_on_pressure = false;

  bool watchdog_enabled() const {
    return stall_timeout.count() > 0 || finalize_youngest_on_pressure;
  }
};

/// \brief Owner of the global budget root and the enforcement policy.
///
/// The governor holds the root of the hierarchical accounting tree
/// (global → per-query → per-shard). Per-query nodes are children of
/// the root (MakeQueryNode); the engine hangs its per-shard and
/// coordinator nodes under the query node and refreshes them at epoch
/// control points, so `used()` is the live footprint of every running
/// query and `peak()` its high-water. Enforcement is split by layer:
/// Charge() is the per-query control-point policy (run by the
/// service's governor hook), while the global high-water is enforced
/// by the AdmissionController (shedding) and the watchdog thread
/// (optional youngest-query reclaim).
class ResourceGovernor {
 public:
  explicit ResourceGovernor(ResourceGovernorOptions options)
      : options_(std::move(options)), root_("global") {}

  /// A per-query child of the global root. Destroy it (after the
  /// query's engine, whose nodes are its children) to release the
  /// query's usage from the global aggregate.
  std::unique_ptr<mem::BudgetNode> MakeQueryNode(uint64_t query_id) {
    return std::make_unique<mem::BudgetNode>(
        "query" + std::to_string(query_id), &root_);
  }

  /// The per-query control-point decision. `used` is the query's
  /// refreshed footprint, `growth` the caller's forecast of the next
  /// epoch's allocation (the service passes 2x the largest observed
  /// single-epoch jump, since capacity-doubling containers allocate
  /// twice their previous jump when they next double). The hard bound
  /// is *predictive*: it trips when `used + growth` would cross the
  /// budget, so the recorded peak stays at or under the budget instead
  /// of overshooting by an epoch's worth of allocation. The soft bound
  /// is reactive.
  static ResourceDecision Charge(uint64_t used, uint64_t growth,
                                 const MemoryBudgetOptions& limits);

  /// The query's effective budget: its own, or the service default
  /// where a field is unset.
  MemoryBudgetOptions EffectiveBudget(const MemoryBudgetOptions& query) const;

  mem::BudgetNode* root() { return &root_; }
  /// Live global footprint across every running query.
  uint64_t used() const { return root_.used(); }
  /// Global high-water since service start.
  uint64_t peak() const { return root_.peak(); }
  const ResourceGovernorOptions& options() const { return options_; }

 private:
  ResourceGovernorOptions options_;
  mem::BudgetNode root_;
};

}  // namespace service
}  // namespace aqp

#endif  // AQP_SERVICE_RESOURCE_GOVERNOR_H_
