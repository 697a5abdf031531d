#ifndef AQP_EXEC_PARALLEL_PARALLEL_JOIN_H_
#define AQP_EXEC_PARALLEL_PARALLEL_JOIN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <atomic>

#include "adaptive/controller.h"
#include "adaptive/join_options.h"
#include "common/memory_budget.h"
#include "exec/operator.h"
#include "exec/parallel/exchange.h"
#include "exec/parallel/shard.h"
#include "exec/parallel/thread_pool.h"

namespace aqp {
namespace exec {
namespace parallel {

/// \brief What an epoch governor tells the coordinator to do at a
/// control point (see ParallelJoinOptions::governor).
enum class EpochDirective {
  /// Run the epoch normally.
  kProceed,
  /// Soft-deadline response: force the processor into the cheapest
  /// exact state (lex/rex) and pin it there — the MAR loop keeps
  /// assessing, but may no longer choose approximate states. Sticky.
  kForceExactOnly,
  /// Hard-deadline response: stop consuming input. Output already
  /// produced stays deliverable; the stream then ends, reporting the
  /// partial result (the paper's time knob — completeness is whatever
  /// Completeness() says it is at that point).
  kFinalize,
  /// Abandon the query: the coordinator returns Status::Cancelled
  /// without routing another step and stays in that sticky error
  /// state. Buffered output is not delivered.
  kCancel,
};

/// \brief Progress snapshot handed to the epoch governor.
struct EpochView {
  uint64_t steps = 0;
  uint64_t pairs_emitted = 0;
  adaptive::ProcessorState state = adaptive::ProcessorState::kLexRex;
  /// Engine memory footprint as refreshed at this control point; 0
  /// when the join carries no budget node (accounting off).
  uint64_t memory_bytes = 0;
};

/// \brief Result-completeness snapshot (the paper's time-completeness
/// trade-off, measured): how much of the statistically expected result
/// the run has actually produced.
struct CompletenessStats {
  /// Expected matched children under the completeness model at the
  /// current progress point.
  double expected_matches = 0.0;
  /// Observed statistic (distinct matched children, or emitted pairs
  /// under use_pairs_statistic).
  uint64_t observed_matches = 0;
  /// observed / expected, clamped to [0, 1]; 1 when nothing was
  /// expected.
  double ratio = 1.0;
  /// Structurally malformed input rows skipped by quarantining sources
  /// (CsvSourceOptions::max_bad_rows) — input the result never saw,
  /// reported alongside the completeness ratio.
  uint64_t quarantined_rows = 0;
};

/// \brief What the engine does with a *recoverable* mid-query fault —
/// a source/routing error or a shard phase failure at an epoch
/// boundary, where every completed epoch's output is intact and
/// deliverable. Unrecoverable faults (mid-merge invariant violations,
/// partially broadcast state transitions, cancellation) always fail
/// regardless of this policy.
enum class FaultPolicy {
  /// Surface the error: the operator enters its sticky failed state
  /// (the pre-existing behavior).
  kFail,
  /// Graceful degradation: treat the fault like a hard deadline — stop
  /// consuming input, deliver the strict-prefix partial result already
  /// produced, and report CompletenessStats plus a FaultReport. The
  /// paper's time-completeness trade, with "fault" as the time knob.
  kFinalizePartial,
};

/// \brief Where and when a tolerated fault happened; attached to a
/// degraded partial result (ParallelAdaptiveJoin::fault, QueryStats).
struct FaultReport {
  /// Failpoint site name when the error carries a "site=…" breadcrumb
  /// (injected faults always do); empty otherwise.
  std::string site;
  /// Completed epochs before the fault (the result is their merged
  /// output, plus the prefix of the faulting epoch merged before it).
  uint64_t epoch = 0;
  /// Global step count at the fault, after the aborted epoch's steps
  /// were rolled back.
  uint64_t step = 0;
  /// Faulting shard for phase A/B failures; -1 when the fault is not
  /// shard-attributable (source/routing/merge-entry faults).
  int32_t shard = -1;
  /// The underlying error.
  Status status;
};

/// \brief Ingest-overlap counters: how much source parse + routing
/// cost the pipelined ingest moved off the epoch critical path.
///
/// Written by the coordinator at epoch barriers (and by the ingest
/// task between them); read them only when the operator is quiescent —
/// between drive calls, or after the stream ended.
struct IngestStats {
  /// Epochs whose route was staged ahead by the ingest task.
  uint64_t epochs_staged = 0;
  /// Epochs routed on the coordinator, on the critical path: the
  /// first epoch.
  uint64_t epochs_routed_serially = 0;
  /// Coordinator wall time blocked at swap points waiting for (or
  /// helping finish) an in-flight ingest task. On a saturated pool
  /// this approaches overlap_route_ns — no spare lane, no real
  /// overlap (the 1-CPU bench caveat).
  int64_t stall_ns = 0;
  /// Staging wall time (source refills + routing) spent on the ingest
  /// task, i.e. attributed to overlap rather than the critical path.
  int64_t overlap_route_ns = 0;
  /// Routing wall time spent on the coordinator, on the critical path.
  int64_t serial_route_ns = 0;
};

/// \brief Configuration of the partition-parallel adaptive join.
struct ParallelJoinOptions {
  /// Join spec, interleaving, MAR thresholds, weights. The same struct
  /// configures the single-threaded test oracle (tests/support/), so a
  /// parity test runs both engines from one value.
  adaptive::AdaptiveJoinOptions base;
  /// Shard (worker) count. 0 = hardware concurrency.
  size_t num_shards = 0;
  /// The base epoch length in steps, for every policy: control points
  /// are evaluated inside an epoch's merge, so they do not cut epochs.
  /// A single shard runs every epoch at this length. With several
  /// shards it is the length of the first two epochs and of the first
  /// epoch staged after a transition; an epoch staged after a
  /// transition-free one runs twice as long (see ParallelAdaptiveJoin's
  /// epoch schedule). So the phases can run up to 2 × this many steps
  /// between two control-point heartbeats, and a deadline is acted on
  /// up to that much phase work late. Only throughput- and
  /// memory-relevant: results and traces do not depend on it.
  uint64_t unbounded_epoch_steps = 512;
  /// Shared worker pool (borrowed, e.g. a LinkageService's; must
  /// outlive the operator). Null = the operator creates its own
  /// max(1, num_shards - 1)-worker pool at Open. Pool choice never
  /// changes results or traces — epochs are barrier-synchronized
  /// either way.
  ThreadPool* shared_pool = nullptr;
  /// Called by the coordinator at every control point (and, when no
  /// control point is scheduled, at every epoch boundary), with the
  /// progress as of that step, *before* the MAR control loop runs.
  /// This is where per-query deadline budgets plug into the adaptation
  /// cycle: a service returns kForceExactOnly past a soft deadline,
  /// kFinalize past a hard one, kCancel on teardown. A directive acts
  /// at exactly that step, wherever it falls inside an epoch. Null =
  /// always proceed (byte-identical to the governor-less engine).
  std::function<EpochDirective(const EpochView&)> governor;
  /// Recoverable-fault policy (see FaultPolicy). kFail preserves the
  /// sticky-error behavior.
  FaultPolicy on_fault = FaultPolicy::kFail;
  /// Bounded retry of transient (kUnavailable) source refills during
  /// ingest; absorbed retries surface via source_retries().
  SourceRetryOptions source_retry;
  /// Per-query budget node of the hierarchical accounting tree
  /// (borrowed; must outlive the join). When set, the join creates one
  /// child node per shard plus a coordinator node under it at Open and
  /// refreshes them at every control point, so the governor (and
  /// the node's ancestors, up to a service-global root) observe the
  /// engine's footprint while it runs. Null = no accounting, no
  /// refresh work — byte-identical behavior AND identical hot-path
  /// cost to the pre-budget engine.
  mem::BudgetNode* memory_budget = nullptr;
};

/// \brief One late-materialized output match of the parallel join:
/// the pair's tuples addressed by (shard, shard-local id).
struct ParallelMatchRef {
  uint32_t left_shard = 0;
  uint32_t right_shard = 0;
  storage::TupleId left_id = 0;
  storage::TupleId right_id = 0;
  double similarity = 1.0;
  join::MatchKind kind = join::MatchKind::kExact;
};

/// \brief Partition-parallel symmetric join driven by one global
/// adaptive::Controller.
///
/// A radix exchange replays the single-threaded input schedule and
/// routes each tuple by join-key hash to one of N shards, each owning
/// its own TupleStore / ExactIndex / QGramIndex (inside a
/// HybridJoinCore). Execution runs in epochs of one fixed length
/// (unbounded_epoch_steps) for every policy:
///
///   route epoch  →  phase A (parallel: per-shard step loops)  →
///   phase B (parallel: cross-shard approximate probes,
///   sequence-gated)  →  merge (serial: global observation stream,
///   with the control points inside the epoch)  →  next epoch
///
/// Adaptation stays *global*: the coordinator merges every shard's
/// per-step matches back into global step order, applies the §3.3
/// attribution to coordinator-owned matched-exactly flags, and runs
/// the one adaptive::Controller on global progress. The merge
/// calls the governor and the Controller at every control point it
/// crosses, with the progress as of that step. A stay costs nothing
/// more. A transition at step j stops the merge at j and broadcasts a
/// rollback-and-catch-up to all shards: each drops the tuples it
/// processed from j on, catches up its lagging structures over the
/// tuples before j, and the phases rerun over the epoch's rows from j
/// in the new state — the paper's safe-state-transfer guarantee,
/// paying for quiescence only where a transition happens. A hard
/// deadline, cancellation or fault likewise cuts the output at its
/// exact step.
///
/// This is the library's one join operator and one MAR driver. Its
/// equivalence contract (tests/integration/parallel_parity_test.cc):
/// for any shard count, the output row *sequence* and the adaptation
/// trace are byte-identical to the single-threaded AdaptiveJoin, a
/// test-only oracle in tests/support/adaptive/adaptive_join.h. Exact
/// matches are intra-shard by construction (equal keys hash equally);
/// approximate cross-shard matches are recovered by phase B with the
/// same prefix visibility as a single index; and the merge emits each
/// step's matches sorted by the stored tuple's global ordinal — the
/// deterministic shard merge order, which equals the single-threaded
/// probes' ascending-stored-id output order.
///
/// Epoch schedule. Let L be unbounded_epoch_steps. A single shard runs
/// every epoch at L: it stops its phases at every control point anyway,
/// so it has no barrier to amortize. With several shards, epoch e + 1
/// is staged one epoch ahead, right after epoch e's boundary control
/// point, so its length can depend only on the merge outcomes known
/// then: it is 2 × L steps long if epoch e − 1 was merged without a
/// transition and none happened at epoch e's boundary either (the
/// control points evaluated since epoch e was staged), and L otherwise.
/// A transition includes a soft-deadline clamp. The first two epochs,
/// routed before any merge, are L long. Every epoch boundary therefore
/// falls on a multiple of L. The rule depends on steps only, so a run's
/// epochs are deterministic. Long epochs halve the barriers of a
/// settled query; the first epoch staged after a transition is short,
/// since another transition is then likely and would redo the rest of
/// its epoch.
///
/// Three drive modes are supported, all producing identical streams:
/// column batches (NextColumnBatch, materialized at delivery), match
/// refs (NextMatchRefs + MaterializeRefInto), and the
/// counting drain (AdvanceUnmaterialized; never builds a row). Use one
/// drive mode per run: batches NextColumnBatch built ahead are not
/// visible to the other two.
class ParallelAdaptiveJoin : public exec::Operator,
                             public exec::UnmaterializedCounter {
 public:
  /// Children are borrowed, not owned, and must outlive the join.
  ParallelAdaptiveJoin(exec::Operator* left, exec::Operator* right,
                       ParallelJoinOptions options);
  ~ParallelAdaptiveJoin() override;

  Status Open() override;
  /// Delivers the next batch of rows, exactly as many as the caller's
  /// batch capacity except for the stream's last one. After a pump it
  /// builds every full batch of the buffered refs at once, on the pool
  /// when there are several (one task per lane, at most num_shards),
  /// queues them and hands them out by swap; refs short of a full batch
  /// wait for the next pump. A failing call delivers no rows.
  Status NextColumnBatch(storage::ColumnBatch* out) override;
  Status Close() override;
  const storage::Schema& output_schema() const override {
    return output_schema_;
  }
  /// Quiescent iff no produced-but-undelivered output remains: no
  /// match ref buffered and no built batch queued (every routed tuple
  /// is fully merged by the end of its epoch).
  bool quiescent() const override {
    return out_pos_ >= out_buffer_.size() &&
           ready_pos_ >= ready_batches_.size();
  }
  std::string name() const override { return "ParallelAdaptiveJoin"; }

  /// \name Match-ref drive mode.
  /// @{
  /// Appends up to `max_refs` output refs to `*out` (cleared first).
  /// An empty result after an OK return signals end-of-stream.
  Status NextMatchRefs(size_t max_refs, std::vector<ParallelMatchRef>* out);

  /// Columnar materialization of one ref: writes the stored tuples'
  /// cells (left fields, right fields, optional similarity column)
  /// straight from the shard stores' columns into `out` as one row (no
  /// row payload constructed).
  void MaterializeRefInto(const ParallelMatchRef& ref,
                          storage::ColumnBatch* out) const;
  /// @}

  /// exec::UnmaterializedCounter.
  Result<size_t> AdvanceUnmaterialized(size_t max_rows) override;

  /// \name Deadline controls (also reachable via options().governor).
  /// @{
  /// Forces the processor into lex/rex at the next control point and
  /// pins it there (soft-deadline semantics; sticky).
  void ForceExactOnly() { controller_.ForceExactOnly(); }
  /// Stops consuming input at the next epoch boundary: buffered output
  /// is still delivered, then the stream ends (hard-deadline
  /// semantics; sticky).
  void FinalizeEarly() { finalize_requested_ = true; }
  /// True iff the stream was ended by FinalizeEarly / kFinalize while
  /// input remained.
  bool finalized_early() const { return finalized_early_; }
  /// True once no further input will be consumed (exhausted or
  /// finalized). Buffered output may still be undelivered.
  bool stream_done() const { return stream_done_; }
  /// Completeness of the result produced so far, under the configured
  /// completeness model — the number a deadline-expired query reports
  /// alongside its partial result.
  CompletenessStats Completeness() const;
  /// The tolerated fault that ended the stream early; engaged only
  /// when on_fault == kFinalizePartial caught a recoverable fault.
  const std::optional<FaultReport>& fault() const { return fault_; }
  /// Transient source refill failures retried away during ingest.
  uint64_t source_retries() const {
    return exchange_ ? exchange_->source_retries() : 0;
  }
  /// Ingest-overlap counters (see IngestStats for the read contract).
  const IngestStats& ingest_stats() const { return ingest_stats_; }
  /// Epochs routed, executed, and merged to completion.
  uint64_t epochs_completed() const { return epoch_; }
  /// Steps whose phases ran again after a transition inside their
  /// epoch (from the transition step to where the phases had run:
  /// the epoch's end with several shards; a single shard never runs
  /// past a control point, so it never redoes a step).
  uint64_t redone_steps() const { return redone_steps_; }
  /// @}

  /// \name Run introspection (valid during and after execution).
  /// @{
  adaptive::ProcessorState state() const { return controller_.state(); }
  const adaptive::CostAccountant& cost() const { return controller_.cost(); }
  const adaptive::Monitor& monitor() const { return controller_.monitor(); }
  const adaptive::AdaptationTrace& trace() const {
    return controller_.trace();
  }
  /// Wall time of the transitions into `s` (rollback and catch-up on
  /// every shard), in nanoseconds: the §4.3 v_i raw material.
  int64_t transition_time_ns(adaptive::ProcessorState s) const {
    return controller_.transition_time_ns(s);
  }
  uint64_t steps() const { return exchange_ ? exchange_->steps() : 0; }
  uint64_t pairs_emitted() const { return pairs_emitted_; }
  uint64_t exact_pairs() const { return exact_pairs_; }
  uint64_t approximate_pairs() const { return approximate_pairs_; }
  /// Distinct tuples of `side` matched at least once (global, i.e.
  /// including cross-shard matches the shard cores cannot see).
  uint64_t distinct_matched(exec::Side side) const {
    return matched_any_count_[static_cast<size_t>(side)];
  }
  size_t num_shards() const { return shards_.size(); }
  const JoinShard& shard(size_t i) const { return *shards_[i]; }
  const ParallelJoinOptions& options() const { return options_; }

  /// Engine memory footprint right now: shard committed+staged tiers,
  /// exchange refill batches, and coordinator buffers. Call only when
  /// quiescent (between drive calls with no ingest task in flight, or
  /// after the stream ended) — the per-control-point refresh uses the
  /// race-free split internally.
  uint64_t ApproximateMemoryUsage() const;
  /// Footprint as of the last control-point refresh (0 before any).
  uint64_t memory_bytes() const { return memory_bytes_; }
  /// High-water of the refreshed footprint across the run. A final
  /// snapshot is folded in when the stream ends, so with accounting
  /// off (memory_budget null) this is simply the end-of-run footprint.
  uint64_t peak_memory_bytes() const { return peak_memory_bytes_; }
  /// @}

 private:
  /// One merged match during the per-step merge, with global per-side
  /// ordinals alongside the (shard, local id) address.
  struct MergedMatch {
    ParallelMatchRef ref;
    exec::Side probe_side = exec::Side::kLeft;
    uint32_t probe_ordinal = 0;
    uint32_t stored_ordinal = 0;
  };

  /// Runs one epoch: a control point due at its first step, the swap,
  /// the phases, then the merge with every control point it crosses
  /// (redoing the phases over the rest of the epoch after a
  /// transition). Sets stream_done_ when the input ends or a deadline
  /// or degraded fault cuts the stream; output merged before the cut
  /// stays buffered. The epoch's route was staged by an ingest task
  /// during the previous epoch; the swap point waits for that task,
  /// commits the staged tier, and submits staging of the *next* epoch
  /// before the phases run. With nothing in flight (the first epoch)
  /// the coordinator routes the epoch itself through the same staged
  /// tier.
  Status PumpEpoch();

  /// The memory charge (budgeted runs), the governor and the MAR
  /// control point at global step `step`, which every merged step
  /// before it has reached. Sets
  /// `*transitioned` when the Controller changed state (the shards
  /// were rolled back to `step`, so the caller reruns the phases from
  /// there); ends the stream on kFinalize, fails sticky on kCancel or
  /// a failed catch-up. Schedules next_control_step_.
  Status ControlPointAt(uint64_t step, bool* transitioned);
  /// Phases A and B over the epoch rows from `from_step` on (the
  /// shards' output buffers and the merge cursors are reset first): to
  /// the end of the epoch with several shards, to the next control
  /// point with one. Sets phases_end_. `*failed_shard` names the
  /// faulting shard on error.
  Status RunPhases(uint64_t from_step, int32_t* failed_shard);
  /// Hands the observables merged since the last control point to the
  /// Controller.
  void FlushObservables();
  /// Drops every routed step at or after `step` that the merge has not
  /// reached, with the staged next epoch: the exchange counters roll
  /// back to `step`.
  void TruncateAt(uint64_t step);
  /// Ends the stream at `step` (hard deadline / FinalizeEarly).
  void FinishEarly(uint64_t step);

  /// \name Pipelined ingest (all coordinator-side).
  /// @{
  /// Submits a one-task ingest group that stages the next epoch
  /// (predicted budget) into the exchange/shard staged tiers. No-op
  /// when the stream is ending or both inputs are already exhausted.
  void MaybeSubmitIngest();
  /// Waits for the in-flight ingest task (stall time accounted) and
  /// returns its outcome: the task-group error if it threw, else the
  /// StageEpoch status.
  Status WaitIngest();
  /// Drains any in-flight ingest task and discards the staged tier
  /// (terminal paths: finalize, cancel, faults, Close, destruction).
  /// A staging error is swallowed — that epoch was never due, so it
  /// never faulted as far as any observer can tell.
  void AbandonStagedIngest();
  /// @}

  /// Moves the undelivered refs to the front of the output buffer,
  /// then pumps epochs until it holds at least `min_refs` or the
  /// stream ends.
  Status FillOutput(size_t min_refs);
  /// Length of the next epoch to route (see the epoch schedule above);
  /// clears transition_since_staged_.
  uint64_t NextEpochSteps();

  /// \name Memory accounting (tentpole PR 9).
  /// @{
  /// Control-point refresh: recomputes the engine footprint (race-free
  /// against an in-flight ingest task via the committed/ingest-side
  /// split), pushes it into the budget nodes, and updates
  /// memory_bytes_/peak_memory_bytes_. Evaluates the `budget.charge`
  /// failpoint first; a non-OK charge is returned for the caller to
  /// degrade through HandleEpochFault. Only called when a budget node
  /// is attached.
  Status RefreshMemoryAccounting();
  /// Sum of the tiers owned by the ingest/staging context: exchange
  /// refill batches, shard staged tiers, and the staged route. Called
  /// by the ingest task after staging (published via
  /// ingest_side_bytes_), or by the coordinator when no task is in
  /// flight.
  uint64_t IngestSideMemoryUsage() const;
  /// Coordinator-owned buffers (route, merge scratch, output buffer,
  /// queued output batches, matched flags) — always safe from the
  /// coordinator.
  uint64_t CoordinatorMemoryUsage() const;
  /// The refresh body without the failpoint: recompute, push into the
  /// budget nodes (if any), update memory_bytes_ and the peak. Also
  /// called directly on stream-end paths (no ingest task is in flight
  /// there), so the final footprint is always folded into the peak —
  /// including with accounting off, which is what fixes the
  /// parallel-runs-report-no-memory RunStats bug.
  void UpdateMemoryAccounting();
  /// @}

  /// The controller's catch-up at `step`: broadcasts a rollback to
  /// `step` and the state `next` to all shards. A failed broadcast
  /// leaves shard states mixed; never degradable.
  Result<std::pair<uint64_t, uint64_t>> ApplyTransition(
      adaptive::ProcessorState next, uint64_t step);
  /// Abandons the unmerged rest of the current epoch: drops the staged
  /// tier and rolls the exchange counters back to the merge position
  /// (nothing to roll back when the fault hit before a commit — a
  /// routing or staging fault — since nothing was published then).
  /// Then either degrades — on_fault == kFinalizePartial and `error`
  /// is recoverable: record a FaultReport, end the stream as a
  /// finalized partial result, return OK — or makes `error` the sticky
  /// pump error. `shard` attributes phase faults (-1 otherwise).
  Status HandleEpochFault(Status error, int32_t shard);
  /// Serial coordinator merge of route_[merged_]: matched-flag replay,
  /// observables, output append. Errors only on broken phase
  /// invariants (misordered shard outputs).
  Status MergeStep();
  /// The global JoinProgress snapshot as of global step `step`, which
  /// the merge has reached: what a run whose epochs all ended at `step`
  /// would report there (the control points' view).
  stats::JoinProgress ProgressAt(uint64_t step) const;
  /// The snapshot Completeness reports between drive calls.
  stats::JoinProgress Progress() const;
  /// Runs one task batch on the pool (coordinator participates); a
  /// throwing task is contained and returned as the group's first
  /// error. When `failed_task` is non-null it receives the failing
  /// task's index (-1 if none) — phase callers pass one task per
  /// shard, so the index names the faulting shard.
  Status RunTasks(std::vector<std::function<void()>> tasks,
                  int32_t* failed_task = nullptr);

  exec::Operator* left_;
  exec::Operator* right_;
  ParallelJoinOptions options_;
  storage::Schema output_schema_;
  /// Left input arity (output column offset of the right fields).
  size_t left_width_ = 0;

  std::vector<std::unique_ptr<JoinShard>> shards_;
  std::vector<JoinShard*> shard_ptrs_;
  std::unique_ptr<RadixExchange> exchange_;
  /// Owned pool when no shared_pool was injected.
  std::unique_ptr<ThreadPool> pool_;
  /// The pool task groups run on while open: options_.shared_pool,
  /// else pool_.get().
  ThreadPool* active_pool_ = nullptr;

  /// The global MAR loop (the coordinator is the only caller).
  adaptive::Controller controller_;

  /// Coordinator-owned global matched flags, indexed by per-side
  /// ordinal: shard-core flags only see intra-shard matches, so the
  /// §3.3 attribution and the distinct-matched statistic live here.
  std::vector<uint8_t> matched_exactly_[2];
  std::vector<uint8_t> matched_any_[2];
  uint64_t matched_any_count_[2] = {0, 0};
  /// Tuples of each side the merge has consumed.
  uint64_t merged_side_count_[2] = {0, 0};
  /// Step of the next governor/control point (see ControlPointAt).
  uint64_t next_control_step_ = 0;
  /// The Controller made a transition since the last epoch was staged
  /// (the epoch schedule's input).
  bool transition_since_staged_ = false;
  uint64_t redone_steps_ = 0;
  uint64_t pairs_emitted_ = 0;
  uint64_t exact_pairs_ = 0;
  uint64_t approximate_pairs_ = 0;

  /// Budget-tree children under options_.memory_budget (empty when
  /// accounting is off): one node per shard plus one coordinator node
  /// (exchange + ingest-side + coordinator buffers). Destroyed before
  /// the borrowed parent, auto-releasing their usage.
  std::vector<std::unique_ptr<mem::BudgetNode>> shard_nodes_;
  std::unique_ptr<mem::BudgetNode> coord_node_;
  uint64_t memory_bytes_ = 0;
  uint64_t peak_memory_bytes_ = 0;
  /// Ingest-side footprint published by the staging task after each
  /// StageEpoch (relaxed; read by the coordinator's refresh while the
  /// task is in flight, exact values re-read after the barrier).
  std::atomic<uint64_t> ingest_side_bytes_{0};

  /// Pipelined-ingest state. The ingest task writes staged_route_,
  /// ingest_status_, and the overlap counter; the coordinator touches
  /// them only after TaskGroupHandle::Wait() (the pool's barrier).
  std::vector<RouteEntry> staged_route_;
  Status ingest_status_;
  TaskGroupHandle ingest_handle_;
  bool ingest_inflight_ = false;
  IngestStats ingest_stats_;

  /// Current epoch's route (its first step is epoch_start_; the merge
  /// has consumed route_[0, merged_)), per-shard merge cursors, and
  /// scratch.
  std::vector<RouteEntry> route_;
  uint64_t epoch_start_ = 0;
  size_t merged_ = 0;
  /// The phases have run over the epoch's steps before this one.
  uint64_t phases_end_ = 0;
  std::vector<size_t> merge_cursor_;
  std::vector<size_t> cross_cursor_;
  std::vector<MergedMatch> merge_scratch_;
  std::vector<join::StepObservables> epoch_observables_;

  /// Produced-but-undelivered output refs, in global order.
  std::vector<ParallelMatchRef> out_buffer_;
  size_t out_pos_ = 0;
  /// Output batches NextColumnBatch built ahead, in global order; the
  /// next one to hand out is ready_batches_[ready_pos_]. Slots already
  /// handed out hold the caller's previous batches, whose allocations
  /// the next build reuses.
  std::vector<storage::ColumnBatch> ready_batches_;
  size_t ready_pos_ = 0;

  bool open_ = false;
  /// Set by the first successful Open(): the operator is single-use.
  bool opened_ = false;
  bool stream_done_ = false;
  /// Hard-deadline state (see FinalizeEarly).
  bool finalize_requested_ = false;
  bool finalized_early_ = false;
  /// Epochs merged to completion (FaultReport::epoch).
  uint64_t epoch_ = 0;
  /// The tolerated fault that degraded this run, if any.
  std::optional<FaultReport> fault_;
  /// Sticky failure: a mid-epoch routing or merge error leaves the
  /// exchange's scheduler position unrecoverable, so the operator
  /// hard-fails every subsequent pump with the original status instead
  /// of double-ingesting a retried epoch.
  Status pump_error_;
};

}  // namespace parallel
}  // namespace exec
}  // namespace aqp

#endif  // AQP_EXEC_PARALLEL_PARALLEL_JOIN_H_
