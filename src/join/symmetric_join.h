#ifndef AQP_JOIN_SYMMETRIC_JOIN_H_
#define AQP_JOIN_SYMMETRIC_JOIN_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "exec/interleave.h"
#include "exec/operator.h"
#include "join/hybrid_core.h"
#include "join/join_types.h"
#include "join/match_batch.h"

namespace aqp {
namespace join {

/// \brief Configuration shared by all symmetric join operators.
struct SymmetricJoinOptions {
  /// What to join and how to compare (θ_sim, q, measure).
  JoinSpec spec;
  /// Input alternation policy (the paper scans "each of the tables in
  /// turn").
  exec::InterleavePolicy interleave = exec::InterleavePolicy::kAlternate;
  /// Expected input cardinalities for the proportional policy
  /// (0 = unknown).
  uint64_t left_size_hint = 0;
  uint64_t right_size_hint = 0;
  /// Append a "sim" double column to every output tuple.
  bool emit_similarity = false;
  /// Approximate-probe knobs (ablation switches).
  ApproxProbeOptions approx;
  /// Rows per input batch pulled from the children, and the step-batch
  /// granularity of the vectorized execution path. 1 degenerates to
  /// tuple-at-a-time execution; results and adaptation traces are
  /// identical for every value (see StepsUntilControlPoint()).
  size_t batch_size = storage::ColumnBatch::kDefaultCapacity;
};

/// \brief Observables of one step batch: the steps executed between two
/// consecutive quiescent control points of the batched execution path.
struct StepBatchStats {
  /// Per-step observables, in execution order.
  std::vector<StepObservables> steps;
  /// Accumulated wall time of the batch's core step work — store,
  /// index, probe, match-ref emission, and intra-engine buffer moves,
  /// excluding child input pulls and output materialization — in
  /// nanoseconds. This is the quantity the §4.3 weight calibration
  /// divides by step counts, so child scan time must not pollute it.
  /// Measured once per step batch (child refills subtracted), not per
  /// step, keeping the clock off the hot path.
  int64_t elapsed_ns = 0;

  void Clear() {
    steps.clear();
    elapsed_ns = 0;
  }
};

/// \brief Pipelined symmetric join driver: pulls from two child
/// operators, feeds a HybridJoinCore, and enumerates result matches.
///
/// This is the iterator of Fig. 2, vectorized and late-materializing.
/// Execution advances in *steps* (one input tuple fully joined per
/// step, §2.1); the engine runs steps in batches of up to
/// `options.batch_size`, pulling child input through ColumnBatch
/// refills and emitting MatchRef batches. A step's output is a set of
/// references into the two tuple stores — no concatenated payload row
/// is built on the hot path. Output cells exist only where a consumer
/// needs them:
///
/// - NextMatchBatch() is the native protocol: it refills a MatchBatch
///   with output refs;
/// - NextColumnBatch() is NextMatchBatch() followed by
///   MaterializeInto(), which writes the stored cells of each ref
///   straight into the caller's ColumnBatch;
/// - counting drains go through exec::UnmaterializedCounter and never
///   write an output cell at all.
///
/// Between step batches the operator is quiescent by construction —
/// every consumed tuple's matches are fully enumerated as refs — so
/// these boundaries are the only points where subclasses adapt:
///
/// - OnQuiescentPoint() fires before each step batch (and once more at
///   end-of-stream) — the only moments where probe modes may be
///   switched safely (assess/respond);
/// - StepsUntilControlPoint() lets a subclass clamp the next batch so a
///   boundary lands exactly where its control loop must fire (δ_adapt
///   is expressed in steps; the engine rounds batch edges to it, which
///   makes traces independent of batch_size);
/// - OnBatchCompleted() fires after each step batch with the per-step
///   observables aggregated over the batch (monitor feed).
///
/// The drive modes (match batches, column batches, counting) may be
/// mixed on one operator instance.
///
/// SHJoin pins both modes to exact, SSHJoin to approximate; the
/// adaptive operator drives them through the MAR controller.
class SymmetricJoin : public exec::Operator, public exec::UnmaterializedCounter {
 public:
  /// Children are borrowed, not owned, and must outlive the join.
  SymmetricJoin(exec::Operator* left, exec::Operator* right,
                SymmetricJoinOptions options, ProbeMode initial_left_mode,
                ProbeMode initial_right_mode, std::string name);

  Status Open() override;
  Status NextColumnBatch(storage::ColumnBatch* out) override;
  Status Close() override;
  const storage::Schema& output_schema() const override {
    return output_schema_;
  }
  /// Quiescent iff no produced-but-undelivered match refs remain
  /// buffered; every consumed input tuple is fully joined at all times.
  bool quiescent() const override { return pending_.empty(); }
  std::string name() const override { return name_; }

  /// \name Late-materialized output protocol.
  /// @{
  /// Refills `out` (cleared first; capacity is the caller's) with up to
  /// out->capacity() output match refs. An empty batch after an OK
  /// return signals end-of-stream. Ref order equals the row order of
  /// NextColumnBatch(). On error `out` is cleared, and the refs it had
  /// taken from the spill buffer go back to it for the next call.
  Status NextMatchBatch(MatchBatch* out);

  /// Columnar materialization: writes every ref's output cells —
  /// left store columns, right store columns, optional similarity —
  /// straight into `out`'s column vectors, arena to arena. No row
  /// payload is constructed (this is what the columnar sinks drive).
  void MaterializeInto(const MatchBatch& matches,
                       storage::ColumnBatch* out) const;

  /// exec::UnmaterializedCounter: produce and count up to `max_rows`
  /// output refs without building rows.
  Result<size_t> AdvanceUnmaterialized(size_t max_rows) override;
  /// @}

  /// \name Introspection.
  /// @{
  const HybridJoinCore& core() const { return core_; }
  /// Steps executed so far (= input tuples fully processed).
  uint64_t steps() const { return steps_; }
  /// True once `side`'s input has reported end-of-stream.
  bool input_exhausted(exec::Side side) const {
    return side == exec::Side::kLeft ? left_done_ : right_done_;
  }
  const SymmetricJoinOptions& options() const { return options_; }
  /// @}

 protected:
  /// Marker for "no control point scheduled" (StepsUntilControlPoint).
  static constexpr uint64_t kNoControlPoint =
      std::numeric_limits<uint64_t>::max();

  /// Called at batch-aligned quiescent points (before each step batch
  /// and at end-of-stream); the only safe place for SetProbeMode().
  /// Default: no adaptation.
  virtual Status OnQuiescentPoint() { return Status::OK(); }

  /// Steps the engine may execute before the next quiescent control
  /// point is required. The engine never runs a step batch past this
  /// bound, so a subclass returning "steps to my next δ_adapt boundary"
  /// gets its control loop activated at exactly the same step counts as
  /// under tuple-at-a-time execution. Default: unbounded.
  virtual uint64_t StepsUntilControlPoint() const { return kNoControlPoint; }

  /// Called after each step batch with its aggregated observables.
  virtual void OnBatchCompleted(const StepBatchStats& batch) { (void)batch; }

  /// Mutable core access for subclasses (responder switches).
  HybridJoinCore* mutable_core() { return &core_; }

 private:
  /// Refills `side`'s input buffer with the child's next columnar
  /// batch and precomputes the join-key hash lane over it.
  Status RefillInput(exec::Side side);

  /// Pulls the next scheduler-ordered input row: *side says which
  /// input, *row indexes into input_batch_[*side]. Returns false when
  /// both inputs are exhausted.
  Result<bool> PullNextInput(exec::Side* side, size_t* row);

  /// Executes one step: consume one input tuple, probe, and append the
  /// step's match refs (to `out` while it has room, spilling the rest
  /// to pending_). Records the step's observables into batch_stats_.
  /// Returns false (without stepping) at end-of-stream.
  Result<bool> StepOnce(MatchBatch* out);

  /// Runs one step batch of at most `max_steps` steps, firing
  /// OnBatchCompleted if any step executed. Sets *exhausted when input
  /// ran out.
  Status RunStepBatch(MatchBatch* out, uint64_t max_steps, bool* exhausted);

  exec::Operator* left_;
  exec::Operator* right_;
  SymmetricJoinOptions options_;
  std::string name_;
  HybridJoinCore core_;
  exec::InterleaveScheduler scheduler_;
  storage::Schema output_schema_;
  /// Produced-but-undelivered match refs: step outputs that overflowed
  /// the caller's batch.
  std::deque<MatchRef> pending_;
  /// Read-ahead columnar buffers over the children, one per side.
  /// Rows are consumed in place (the step copies the payload slice
  /// into the store), so nothing is ever moved out of them.
  storage::ColumnBatch input_batch_[2];
  size_t input_pos_[2] = {0, 0};
  /// Left input arity (output column offset of the right fields).
  size_t left_width_ = 0;
  /// Scratch reused across steps (cleared per step, capacity kept).
  std::vector<JoinMatch> match_scratch_;
  /// Ref batch reused by NextColumnBatch and AdvanceUnmaterialized.
  MatchBatch adapter_batch_;
  StepBatchStats batch_stats_;
  /// Child NextColumnBatch time inside the current step batch (subtracted
  /// from its elapsed_ns; see RunStepBatch/RefillInput).
  int64_t refill_excluded_ns_ = 0;
  uint64_t steps_ = 0;
  bool left_done_ = false;
  bool right_done_ = false;
  bool open_ = false;
  /// Set by the first successful Open(): the operator is single-use.
  bool opened_ = false;
};

}  // namespace join
}  // namespace aqp

#endif  // AQP_JOIN_SYMMETRIC_JOIN_H_
