#ifndef AQP_ADAPTIVE_ADAPTIVE_JOIN_H_
#define AQP_ADAPTIVE_ADAPTIVE_JOIN_H_

#include <array>
#include <cstdint>

#include "adaptive/controller.h"
#include "join/symmetric_join.h"

namespace aqp {
namespace adaptive {

/// \brief Configuration of the adaptive join operator.
struct AdaptiveJoinOptions {
  /// Join spec, interleaving, output shape, approximate-probe knobs.
  join::SymmetricJoinOptions join;
  /// MAR thresholds, completeness model, control policy.
  AdaptiveOptions adaptive;
  /// Weights used by the run's cost accountant.
  StateWeights weights = StateWeights::Paper();
};

/// \brief The paper's hybrid join operator: a pipelined symmetric hash
/// join whose per-input matching mode (exact / approximate) is driven
/// at runtime by the Monitor-Assess-Respond loop (adaptive::Controller).
///
/// Execution starts optimistically in `lex/rex`. Every δ_adapt steps —
/// always at a quiescent state — the monitor's observables are
/// assessed: a statistically significant shortfall of the observed
/// result size versus the parent-child binomial expectation (σ)
/// switches perturbed inputs to approximate matching (ϕ1–ϕ3); a window
/// of consistently exact matches switches back (ϕ0). Switches carry
/// their hash-structure catch-up cost, which the operator accounts for.
/// It is the single-threaded reference ParallelAdaptiveJoin must match.
///
/// \code
///   AdaptiveJoinOptions options;
///   options.join.spec.left_column = 1;    // accidents.location
///   options.join.spec.right_column = 0;   // atlas.location
///   options.adaptive.parent_side = exec::Side::kRight;
///   options.adaptive.parent_table_size = atlas.size();
///   AdaptiveJoin join(&accidents_scan, &atlas_scan, options);
///   auto result = exec::CollectAll(&join);
/// \endcode
class AdaptiveJoin : public join::SymmetricJoin {
 public:
  /// Children are borrowed and must outlive the operator.
  AdaptiveJoin(exec::Operator* left, exec::Operator* right,
               AdaptiveJoinOptions options);

  Status Open() override;
  std::string name() const override { return "AdaptiveJoin"; }

  /// \name Run introspection (valid during and after execution).
  /// @{
  /// Current processor state.
  ProcessorState state() const { return controller_.state(); }
  /// Step and transition counts priced by the configured weights.
  const CostAccountant& cost() const { return controller_.cost(); }
  /// The MAR monitor (windows, step count).
  const Monitor& monitor() const { return controller_.monitor(); }
  /// Assessment/transition timeline.
  const AdaptationTrace& trace() const { return controller_.trace(); }
  /// Measured wall time spent in steps of `s`, in nanoseconds.
  int64_t state_time_ns(ProcessorState s) const {
    return state_time_ns_[StateIndex(s)];
  }
  /// Measured wall time of catch-up work for transitions *into* `s`,
  /// in nanoseconds (the raw material for the §4.3 v_i weights).
  int64_t transition_time_ns(ProcessorState s) const {
    return controller_.transition_time_ns(s);
  }
  const AdaptiveJoinOptions& adaptive_options() const { return options_; }
  /// @}

 protected:
  /// Runs the controller's control point on this core.
  Status OnQuiescentPoint() override;
  /// Feeds the controller with a whole step batch's observables.
  void OnBatchCompleted(const join::StepBatchStats& batch) override;
  /// Clamps step batches so control points land at the same step
  /// counts as under tuple-at-a-time execution.
  uint64_t StepsUntilControlPoint() const override;

 private:
  /// The core's join progress, as the completeness model reads it.
  stats::JoinProgress Progress() const;

  AdaptiveJoinOptions options_;
  Controller controller_;
  std::array<int64_t, kNumProcessorStates> state_time_ns_{0, 0, 0, 0};
};

}  // namespace adaptive
}  // namespace aqp

#endif  // AQP_ADAPTIVE_ADAPTIVE_JOIN_H_
