#ifndef AQP_ADAPTIVE_CONTROLLER_H_
#define AQP_ADAPTIVE_CONTROLLER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "adaptive/cost_model.h"
#include "adaptive/mar.h"
#include "adaptive/state.h"
#include "adaptive/trace.h"
#include "common/result.h"
#include "stats/completeness_model.h"

namespace aqp {
namespace adaptive {

/// \brief The Monitor–Assess–Respond controller: the one adaptation
/// policy every join engine runs.
///
/// It owns the monitor, assessor, responder, cost accountant, trace,
/// processor state and control-point schedule. An engine supplies only
/// its join progress and its index catch-up on a transition, and calls
/// it at quiescent points: OnSteps() after a run of steps,
/// ControlPoint() between runs, StepsUntilControlPoint() to find the
/// next control point (so control points land at the same step counts
/// whatever the batch or epoch length: the single-threaded join sizes
/// its batches by it, the parallel merge stops there inside an epoch).
class Controller {
 public:
  /// StepsUntilControlPoint() when no control point is scheduled.
  static constexpr uint64_t kNoControlPoint =
      std::numeric_limits<uint64_t>::max();

  /// Moves the engine's probe structures into a state; returns the
  /// {left, right} tuples caught up. On error the controller's state,
  /// cost and trace stay as they were.
  using CatchUpFn =
      std::function<Result<std::pair<uint64_t, uint64_t>>(ProcessorState)>;

  Controller(const AdaptiveOptions& options, StateWeights weights);

  /// Steps the engine may run from `steps` before the next control
  /// point (>= 1), or kNoControlPoint: pinned policy, or a scripted one
  /// past its last entry.
  uint64_t StepsUntilControlPoint(uint64_t steps) const;

  /// Charges a run of steps, executed in the current state, to the
  /// monitor and the cost accountant.
  void OnSteps(const std::vector<join::StepObservables>& steps) {
    cost_.AddSteps(state_, steps.size());
    monitor_.OnBatch(steps, state_);
  }

  /// The control point at `steps`: applies the script entries due by
  /// then, or runs Assess/Respond if δ_adapt steps passed since the
  /// last assessment, recording the trace; then, past a soft deadline,
  /// clamps the state into lex/rex. A catch-up error is returned.
  Status ControlPoint(uint64_t steps, const stats::JoinProgress& progress,
                      const CatchUpFn& catch_up);

  /// Soft-deadline response (sticky): every later control point ends in
  /// lex/rex, and Respond may no longer choose an approximate state.
  void ForceExactOnly() { exact_only_ = true; }

  ProcessorState state() const { return state_; }
  const Monitor& monitor() const { return monitor_; }
  const CostAccountant& cost() const { return cost_; }
  const AdaptationTrace& trace() const { return trace_; }
  const stats::CompletenessModel& model() const { return assessor_.model(); }
  /// Wall time of the catch-up for transitions *into* `s`, in ns.
  int64_t transition_time_ns(ProcessorState s) const {
    return transition_time_ns_[StateIndex(s)];
  }

 private:
  /// True iff the adaptive policy assesses at `steps`.
  bool AssessmentDue(uint64_t steps) const;
  Status AssessAndRespond(uint64_t steps, const stats::JoinProgress& progress,
                          const CatchUpFn& catch_up);
  /// Enters `next` through `catch_up` (a stay when it is the current
  /// state); records cost, time and the trace entry.
  Status Transition(ProcessorState next, const Assessment& assessment,
                    int phi, const CatchUpFn& catch_up);

  AdaptiveOptions options_;
  Monitor monitor_;
  Assessor assessor_;
  Responder responder_;
  CostAccountant cost_;
  AdaptationTrace trace_;
  ProcessorState state_;
  uint64_t last_assessment_step_ = 0;
  size_t script_position_ = 0;
  bool exact_only_ = false;
  std::array<int64_t, kNumProcessorStates> transition_time_ns_{0, 0, 0, 0};
};

}  // namespace adaptive
}  // namespace aqp

#endif  // AQP_ADAPTIVE_CONTROLLER_H_
