#include "adaptive/adaptive_join.h"

#include "common/macros.h"

namespace aqp {
namespace adaptive {

AdaptiveJoin::AdaptiveJoin(exec::Operator* left, exec::Operator* right,
                           AdaptiveJoinOptions options)
    : SymmetricJoin(left, right, options.join,
                    LeftMode(options.adaptive.initial_state),
                    RightMode(options.adaptive.initial_state),
                    "AdaptiveJoin"),
      options_(std::move(options)),
      controller_(options_.adaptive, options_.weights) {}

Status AdaptiveJoin::Open() {
  AQP_RETURN_IF_ERROR(options_.adaptive.Validate());
  return SymmetricJoin::Open();
}

void AdaptiveJoin::OnBatchCompleted(const join::StepBatchStats& batch) {
  controller_.OnSteps(batch.steps);
}

uint64_t AdaptiveJoin::StepsUntilControlPoint() const {
  static_assert(Controller::kNoControlPoint == kNoControlPoint,
                "both layers mean 'unbounded' by the same value");
  return controller_.StepsUntilControlPoint(steps());
}

Status AdaptiveJoin::OnQuiescentPoint() {
  // SetProbeMode(side, m) catches up the structure on the *opposite*
  // side that `side`'s probes will now use: the paper's switch cost.
  return controller_.ControlPoint(
      steps(), Progress(),
      [this](ProcessorState next) {
        return mutable_core()->SetProbeModes(LeftMode(next), RightMode(next));
      });
}

stats::JoinProgress AdaptiveJoin::Progress() const {
  const exec::Side parent_side = options_.adaptive.parent_side;
  const exec::Side child_side = exec::OtherSide(parent_side);
  stats::JoinProgress progress;
  progress.parents_scanned = core().store(parent_side).size();
  progress.children_scanned = core().store(child_side).size();
  progress.children_matched = options_.adaptive.use_pairs_statistic
                                  ? core().pairs_emitted()
                                  : core().distinct_matched(child_side);
  progress.parent_exhausted = input_exhausted(parent_side);
  return progress;
}

}  // namespace adaptive
}  // namespace aqp
