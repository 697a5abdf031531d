#include "adaptive/controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace aqp {
namespace adaptive {
namespace {

constexpr uint64_t kNone = Controller::kNoControlPoint;
using CatchUpResult = Result<std::pair<uint64_t, uint64_t>>;

AdaptiveOptions Options(AdaptivePolicy policy) {
  AdaptiveOptions o;
  o.policy = policy;
  o.delta_adapt = 50;
  o.window = 50;
  o.parent_side = exec::Side::kRight;
  o.parent_table_size = 50;
  return o;
}

/// Every parent and 40 children scanned, 5 matched: σ holds.
stats::JoinProgress Shortfall() {
  stats::JoinProgress progress;
  progress.parents_scanned = 50;
  progress.children_scanned = 40;
  progress.children_matched = 5;
  return progress;
}

/// As many children matched as the model expects: σ does not hold.
stats::JoinProgress Healthy() {
  stats::JoinProgress progress;
  progress.parents_scanned = 50;
  progress.children_scanned = 40;
  progress.children_matched = 40;
  return progress;
}

/// Catch-up stub: records every requested state, reports 3 + 4 tuples.
struct CatchUpLog {
  std::vector<ProcessorState> requested;
  Controller::CatchUpFn Fn() {
    return [this](ProcessorState next) -> CatchUpResult {
      requested.push_back(next);
      return std::make_pair(uint64_t{3}, uint64_t{4});
    };
  }
};

/// Drives `controller` through step counts 0..`end` in runs of the given
/// lengths (cycled, each clamped to the schedule ControlPoint set).
void WalkSchedule(Controller* controller, uint64_t end,
                  const std::vector<uint64_t>& runs,
                  const stats::JoinProgress& progress) {
  CatchUpLog log;
  uint64_t steps = 0;
  size_t run = 0;
  while (steps < end) {
    ASSERT_TRUE(controller->ControlPoint(steps, progress, log.Fn()).ok());
    const uint64_t length =
        std::min({runs[run++ % runs.size()],
                  controller->StepsUntilControlPoint(steps), end - steps});
    controller->OnSteps(std::vector<join::StepObservables>(length));
    steps += length;
  }
}

TEST(ControllerTest, PinnedSchedulesNoControlPoint) {
  Controller controller(Options(AdaptivePolicy::kPinned), StateWeights());
  EXPECT_EQ(controller.StepsUntilControlPoint(0), kNone);
  WalkSchedule(&controller, 500, {7, 50, 130}, Shortfall());
  EXPECT_EQ(controller.trace().size(), 0u);
  EXPECT_EQ(controller.state(), ProcessorState::kLexRex);
  EXPECT_EQ(controller.cost().total_steps(), 500u);
  EXPECT_EQ(controller.monitor().steps(), 500u);
}

TEST(ControllerTest, ScriptedScheduleIsPredictedAcrossEntries) {
  AdaptiveOptions o = Options(AdaptivePolicy::kScripted);
  o.script = {
      {0, ProcessorState::kLapRex},
      {10, ProcessorState::kLapRap},
      {10, ProcessorState::kLexRap},  // two entries at one step
      {25, ProcessorState::kLexRap},  // no-op: already there
      {40, ProcessorState::kLexRex},
  };
  for (const std::vector<uint64_t>& runs :
       std::vector<std::vector<uint64_t>>{{1}, {3, 8}, {1000}}) {
    Controller controller(o, StateWeights());
    EXPECT_EQ(controller.StepsUntilControlPoint(0), 1u);  // entry due now
    WalkSchedule(&controller, 100, runs, Shortfall());
    // Past the last entry nothing is scheduled.
    EXPECT_EQ(controller.StepsUntilControlPoint(100), kNone);
    ASSERT_EQ(controller.trace().size(), 4u);
    const auto& records = controller.trace().records();
    EXPECT_EQ(records[0].assessment.step, 0u);
    EXPECT_EQ(records[1].assessment.step, 10u);
    EXPECT_EQ(records[1].state_after, ProcessorState::kLapRap);
    EXPECT_EQ(records[2].assessment.step, 10u);
    EXPECT_EQ(records[2].state_after, ProcessorState::kLexRap);
    EXPECT_EQ(records[3].assessment.step, 40u);
    EXPECT_EQ(records[3].phi, -1);
    EXPECT_EQ(records[3].catchup_left, 3u);
    EXPECT_EQ(records[3].catchup_right, 4u);
    EXPECT_EQ(controller.state(), ProcessorState::kLexRex);
    EXPECT_EQ(controller.cost().total_transitions(), 4u);
  }
}

TEST(ControllerTest, AdaptiveScheduleIsPredictedAcrossDeltaBoundaries) {
  for (const std::vector<uint64_t>& runs :
       std::vector<std::vector<uint64_t>>{{1}, {7, 13}, {49}, {1000}}) {
    Controller controller(Options(AdaptivePolicy::kAdaptive),
                          StateWeights());
    EXPECT_EQ(controller.StepsUntilControlPoint(0), 50u);
    WalkSchedule(&controller, 500, runs, Healthy());
    // One assessment per δ_adapt boundary, none at step 0.
    ASSERT_EQ(controller.trace().size(), 9u);
    for (size_t i = 0; i < controller.trace().size(); ++i) {
      EXPECT_EQ(controller.trace().records()[i].assessment.step,
                50u * (i + 1));
      EXPECT_EQ(controller.trace().records()[i].phi, 0);
    }
    // At a boundary before its control point ran, it is due now.
    EXPECT_EQ(controller.StepsUntilControlPoint(500), 1u);
  }
}

TEST(ControllerTest, TransitionRunsCatchUpAndRecordsIt) {
  Controller controller(Options(AdaptivePolicy::kAdaptive), StateWeights());
  CatchUpLog log;
  controller.OnSteps(std::vector<join::StepObservables>(50));
  ASSERT_TRUE(controller.ControlPoint(50, Shortfall(), log.Fn()).ok());
  // σ holds without window evidence: ϕ1 protects both inputs.
  ASSERT_EQ(log.requested.size(), 1u);
  EXPECT_EQ(log.requested[0], ProcessorState::kLapRap);
  EXPECT_EQ(controller.state(), ProcessorState::kLapRap);
  ASSERT_EQ(controller.trace().size(), 1u);
  const AssessmentRecord& record = controller.trace().records()[0];
  EXPECT_TRUE(record.assessment.sigma);
  EXPECT_EQ(record.phi, 1);
  EXPECT_EQ(record.catchup_left, 3u);
  EXPECT_EQ(record.catchup_right, 4u);
  EXPECT_EQ(controller.cost().transitions(ProcessorState::kLapRap), 1u);
  EXPECT_EQ(controller.cost().steps(ProcessorState::kLexRex), 50u);
}

TEST(ControllerTest, FailedCatchUpLeavesStateUnchanged) {
  Controller controller(Options(AdaptivePolicy::kAdaptive), StateWeights());
  controller.OnSteps(std::vector<join::StepObservables>(50));
  const Status status = controller.ControlPoint(
      50, Shortfall(), [](ProcessorState) -> CatchUpResult {
        return Status::Internal("broadcast failed");
      });
  EXPECT_TRUE(status.IsInternal()) << status;
  EXPECT_EQ(controller.state(), ProcessorState::kLexRex);
  EXPECT_EQ(controller.trace().size(), 0u);
  EXPECT_EQ(controller.cost().total_transitions(), 0u);
}

TEST(ControllerTest, DeadlineClampForcesExactAndPinsIt) {
  Controller controller(Options(AdaptivePolicy::kAdaptive), StateWeights());
  CatchUpLog log;
  controller.OnSteps(std::vector<join::StepObservables>(50));
  ASSERT_TRUE(controller.ControlPoint(50, Shortfall(), log.Fn()).ok());
  ASSERT_EQ(controller.state(), ProcessorState::kLapRap);

  // The clamp fires at the next control point even when no assessment
  // is due, and the schedule is unchanged by it.
  controller.ForceExactOnly();
  controller.OnSteps(std::vector<join::StepObservables>(20));
  ASSERT_TRUE(controller.ControlPoint(70, Shortfall(), log.Fn()).ok());
  EXPECT_EQ(controller.StepsUntilControlPoint(70), 30u);
  EXPECT_EQ(controller.state(), ProcessorState::kLexRex);
  ASSERT_EQ(controller.trace().size(), 2u);
  const AssessmentRecord& clamp = controller.trace().records()[1];
  EXPECT_EQ(clamp.phi, Decision::kDeadlineClamp);
  EXPECT_EQ(clamp.assessment.step, 70u);
  EXPECT_EQ(clamp.state_before, ProcessorState::kLapRap);
  EXPECT_EQ(clamp.state_after, ProcessorState::kLexRex);

  // σ still holds at the next assessment, with no approximate activity
  // in the window (ϕ1 would fire), but Respond may no longer leave
  // lex/rex: the would-be switch becomes a clamped stay.
  controller.OnSteps(std::vector<join::StepObservables>(60));
  ASSERT_TRUE(controller.ControlPoint(130, Shortfall(), log.Fn()).ok());
  EXPECT_EQ(controller.state(), ProcessorState::kLexRex);
  ASSERT_EQ(controller.trace().size(), 3u);
  const AssessmentRecord& stay = controller.trace().records()[2];
  EXPECT_TRUE(stay.assessment.sigma);
  EXPECT_EQ(stay.phi, Decision::kDeadlineClamp);
  EXPECT_FALSE(stay.transitioned());
  EXPECT_EQ(log.requested.size(), 2u);
}

TEST(ControllerTest, OnStepsChargesTheCurrentState) {
  AdaptiveOptions o = Options(AdaptivePolicy::kPinned);
  o.initial_state = ProcessorState::kLapRex;
  Controller controller(o, StateWeights());
  join::StepObservables blamed;
  blamed.approx_attributed[0] = 2;
  controller.OnSteps({blamed, join::StepObservables()});
  EXPECT_EQ(controller.cost().steps(ProcessorState::kLapRex), 2u);
  EXPECT_EQ(controller.monitor().steps(), 2u);
  EXPECT_EQ(controller.monitor().WindowApproxMatches(exec::Side::kLeft), 2u);
  EXPECT_EQ(controller.monitor().WindowApproxActiveSteps(), 2u);
}

}  // namespace
}  // namespace adaptive
}  // namespace aqp
