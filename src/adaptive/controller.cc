#include "adaptive/controller.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/macros.h"
#include "common/timer.h"

namespace aqp {
namespace adaptive {

Controller::Controller(const AdaptiveOptions& options, StateWeights weights)
    : options_(options),
      monitor_(options_),
      assessor_(options_),
      responder_(options_),
      cost_(weights),
      state_(options_.initial_state) {}

bool Controller::AssessmentDue(uint64_t steps) const {
  return options_.policy == AdaptivePolicy::kAdaptive && steps > 0 &&
         steps - last_assessment_step_ >= options_.delta_adapt;
}

uint64_t Controller::StepsUntilControlPoint(uint64_t steps) const {
  uint64_t next = 0;
  if (options_.policy == AdaptivePolicy::kAdaptive) {
    next = last_assessment_step_ + options_.delta_adapt;
  } else if (options_.policy == AdaptivePolicy::kScripted &&
             script_position_ < options_.script.size()) {
    next = options_.script[script_position_].at_step;
  } else {
    return kNoControlPoint;
  }
  return next > steps ? next - steps : 1;
}

Status Controller::ControlPoint(uint64_t steps,
                                const stats::JoinProgress& progress,
                                const CatchUpFn& catch_up) {
  if (options_.policy == AdaptivePolicy::kScripted) {
    const std::vector<ScriptedTransition>& script = options_.script;
    while (script_position_ < script.size() &&
           script[script_position_].at_step <= steps) {
      const ProcessorState next = script[script_position_++].state;
      if (next != state_) {
        Assessment empty;
        empty.step = steps;
        AQP_RETURN_IF_ERROR(Transition(next, empty, -1, catch_up));
      }
    }
  } else if (AssessmentDue(steps)) {
    AQP_RETURN_IF_ERROR(AssessAndRespond(steps, progress, catch_up));
  }
  if (exact_only_ && state_ != ProcessorState::kLexRex) {
    // Soft-deadline clamp: enter the cheapest exact state before any
    // step of the next run (AssessAndRespond keeps it pinned there).
    Assessment forced;
    forced.step = steps;
    AQP_RETURN_IF_ERROR(Transition(ProcessorState::kLexRex, forced,
                                   Decision::kDeadlineClamp, catch_up));
  }
  return Status::OK();
}

Status Controller::AssessAndRespond(uint64_t steps,
                                    const stats::JoinProgress& progress,
                                    const CatchUpFn& catch_up) {
  last_assessment_step_ = steps;
  const Assessment assessment = assessor_.Assess(monitor_, progress);
  Decision decision = responder_.Decide(state_, assessment);
  if (exact_only_ && decision.next != ProcessorState::kLexRex) {
    // Past the soft deadline the responder may not choose approximate
    // states; the clamp already forced lex/rex, so this can only turn
    // a would-be switch into a stay.
    decision.next = ProcessorState::kLexRex;
    decision.phi = Decision::kDeadlineClamp;
  }
  if (decision.phi == Decision::kFutilityRevert) {
    // Write off the current shortfall: approximate matching had its
    // chance and found nothing, so this deficit is unrecoverable.
    // expected - observed is the *total* shortfall, previous
    // concessions included, so this replaces rather than adds.
    const double deficit = assessment.expected_matches -
                           static_cast<double>(assessment.observed_matches);
    assessor_.ConcedeDeficit(
        static_cast<uint64_t>(std::max(0.0, std::ceil(deficit))));
  }
  return Transition(decision.next, assessment, decision.phi, catch_up);
}

Status Controller::Transition(ProcessorState next,
                              const Assessment& assessment, int phi,
                              const CatchUpFn& catch_up) {
  AssessmentRecord record;
  record.assessment = assessment;
  record.state_before = state_;
  record.state_after = next;
  record.phi = phi;
  if (next != state_) {
    Timer timer;
    auto caught_up = catch_up(next);
    if (!caught_up.ok()) return caught_up.status();
    transition_time_ns_[StateIndex(next)] += timer.ElapsedNanos();
    record.catchup_left = caught_up->first;
    record.catchup_right = caught_up->second;
    state_ = next;
    cost_.AddTransition(next);
  }
  trace_.Record(std::move(record));
  return Status::OK();
}

}  // namespace adaptive
}  // namespace aqp
