#include "adaptive/mar.h"

#include <algorithm>

namespace aqp {
namespace adaptive {

const char* AdaptivePolicyName(AdaptivePolicy policy) {
  switch (policy) {
    case AdaptivePolicy::kAdaptive:
      return "adaptive";
    case AdaptivePolicy::kPinned:
      return "pinned";
    case AdaptivePolicy::kScripted:
      return "scripted";
  }
  return "?";
}

Status AdaptiveOptions::Validate() const {
  if (delta_adapt == 0) {
    return Status::InvalidArgument("delta_adapt must be >= 1");
  }
  if (window == 0) {
    return Status::InvalidArgument("window (W) must be >= 1");
  }
  if (theta_out < 0.0 || theta_out > 1.0) {
    return Status::InvalidArgument("theta_out must be in [0, 1]");
  }
  if (curpert_is_ratio &&
      (theta_curpert_ratio < 0.0 || theta_curpert_ratio > 1.0)) {
    return Status::InvalidArgument("theta_curpert_ratio must be in [0, 1]");
  }
  if (policy == AdaptivePolicy::kScripted) {
    for (size_t i = 1; i < script.size(); ++i) {
      if (script[i].at_step < script[i - 1].at_step) {
        return Status::InvalidArgument(
            "scripted transitions must be sorted by at_step");
      }
    }
  }
  return Status::OK();
}

Monitor::Monitor(const AdaptiveOptions& options)
    : approx_window_{stats::SlidingWindowCounter(options.window),
                     stats::SlidingWindowCounter(options.window)},
      approx_active_(options.window) {}

void Monitor::OnBatch(const std::vector<join::StepObservables>& steps,
                      ProcessorState state) {
  // The whole batch ran in one state (transitions only happen at batch
  // boundaries), so approximate-activity is uniform across it.
  const bool approx_active =
      LeftMode(state) == join::ProbeMode::kApproximate ||
      RightMode(state) == join::ProbeMode::kApproximate;
  for (const join::StepObservables& step : steps) {
    approx_window_[0].Advance(step.approx_attributed[0]);
    approx_window_[1].Advance(step.approx_attributed[1]);
    approx_active_.Advance(approx_active ? 1u : 0u);
    ++steps_;
  }
}

Assessor::Assessor(const AdaptiveOptions& options)
    : options_(options), model_(options.model) {
  if (model_ == nullptr) {
    model_ = std::make_shared<stats::ParentChildBinomialModel>(
        options_.parent_table_size);
  }
}

Assessment Assessor::Assess(const Monitor& monitor,
                            const stats::JoinProgress& progress_in) {
  Assessment a;
  a.step = monitor.steps();

  stats::JoinProgress progress = progress_in;
  a.observed_matches = progress.children_matched;
  a.expected_matches = model_->ExpectedMatches(progress);
  a.conceded_deficit = conceded_deficit_;
  // Futility concession: count written-off matches as found, so σ only
  // reacts to losses beyond the conceded baseline.
  progress.children_matched = std::min(
      progress.children_scanned,
      progress.children_matched + conceded_deficit_);
  if (auto p = model_->ShortfallPValue(progress)) {
    a.model_assessed = true;
    a.p_value = *p;
    // theta_out == 0 disables the outlier test outright (extreme
    // shortfalls underflow the p-value to exactly 0, so "<= 0" would
    // otherwise still fire).
    a.sigma = options_.theta_out > 0.0 && a.p_value <= options_.theta_out;
  }

  const bool informative = monitor.WindowApproxActiveSteps() > 0;
  for (size_t i = 0; i < 2; ++i) {
    const auto side = static_cast<exec::Side>(i);
    a.window_approx[i] = monitor.WindowApproxMatches(side);
    a.mu_informative[i] = informative;
    if (informative) {
      if (options_.curpert_is_ratio) {
        const double density = static_cast<double>(a.window_approx[i]) /
                               static_cast<double>(options_.window);
        a.mu[i] = density <= options_.theta_curpert_ratio;
      } else {
        a.mu[i] = a.window_approx[i] <= options_.theta_curpert;
      }
      if (!a.mu[i]) ++past_perturbed_[i];
    } else {
      // No approximate probing ran in the window: no evidence, µ holds
      // vacuously (and the responder treats it as uninformative).
      a.mu[i] = true;
    }
    a.past_perturbed[i] = past_perturbed_[i];
    a.pi[i] = past_perturbed_[i] <= options_.theta_pastpert;
  }
  return a;
}

Responder::Responder(const AdaptiveOptions& options) : options_(options) {}

Decision Responder::Decide(ProcessorState current, const Assessment& a) {
  constexpr size_t kLeft = 0;
  constexpr size_t kRight = 1;
  const bool informative = a.mu_informative[kLeft] || a.mu_informative[kRight];

  if (!a.sigma) {
    futility_streak_ = 0;
    // ϕ0: no statistical evidence of variants and both inputs quiet —
    // exact matching is both effective and efficient.
    if (a.mu[kLeft] && a.mu[kRight]) {
      return Decision{ProcessorState::kLexRex, 0};
    }
    // Shortfall resolved but a perturbation region is still active:
    // hold the current configuration.
    return Decision{current, -1};
  }

  // σ holds: completeness is being lost.
  if (!informative) {
    futility_streak_ = 0;
    // ϕ1 (default case of §3.3): evidence of variants but no
    // approximate operator has run recently, so the source cannot be
    // identified — protect both inputs.
    return Decision{ProcessorState::kLapRap, 1};
  }
  if (!a.mu[kLeft] && !a.mu[kRight]) {
    futility_streak_ = 0;
    // ϕ1: both inputs currently perturbed.
    return Decision{ProcessorState::kLapRap, 1};
  }
  if (!a.mu[kLeft] && a.mu[kRight] && a.pi[kLeft]) {
    futility_streak_ = 0;
    // ϕ2: variants localized in the left input, which has been mostly
    // clean historically — match left tuples approximately only.
    return Decision{ProcessorState::kLapRex, 2};
  }
  if (a.mu[kLeft] && !a.mu[kRight] && a.pi[kRight]) {
    futility_streak_ = 0;
    // ϕ3: symmetric to ϕ2.
    return Decision{ProcessorState::kLexRap, 3};
  }
  // Stuck: σ keeps holding, yet the (informative) windows show that
  // approximate matching is finding nothing. The paper stops here
  // (§3.5); the futility extension eventually concedes and reverts.
  if (options_.enable_futility_revert && a.mu[kLeft] && a.mu[kRight] &&
      current != ProcessorState::kLexRex) {
    if (++futility_streak_ >= options_.futility_patience) {
      futility_streak_ = 0;
      return Decision{ProcessorState::kLexRex, Decision::kFutilityRevert};
    }
  }
  return Decision{current, -1};
}

}  // namespace adaptive
}  // namespace aqp
