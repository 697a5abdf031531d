#include <gtest/gtest.h>

#include "adaptive/mar.h"
#include "join/hybrid_core.h"

namespace aqp {
namespace adaptive {
namespace {

using exec::Side;
using join::HybridJoinCore;
using join::JoinMatch;
using join::JoinSpec;
using join::MatchKind;
using storage::Tuple;
using storage::Value;

AdaptiveOptions Options() {
  AdaptiveOptions o;
  o.window = 10;
  o.theta_out = 0.05;
  o.theta_curpert = 2;
  o.theta_pastpert = 3;
  o.parent_side = Side::kRight;
  o.parent_table_size = 50;
  return o;
}

JoinMatch Approx(Side probe_side) {
  JoinMatch m;
  m.probe_side = probe_side;
  m.probe_id = 0;
  m.stored_id = 0;
  m.similarity = 0.9;
  m.kind = MatchKind::kApproximate;
  return m;
}

/// Feeds one step: its matches attributed against the core's current
/// matched-exactly flags, then handed to the monitor as a batch.
void OnStep(Monitor* monitor, Side read_side,
            const std::vector<JoinMatch>& matches,
            const HybridJoinCore& core, ProcessorState state) {
  monitor->OnBatch({core.AttributeApproxMatches(read_side, matches)}, state);
}

/// The core's join progress with the parent on the right (as
/// AdaptiveJoin computes it for Options()).
stats::JoinProgress Progress(const HybridJoinCore& core) {
  stats::JoinProgress progress;
  progress.parents_scanned = core.store(Side::kRight).size();
  progress.children_scanned = core.store(Side::kLeft).size();
  progress.children_matched = core.distinct_matched(Side::kLeft);
  return progress;
}

/// Feeds `matched` matching child/parent pairs and `unmatched` orphan
/// children through a core, returning it for assessment.
void FeedPairs(HybridJoinCore* core, int matched, int unmatched) {
  for (int i = 0; i < matched; ++i) {
    const std::string key = "KEY" + std::to_string(i);
    core->ProcessTuple(Side::kRight, Tuple{Value(key)});
    core->ProcessTuple(Side::kLeft, Tuple{Value(key)});
  }
  for (int i = 0; i < unmatched; ++i) {
    core->ProcessTuple(Side::kLeft,
                       Tuple{Value("ORPHANZZ" + std::to_string(i))});
  }
}

TEST(AssessorTest, HealthyRunNoSigma) {
  AdaptiveOptions o = Options();
  Assessor assessor(o);
  Monitor monitor(o);
  HybridJoinCore core((JoinSpec()));
  FeedPairs(&core, 30, 0);
  for (uint64_t i = 0; i < 60; ++i) {
    OnStep(&monitor, Side::kLeft, {}, core, ProcessorState::kLexRex);
  }
  const Assessment a = assessor.Assess(monitor, Progress(core));
  EXPECT_TRUE(a.model_assessed);
  EXPECT_FALSE(a.sigma);
  EXPECT_GT(a.p_value, 0.05);
}

TEST(AssessorTest, ShortfallRaisesSigma) {
  AdaptiveOptions o = Options();
  Assessor assessor(o);
  Monitor monitor(o);
  HybridJoinCore core((JoinSpec()));
  // 40 of 50 parents scanned, 40 children scanned, only 10 matched —
  // expected ~32.
  FeedPairs(&core, 10, 30);
  for (int i = 0; i < 30; ++i) {
    core.ProcessTuple(Side::kRight,
                      Tuple{Value("PARENTPAD" + std::to_string(i))});
  }
  const Assessment a = assessor.Assess(monitor, Progress(core));
  EXPECT_TRUE(a.model_assessed);
  EXPECT_TRUE(a.sigma);
  EXPECT_LT(a.p_value, 1e-6);
  EXPECT_EQ(a.observed_matches, 10u);
  EXPECT_GT(a.expected_matches, 25.0);
}

TEST(AssessorTest, MuUninformativeWithoutApproxActivity) {
  AdaptiveOptions o = Options();
  Assessor assessor(o);
  Monitor monitor(o);
  HybridJoinCore core((JoinSpec()));
  FeedPairs(&core, 5, 0);
  for (int i = 0; i < 20; ++i) {
    OnStep(&monitor, Side::kLeft, {}, core, ProcessorState::kLexRex);
  }
  const Assessment a = assessor.Assess(monitor, Progress(core));
  EXPECT_FALSE(a.mu_informative[0]);
  EXPECT_FALSE(a.mu_informative[1]);
  EXPECT_TRUE(a.mu[0]);
  EXPECT_TRUE(a.mu[1]);
}

TEST(AssessorTest, MuFalseWhenWindowBusy) {
  AdaptiveOptions o = Options();  // theta_curpert = 2
  Assessor assessor(o);
  Monitor monitor(o);
  HybridJoinCore core((JoinSpec()));
  core.ProcessTuple(Side::kLeft, Tuple{Value("Ax")});
  core.ProcessTuple(Side::kRight, Tuple{Value("Ay")});
  // 3 approximate matches blamed on both sides (> theta_curpert).
  for (int i = 0; i < 3; ++i) {
    OnStep(&monitor, Side::kRight, {Approx(Side::kRight)}, core,
           ProcessorState::kLapRap);
  }
  const Assessment a = assessor.Assess(monitor, Progress(core));
  EXPECT_TRUE(a.mu_informative[0]);
  EXPECT_FALSE(a.mu[0]);
  EXPECT_FALSE(a.mu[1]);
  EXPECT_EQ(a.window_approx[0], 3u);
}

TEST(AssessorTest, MuCountBoundaryIsInclusive) {
  AdaptiveOptions o = Options();  // theta_curpert = 2
  Assessor assessor(o);
  Monitor monitor(o);
  HybridJoinCore core((JoinSpec()));
  core.ProcessTuple(Side::kLeft, Tuple{Value("Ax")});
  core.ProcessTuple(Side::kRight, Tuple{Value("Ay")});
  for (int i = 0; i < 2; ++i) {
    OnStep(&monitor, Side::kRight, {Approx(Side::kRight)}, core,
           ProcessorState::kLapRap);
  }
  const Assessment a = assessor.Assess(monitor, Progress(core));
  EXPECT_TRUE(a.mu[0]);  // exactly theta_curpert is still unperturbed
}

TEST(AssessorTest, RatioInterpretation) {
  AdaptiveOptions o = Options();
  o.curpert_is_ratio = true;
  o.theta_curpert_ratio = 0.25;  // W=10: up to 2.5 events OK
  Assessor assessor(o);
  Monitor monitor(o);
  HybridJoinCore core((JoinSpec()));
  core.ProcessTuple(Side::kLeft, Tuple{Value("Ax")});
  core.ProcessTuple(Side::kRight, Tuple{Value("Ay")});
  for (int i = 0; i < 3; ++i) {
    OnStep(&monitor, Side::kRight, {Approx(Side::kRight)}, core,
           ProcessorState::kLapRap);
  }
  const Assessment a = assessor.Assess(monitor, Progress(core));
  EXPECT_FALSE(a.mu[0]);  // 3/10 > 0.25
}

TEST(AssessorTest, PastPerturbationAccumulatesAcrossAssessments) {
  AdaptiveOptions o = Options();  // theta_pastpert = 3
  Assessor assessor(o);
  Monitor monitor(o);
  HybridJoinCore core((JoinSpec()));
  core.ProcessTuple(Side::kLeft, Tuple{Value("Ax")});
  core.ProcessTuple(Side::kRight, Tuple{Value("Ay")});
  // Five assessments, each with a perturbed left window.
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 3; ++i) {
      OnStep(&monitor, Side::kRight, {Approx(Side::kRight)}, core,
             ProcessorState::kLapRap);
    }
    const Assessment a = assessor.Assess(monitor, Progress(core));
    EXPECT_EQ(a.past_perturbed[0], static_cast<uint64_t>(round + 1));
    if (round + 1 <= 3) {
      EXPECT_TRUE(a.pi[0]);
    } else {
      EXPECT_FALSE(a.pi[0]);  // historically perturbed too often
    }
  }
}

TEST(AssessorTest, CustomModelInjection) {
  AdaptiveOptions o = Options();
  o.model = std::make_shared<stats::FixedRateModel>(1.0, 0);
  Assessor assessor(o);
  Monitor monitor(o);
  HybridJoinCore core((JoinSpec()));
  FeedPairs(&core, 2, 20);  // 2/22 matched against a rate-1.0 model
  const Assessment a = assessor.Assess(monitor, Progress(core));
  EXPECT_TRUE(a.model_assessed);
  EXPECT_TRUE(a.sigma);
  EXPECT_EQ(assessor.model().name(), "fixed_rate");
}

TEST(AdaptiveOptionsTest, Validation) {
  AdaptiveOptions o = Options();
  EXPECT_TRUE(o.Validate().ok());
  o.delta_adapt = 0;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o = Options();
  o.window = 0;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o = Options();
  o.theta_out = 1.2;
  EXPECT_TRUE(o.Validate().IsInvalidArgument());
  o = Options();
  o.policy = AdaptivePolicy::kScripted;
  o.script = {{100, ProcessorState::kLapRap}, {50, ProcessorState::kLexRex}};
  EXPECT_TRUE(o.Validate().IsInvalidArgument());  // unsorted
  std::swap(o.script[0], o.script[1]);
  EXPECT_TRUE(o.Validate().ok());
}

}  // namespace
}  // namespace adaptive
}  // namespace aqp
