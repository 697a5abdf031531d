// Scaled-down replication of the paper's §4 experiment, asserting the
// qualitative results the evaluation reports, on the served engine
// (ParallelAdaptiveJoin, via metrics::RunExperiment).

#include <gtest/gtest.h>

#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
#include "metrics/experiment.h"
#include "metrics/report.h"

namespace aqp {
namespace {

using datagen::PerturbationPattern;
using metrics::ExperimentOptions;
using metrics::ExperimentResult;

ExperimentOptions Scaled(PerturbationPattern pattern, bool both) {
  ExperimentOptions options;
  options.testcase.pattern = pattern;
  options.testcase.perturb_parent = both;
  options.testcase.variant_rate = 0.10;  // the paper's fixed 10%
  options.testcase.atlas.size = 500;     // scaled-down 8082
  options.testcase.accidents.size = 1000;
  options.testcase.seed = 20090326;
  options.sim_threshold = 0.85;
  options.adaptive.delta_adapt = 50;
  options.adaptive.window = 50;
  options.adaptive.theta_out = 0.05;
  options.adaptive.theta_curpert = 2;
  options.adaptive.theta_pastpert = 5;
  return options;
}

class PaperScenarioTest
    : public ::testing::TestWithParam<std::tuple<PerturbationPattern, bool>> {
};

TEST_P(PaperScenarioTest, QualitativeResultsHold) {
  const auto [pattern, both] = GetParam();
  auto result = metrics::RunExperiment(Scaled(pattern, both));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // §4.4: appreciable gain at a cost below all-approximate.
  EXPECT_GT(result->weighted.RelativeGain(), 0.25) << result->label;
  EXPECT_LT(result->weighted.c_abs, result->weighted.C) << result->label;
  // Efficiency above 1: each unit of relative cost buys more than a
  // unit of relative gain.
  EXPECT_GT(result->weighted.Efficiency(), 1.0) << result->label;
  // The adaptive run reacted at least once.
  EXPECT_GT(result->adaptive.total_transitions, 0u) << result->label;
  // A non-trivial share of steps still runs in cheap lex/rex
  // (the paper reports ~30%).
  EXPECT_GT(result->adaptive.StepShare(adaptive::ProcessorState::kLexRex),
            0.1)
      << result->label;
}

// The served engine at 4 shards: the adaptive run summarizes exactly
// as the 1-shard run the experiment harness uses, so every weighted
// claim above holds at 4 shards too.
TEST_P(PaperScenarioTest, FourShardsSummarizeAsOneShard) {
  const auto [pattern, both] = GetParam();
  const ExperimentOptions options = Scaled(pattern, both);
  auto tc = datagen::GenerateTestCase(options.testcase);
  ASSERT_TRUE(tc.ok());
  auto one = metrics::RunPolicy(*tc, options,
                                adaptive::AdaptivePolicy::kAdaptive,
                                adaptive::ProcessorState::kLexRex, nullptr);
  ASSERT_TRUE(one.ok()) << one.status().ToString();

  exec::parallel::ParallelJoinOptions four_shards =
      metrics::MakeJoinOptions(*tc, options);
  four_shards.num_shards = 4;
  four_shards.base.adaptive.policy = adaptive::AdaptivePolicy::kAdaptive;
  exec::RelationScan child(&tc->child);
  exec::RelationScan parent(&tc->parent);
  exec::parallel::ParallelAdaptiveJoin join(&child, &parent, four_shards);
  ASSERT_TRUE(exec::CountAll(&join).ok());
  const metrics::RunStats four = metrics::SummarizeRun(join, one->label, 0.0);

  EXPECT_EQ(four.result_pairs, one->result_pairs) << one->label;
  EXPECT_EQ(four.distinct_children_matched, one->distinct_children_matched)
      << one->label;
  EXPECT_EQ(four.steps_per_state, one->steps_per_state) << one->label;
  EXPECT_EQ(four.transitions_into, one->transitions_into) << one->label;
  EXPECT_GT(four.total_transitions, 0u) << one->label;
}

INSTANTIATE_TEST_SUITE_P(
    AllEightTestCases, PaperScenarioTest,
    ::testing::Combine(
        ::testing::Values(PerturbationPattern::kUniform,
                          PerturbationPattern::kLowIntensityRegions,
                          PerturbationPattern::kFewHighIntensityRegions,
                          PerturbationPattern::kManyHighIntensityRegions),
        ::testing::Bool()));

TEST(PaperScenarioReportTest, FigureRenderersWorkOnRealResults) {
  std::vector<ExperimentResult> results;
  for (PerturbationPattern pattern :
       {PerturbationPattern::kUniform,
        PerturbationPattern::kFewHighIntensityRegions}) {
    auto r = metrics::RunExperiment(Scaled(pattern, false));
    ASSERT_TRUE(r.ok());
    results.push_back(std::move(*r));
  }
  std::ostringstream os;
  metrics::PrintFig6GainCost(results, os);
  metrics::PrintFig7TimeBreakdown(results, os);
  metrics::PrintFig8CostBreakdown(results, adaptive::StateWeights::Paper(),
                                  os);
  metrics::WriteResultsCsv(results, os);
  EXPECT_GT(os.str().size(), 500u);
}

}  // namespace
}  // namespace aqp
