#include "metrics/experiment.h"

#include <gtest/gtest.h>

namespace aqp {
namespace metrics {
namespace {

ExperimentOptions SmallExperiment() {
  ExperimentOptions options;
  options.testcase.atlas.size = 200;
  options.testcase.accidents.size = 400;
  options.testcase.variant_rate = 0.15;
  options.testcase.seed = 4242;
  options.adaptive.delta_adapt = 40;
  options.adaptive.window = 40;
  return options;
}

TEST(ExperimentTest, RunsAllThreePolicies) {
  auto result = RunExperiment(SmallExperiment());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->label, "uniform/child");
  // Ordering invariants.
  EXPECT_LE(result->weighted.r, result->weighted.r_abs);
  EXPECT_LE(result->weighted.r_abs, result->weighted.R);
  EXPECT_LE(result->weighted.c, result->weighted.C);
  // Baselines spend all steps in their pinned state.
  EXPECT_EQ(result->all_exact.steps_per_state[0],
            result->all_exact.total_steps);
  EXPECT_EQ(result->all_approx.steps_per_state[3],
            result->all_approx.total_steps);
}

TEST(ExperimentTest, CompletenessOrdering) {
  auto result = RunExperiment(SmallExperiment());
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->exact_completeness, result->adaptive_completeness);
  EXPECT_LE(result->adaptive_completeness, result->approx_completeness);
  // All-approximate recovers essentially every child.
  EXPECT_GT(result->approx_completeness, 0.99);
  // All-exact misses the variants.
  EXPECT_LT(result->exact_completeness, 0.9);
}

TEST(ExperimentTest, AdaptiveGainIsMeaningful) {
  auto result = RunExperiment(SmallExperiment());
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->weighted.RelativeGain(), 0.3);
  EXPECT_GT(result->weighted.Efficiency(), 1.0);
  EXPECT_GT(result->trace.transition_count(), 0u);
}

TEST(ExperimentTest, CleanCaseStaysCheapAndComplete) {
  ExperimentOptions options = SmallExperiment();
  options.testcase.variant_rate = 0.0;
  auto result = RunExperiment(options);
  ASSERT_TRUE(result.ok());
  // θ_out = 0.05 is a 5% false-positive budget per assessment, so a
  // clean run may still briefly visit approximate states before ϕ0
  // reverts it; the run must remain dominated by lex/rex and far
  // cheaper than the all-approximate baseline.
  EXPECT_GT(result->adaptive.StepShare(adaptive::ProcessorState::kLexRex),
            0.8);
  EXPECT_LT(result->weighted.c_abs, 0.2 * result->weighted.C);
  EXPECT_DOUBLE_EQ(result->exact_completeness, 1.0);
  EXPECT_DOUBLE_EQ(result->adaptive_completeness, 1.0);
}

TEST(ExperimentTest, MakeJoinOptionsWiresChildLeftParentRight) {
  auto tc = datagen::GenerateTestCase(SmallExperiment().testcase);
  ASSERT_TRUE(tc.ok());
  const auto po = MakeJoinOptions(*tc, SmallExperiment());
  EXPECT_EQ(po.num_shards, 1u);
  const adaptive::AdaptiveJoinOptions& jo = po.base;
  EXPECT_EQ(jo.join.spec.left_column, datagen::kAccidentsLocationColumn);
  EXPECT_EQ(jo.join.spec.right_column, datagen::kAtlasLocationColumn);
  EXPECT_EQ(jo.adaptive.parent_side, exec::Side::kRight);
  EXPECT_EQ(jo.adaptive.parent_table_size, tc->parent.size());
}

}  // namespace
}  // namespace metrics
}  // namespace aqp
