#include "metrics/run_stats.h"

#include <gtest/gtest.h>

#include "adaptive/adaptive_join.h"
#include "datagen/generator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"

namespace aqp {
namespace metrics {
namespace {

using adaptive::ProcessorState;
using adaptive::StateWeights;

TEST(RunStatsTest, WeightedCostMatchesHandComputation) {
  RunStats stats;
  stats.steps_per_state = {100, 0, 0, 10};
  stats.transitions_into = {0, 0, 0, 1};
  const double cost = stats.WeightedCost(StateWeights::Paper());
  EXPECT_DOUBLE_EQ(cost, 100.0 * 1.0 + 10.0 * 70.2 + 173.42);
}

TEST(RunStatsTest, StepShare) {
  RunStats stats;
  stats.total_steps = 200;
  stats.steps_per_state = {50, 0, 0, 150};
  EXPECT_DOUBLE_EQ(stats.StepShare(ProcessorState::kLexRex), 0.25);
  EXPECT_DOUBLE_EQ(stats.StepShare(ProcessorState::kLapRap), 0.75);
  RunStats empty;
  EXPECT_DOUBLE_EQ(empty.StepShare(ProcessorState::kLexRex), 0.0);
}

/// Checks one finished run's summary against the oracle's core.
void ExpectSummary(const exec::parallel::ParallelAdaptiveJoin& join,
                   size_t count, const join::HybridJoinCore& core,
                   uint64_t rows) {
  const RunStats stats = SummarizeRun(join, "test-run", 1.5);
  EXPECT_EQ(stats.label, "test-run");
  EXPECT_EQ(stats.result_pairs, count);
  EXPECT_EQ(stats.total_steps, rows);
  EXPECT_DOUBLE_EQ(stats.wall_seconds, 1.5);
  EXPECT_GT(stats.memory_bytes, 0u);
  EXPECT_GE(stats.peak_memory_bytes, stats.memory_bytes);
  EXPECT_EQ(stats.exact_pairs + stats.approx_pairs, stats.result_pairs);
  uint64_t sum = 0;
  for (uint64_t s : stats.steps_per_state) sum += s;
  EXPECT_EQ(sum, stats.total_steps);

  // Pairs, distinct children and catch-up are global: summed over the
  // shards they equal the oracle's.
  EXPECT_EQ(stats.result_pairs, core.pairs_emitted());
  EXPECT_EQ(stats.approx_pairs, core.approximate_pairs());
  EXPECT_EQ(stats.distinct_children_matched,
            core.distinct_matched(exec::Side::kLeft));
  EXPECT_EQ(stats.catchup_tuples, core.catchup_tuples());
  if (join.num_shards() == 1) {
    // One shard probes one index, as the oracle does.
    EXPECT_EQ(stats.probe.postings_scanned,
              core.approx_probe_stats().postings_scanned);
    EXPECT_EQ(stats.probe.matches, core.approx_probe_stats().matches);
  }
}

TEST(RunStatsTest, SummarizeRunCapturesCore) {
  datagen::TestCaseOptions options;
  options.atlas.size = 150;
  options.accidents.size = 300;
  options.variant_rate = 0.1;
  auto tc = datagen::GenerateTestCase(options);
  ASSERT_TRUE(tc.ok());

  adaptive::AdaptiveJoinOptions jo;
  jo.join.spec.left_column = datagen::kAccidentsLocationColumn;
  jo.join.spec.right_column = datagen::kAtlasLocationColumn;
  jo.adaptive.parent_side = exec::Side::kRight;
  jo.adaptive.parent_table_size = tc->parent.size();
  jo.adaptive.delta_adapt = 40;
  jo.adaptive.window = 40;
  // The single-threaded oracle on the same input.
  exec::RelationScan oracle_child(&tc->child);
  exec::RelationScan oracle_parent(&tc->parent);
  adaptive::AdaptiveJoin oracle(&oracle_child, &oracle_parent, jo);
  ASSERT_TRUE(exec::CountAll(&oracle).ok());
  const join::HybridJoinCore& core = oracle.core();
  ASSERT_GT(oracle.trace().transition_count(), 0u);

  for (size_t shards : {1, 4}) {
    SCOPED_TRACE(shards);
    exec::parallel::ParallelJoinOptions po;
    po.num_shards = shards;
    po.base = jo;
    exec::RelationScan child(&tc->child);
    exec::RelationScan parent(&tc->parent);
    exec::parallel::ParallelAdaptiveJoin join(&child, &parent, po);
    auto count = exec::CountAll(&join);
    ASSERT_TRUE(count.ok());
    ExpectSummary(join, *count, core, tc->child.size() + tc->parent.size());
  }
}

}  // namespace
}  // namespace metrics
}  // namespace aqp
