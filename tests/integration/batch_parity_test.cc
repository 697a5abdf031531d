// Batched and tuple-at-a-time execution must be indistinguishable in
// everything but speed: identical join output (same rows, same order)
// and an identical MAR adaptation trace on the paper scenario, for any
// batch size. The engine guarantees this by rounding step-batch edges
// to the control loop's δ_adapt boundaries.

#include <gtest/gtest.h>

#include "adaptive/adaptive_join.h"
#include "datagen/generator.h"
#include "exec/scan.h"
#include "join/match_batch.h"
#include "metrics/experiment.h"

namespace aqp {
namespace {

using adaptive::AdaptiveJoin;
using adaptive::AdaptiveJoinOptions;

struct ParityRun {
  storage::Relation result;
  adaptive::AdaptationTrace trace;
  uint64_t steps = 0;
  uint64_t total_transitions = 0;
  uint64_t monitor_steps = 0;
  uint64_t pairs_emitted = 0;
};

datagen::TestCase PaperCase() {
  datagen::TestCaseOptions options;
  options.pattern = datagen::PerturbationPattern::kFewHighIntensityRegions;
  options.perturb_parent = false;
  options.variant_rate = 0.10;
  options.atlas.size = 400;
  options.accidents.size = 800;
  options.seed = 20090326;
  auto tc = datagen::GenerateTestCase(options);
  EXPECT_TRUE(tc.ok());
  return std::move(*tc);
}

ParityRun RunParity(const datagen::TestCase& tc, size_t join_batch_size,
              size_t drain_batch_size) {
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  AdaptiveJoinOptions options;
  options.join.spec.left_column = datagen::kAccidentsLocationColumn;
  options.join.spec.right_column = datagen::kAtlasLocationColumn;
  options.join.spec.sim_threshold = 0.85;
  options.join.batch_size = join_batch_size;
  options.adaptive.parent_side = exec::Side::kRight;
  options.adaptive.parent_table_size = tc.parent.size();
  options.adaptive.delta_adapt = 50;
  options.adaptive.window = 50;
  AdaptiveJoin join(&child, &parent, options);
  EXPECT_TRUE(join.Open().ok());
  ParityRun run;
  run.result = storage::Relation(join.output_schema());
  storage::ColumnBatch batch(&join.output_schema(), drain_batch_size);
  while (true) {
    Status status = join.NextColumnBatch(&batch);
    EXPECT_TRUE(status.ok()) << status.ToString();
    if (!status.ok() || batch.empty()) break;
    EXPECT_TRUE(batch.Validate().ok());
    run.result.AppendBatch(std::move(batch));
  }
  EXPECT_TRUE(join.Close().ok());
  run.trace = join.trace();
  run.steps = join.steps();
  run.total_transitions = join.cost().total_transitions();
  run.monitor_steps = join.monitor().steps();
  run.pairs_emitted = join.core().pairs_emitted();
  return run;
}

void ExpectIdentical(const ParityRun& a, const ParityRun& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.monitor_steps, b.monitor_steps);
  EXPECT_EQ(a.pairs_emitted, b.pairs_emitted);
  EXPECT_EQ(a.total_transitions, b.total_transitions);

  // Identical match sets — in fact identical sequences, byte for byte.
  ASSERT_EQ(a.result.size(), b.result.size());
  for (size_t i = 0; i < a.result.size(); ++i) {
    ASSERT_EQ(a.result.row(i), b.result.row(i)) << "row " << i;
  }

  // Identical MAR timelines: every assessment, predicate, and
  // transition at the same step with the same evidence.
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace.records()[i], b.trace.records()[i])
        << "assessment " << i;
  }
}

TEST(BatchParityTest, BatchSize1024MatchesTupleAtATime) {
  const datagen::TestCase tc = PaperCase();
  const ParityRun tuple_wise = RunParity(tc, 1, 1);
  ASSERT_GT(tuple_wise.result.size(), 0u);
  ASSERT_GT(tuple_wise.trace.size(), 0u);
  // The scenario must actually adapt, or the parity claim is vacuous.
  ASSERT_GT(tuple_wise.total_transitions, 0u);
  // 7 and 64 stagger against δ_adapt = 50; the smaller sizes keep the
  // spill path (steps producing more refs than the batch has room for)
  // busy.
  for (size_t batch_size :
       {size_t{1}, size_t{7}, size_t{64}, size_t{256}, size_t{1024}}) {
    SCOPED_TRACE(testing::Message() << "batch_size=" << batch_size);
    ExpectIdentical(tuple_wise, RunParity(tc, batch_size, batch_size));
  }
}

TEST(BatchParityTest, OddBatchSizesAgreeToo) {
  const datagen::TestCase tc = PaperCase();
  // 7 never divides δ_adapt = 50, so batch edges must be rounded to
  // the control boundary mid-batch; 64 staggers against it differently.
  const ParityRun a = RunParity(tc, 7, 33);
  const ParityRun b = RunParity(tc, 64, 256);
  ExpectIdentical(a, b);
}

TEST(BatchParityTest, ScriptedPolicyFiresAtSameStepsUnderBatching) {
  const datagen::TestCase tc = PaperCase();
  auto run_scripted = [&](size_t batch_size) {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    AdaptiveJoinOptions options;
    options.join.spec.left_column = datagen::kAccidentsLocationColumn;
    options.join.spec.right_column = datagen::kAtlasLocationColumn;
    options.join.batch_size = batch_size;
    options.adaptive.policy = adaptive::AdaptivePolicy::kScripted;
    options.adaptive.script = {
        {120, adaptive::ProcessorState::kLapRex},
        {300, adaptive::ProcessorState::kLapRap},
        {700, adaptive::ProcessorState::kLexRex},
    };
    options.adaptive.parent_side = exec::Side::kRight;
    options.adaptive.parent_table_size = tc.parent.size();
    AdaptiveJoin join(&child, &parent, options);
    auto result = exec::CollectAll(&join);
    EXPECT_TRUE(result.ok());
    return join.trace();
  };
  const adaptive::AdaptationTrace one = run_scripted(1);
  const adaptive::AdaptationTrace big = run_scripted(512);
  ASSERT_EQ(one.size(), 3u);
  ASSERT_EQ(big.size(), one.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one.records()[i], big.records()[i]) << "transition " << i;
  }
  EXPECT_EQ(one.records()[0].assessment.step, 120u);
  EXPECT_EQ(one.records()[1].assessment.step, 300u);
  EXPECT_EQ(one.records()[2].assessment.step, 700u);
}

AdaptiveJoinOptions ParityOptions(const datagen::TestCase& tc,
                                  size_t join_batch_size) {
  AdaptiveJoinOptions options;
  options.join.spec.left_column = datagen::kAccidentsLocationColumn;
  options.join.spec.right_column = datagen::kAtlasLocationColumn;
  options.join.spec.sim_threshold = 0.85;
  options.join.batch_size = join_batch_size;
  options.adaptive.parent_side = exec::Side::kRight;
  options.adaptive.parent_table_size = tc.parent.size();
  options.adaptive.delta_adapt = 50;
  options.adaptive.window = 50;
  return options;
}

TEST(BatchParityTest, LateMaterializedPathsMatchColumnBatches) {
  // The three drive modes of the late-materialized engine — column
  // batches (NextColumnBatch), native match batches materialized at
  // the sink, and the unmaterialized counting drain — must be
  // indistinguishable: byte-identical rows where rows exist, identical
  // row counts, and identical adaptation traces.
  const datagen::TestCase tc = PaperCase();
  const ParityRun rows = RunParity(tc, 64, 256);
  ASSERT_GT(rows.result.size(), 0u);
  ASSERT_GT(rows.total_transitions, 0u);

  // Native protocol: pull MatchRef batches, concatenate at the sink.
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  AdaptiveJoin match_join(&child, &parent, ParityOptions(tc, 64));
  ASSERT_TRUE(match_join.Open().ok());
  storage::Relation collected(match_join.output_schema());
  join::MatchBatch refs(256);
  while (true) {
    ASSERT_TRUE(match_join.NextMatchBatch(&refs).ok());
    if (refs.empty()) break;
    storage::ColumnBatch batch(&match_join.output_schema(), refs.size());
    match_join.MaterializeInto(refs, &batch);
    collected.AppendBatch(std::move(batch));
  }
  ASSERT_TRUE(match_join.Close().ok());
  ASSERT_EQ(collected.size(), rows.result.size());
  for (size_t i = 0; i < collected.size(); ++i) {
    ASSERT_EQ(collected.row(i), rows.result.row(i)) << "row " << i;
  }
  ASSERT_EQ(match_join.trace().size(), rows.trace.size());
  for (size_t i = 0; i < rows.trace.size(); ++i) {
    EXPECT_EQ(match_join.trace().records()[i], rows.trace.records()[i])
        << "assessment " << i;
  }

  // Counting drain: CountAll takes the UnmaterializedCounter fast
  // path — no row is ever built, everything else is identical.
  exec::RelationScan child2(&tc.child);
  exec::RelationScan parent2(&tc.parent);
  AdaptiveJoin count_join(&child2, &parent2, ParityOptions(tc, 64));
  exec::ExecOptions drain;
  drain.batch_size = 256;
  auto count = exec::CountAll(&count_join, drain);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, rows.result.size());
  ASSERT_EQ(count_join.trace().size(), rows.trace.size());
  for (size_t i = 0; i < rows.trace.size(); ++i) {
    EXPECT_EQ(count_join.trace().records()[i], rows.trace.records()[i])
        << "assessment " << i;
  }
}

TEST(BatchParityTest, FullExperimentHarnessUnchangedByBatchedDrains) {
  // The §4 harness (which drives everything through CountAll) must
  // report the same step counts whether its joins batch or not; this
  // guards the paper-replication figures against batching regressions.
  metrics::ExperimentOptions options;
  options.testcase.pattern = datagen::PerturbationPattern::kUniform;
  options.testcase.atlas.size = 300;
  options.testcase.accidents.size = 600;
  options.testcase.seed = 20090326;
  options.adaptive.delta_adapt = 50;
  options.adaptive.window = 50;
  auto result = metrics::RunExperiment(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->adaptive.total_steps, 900u);
}

}  // namespace
}  // namespace aqp
