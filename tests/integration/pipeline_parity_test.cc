// Pipelined ingest moves *when* routing work happens — overlapped with
// the previous epoch's phases instead of serialized before its own —
// and must change nothing else. These tests pin the contract: the
// output row sequence and the adaptation trace are byte-identical to
// the single-threaded AdaptiveJoin, for every shard count, child batch
// size, control policy, and drive mode — and the deadline governor,
// cancellation, and recoverable ingest faults observe the exact
// control points the adaptive policy defines and leave strict-prefix
// partial results.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adaptive/adaptive_join.h"
#include "common/failpoint.h"
#include "datagen/generator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"

namespace aqp {
namespace {

using adaptive::AdaptiveJoin;
using adaptive::AdaptiveJoinOptions;
using exec::parallel::EpochDirective;
using exec::parallel::EpochView;
using exec::parallel::FaultPolicy;
using exec::parallel::ParallelAdaptiveJoin;
using exec::parallel::ParallelJoinOptions;
using exec::parallel::ParallelMatchRef;

constexpr size_t kShardCounts[] = {1, 2, 4, 8};
constexpr size_t kBatchSizes[] = {1, 7, 64, 256};

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

AdaptiveJoinOptions BaseOptions(const datagen::TestCase& tc) {
  AdaptiveJoinOptions options;
  options.join.spec.left_column = datagen::kAccidentsLocationColumn;
  options.join.spec.right_column = datagen::kAtlasLocationColumn;
  options.join.spec.sim_threshold = 0.85;
  options.adaptive.parent_side = exec::Side::kRight;
  options.adaptive.parent_table_size = tc.parent.size();
  options.adaptive.delta_adapt = 50;
  options.adaptive.window = 50;
  return options;
}

struct ReferenceRun {
  storage::Relation result;
  adaptive::AdaptationTrace trace;
  uint64_t steps = 0;
};

ReferenceRun RunSingleThreaded(const datagen::TestCase& tc,
                               AdaptiveJoinOptions options) {
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  AdaptiveJoin join(&child, &parent, options);
  auto result = exec::CollectAll(&join);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  ReferenceRun run;
  run.result = std::move(*result);
  run.trace = join.trace();
  run.steps = join.steps();
  return run;
}

void ExpectSameTrace(const adaptive::AdaptationTrace& actual,
                     const adaptive::AdaptationTrace& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual.records()[i], expected.records()[i])
        << "assessment " << i;
  }
}

void ExpectSameRows(const storage::Relation& actual,
                    const storage::Relation& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual.row(i), expected.row(i)) << "row " << i;
  }
}

/// `actual` is a strict prefix of `expected` (shorter, and identical
/// row for row as far as it goes).
void ExpectStrictPrefixRows(const storage::Relation& actual,
                            const storage::Relation& expected) {
  ASSERT_LT(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual.row(i), expected.row(i)) << "row " << i;
  }
}

/// Runs the parallel join over the test case and collects rows.
struct ParallelRun {
  storage::Relation result;
  adaptive::AdaptationTrace trace;
  uint64_t steps = 0;
  uint64_t staged = 0;
  uint64_t coordinator_routed = 0;
  Status status;
};

ParallelRun RunParallel(const datagen::TestCase& tc,
                        ParallelJoinOptions options) {
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelAdaptiveJoin join(&child, &parent, options);
  ParallelRun run;
  auto result = exec::CollectAll(&join);
  if (result.ok()) {
    run.result = std::move(*result);
  } else {
    run.status = result.status();
  }
  run.trace = join.trace();
  run.steps = join.steps();
  run.staged = join.ingest_stats().epochs_staged;
  run.coordinator_routed = join.ingest_stats().epochs_routed_serially;
  return run;
}

TEST(PipelineParityTest, EveryShardAndBatchSizeMatchesSerialAndReference) {
  const datagen::TestCase tc = PaperCase();
  const ReferenceRun reference = RunSingleThreaded(tc, BaseOptions(tc));
  ASSERT_GT(reference.result.size(), 0u);
  ASSERT_GT(reference.trace.size(), 0u);
  for (size_t shards : kShardCounts) {
    for (size_t batch : kBatchSizes) {
      SCOPED_TRACE(testing::Message()
                   << "shards=" << shards << " batch=" << batch);
      ParallelJoinOptions options;
      options.base = BaseOptions(tc);
      options.base.join.batch_size = batch;
      options.num_shards = shards;

      const ParallelRun pipelined = RunParallel(tc, options);
      ASSERT_TRUE(pipelined.status.ok()) << pipelined.status.ToString();
      // The pipeline must actually engage (the first epoch is routed on
      // the coordinator; everything after it stages ahead).
      EXPECT_GT(pipelined.staged, 0u);
      EXPECT_EQ(pipelined.coordinator_routed, 1u);

      EXPECT_EQ(pipelined.steps, reference.steps);
      ExpectSameRows(pipelined.result, reference.result);
      ExpectSameTrace(pipelined.trace, reference.trace);
    }
  }
}

TEST(PipelineParityTest, PinnedAndScriptedPoliciesAgreeWhenPipelined) {
  const datagen::TestCase tc = PaperCase();

  // Pinned: exercise an odd epoch length, not just power-of-two ones.
  for (adaptive::ProcessorState state :
       {adaptive::ProcessorState::kLexRex,
        adaptive::ProcessorState::kLapRap}) {
    AdaptiveJoinOptions base = BaseOptions(tc);
    base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
    base.adaptive.initial_state = state;
    const ReferenceRun reference = RunSingleThreaded(tc, base);
    for (size_t shards : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(testing::Message()
                   << "state=" << adaptive::ProcessorStateName(state)
                   << " shards=" << shards);
      ParallelJoinOptions options;
      options.base = base;
      options.num_shards = shards;
      options.unbounded_epoch_steps = 173;
      const ParallelRun run = RunParallel(tc, options);
      ASSERT_TRUE(run.status.ok()) << run.status.ToString();
      EXPECT_GT(run.staged, 0u);
      ExpectSameRows(run.result, reference.result);
      EXPECT_EQ(run.trace.size(), 0u);
    }
  }

  // Scripted: every scripted transition lands at its step inside a
  // staged epoch, including the tail after the last one.
  AdaptiveJoinOptions base = BaseOptions(tc);
  base.adaptive.policy = adaptive::AdaptivePolicy::kScripted;
  base.adaptive.script = {
      {120, adaptive::ProcessorState::kLapRex},
      {300, adaptive::ProcessorState::kLapRap},
      {700, adaptive::ProcessorState::kLexRex},
  };
  const ReferenceRun reference = RunSingleThreaded(tc, base);
  ASSERT_EQ(reference.trace.size(), 3u);
  for (size_t shards : kShardCounts) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ParallelJoinOptions options;
    options.base = base;
    options.num_shards = shards;
    const ParallelRun run = RunParallel(tc, options);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    EXPECT_GT(run.staged, 0u);
    ExpectSameRows(run.result, reference.result);
    ExpectSameTrace(run.trace, reference.trace);
  }
}

TEST(PipelineParityTest, AllDriveModesAgreeWhenPipelined) {
  const datagen::TestCase tc = PaperCase();
  const ReferenceRun reference = RunSingleThreaded(tc, BaseOptions(tc));

  ParallelJoinOptions options;
  options.base = BaseOptions(tc);
  options.num_shards = 4;

  // Column batches of one row each.
  {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelAdaptiveJoin join(&child, &parent, options);
    ASSERT_TRUE(join.Open().ok());
    storage::Relation collected(join.output_schema());
    storage::ColumnBatch batch(&join.output_schema(), 1);
    while (true) {
      Status status = join.NextColumnBatch(&batch);
      ASSERT_TRUE(status.ok()) << status.ToString();
      if (batch.empty()) break;
      collected.AppendBatch(std::move(batch));
    }
    EXPECT_GT(join.ingest_stats().epochs_staged, 0u);
    ASSERT_TRUE(join.Close().ok());
    ExpectSameRows(collected, reference.result);
    ExpectSameTrace(join.trace(), reference.trace);
  }

  // Match-ref protocol, materialized at the sink.
  {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelAdaptiveJoin join(&child, &parent, options);
    ASSERT_TRUE(join.Open().ok());
    storage::Relation collected(join.output_schema());
    std::vector<ParallelMatchRef> refs;
    while (true) {
      ASSERT_TRUE(join.NextMatchRefs(97, &refs).ok());
      if (refs.empty()) break;
      storage::ColumnBatch batch(&join.output_schema(), refs.size());
      for (const ParallelMatchRef& ref : refs) {
        join.MaterializeRefInto(ref, &batch);
      }
      collected.AppendBatch(std::move(batch));
    }
    ASSERT_TRUE(join.Close().ok());
    ExpectSameRows(collected, reference.result);
    ExpectSameTrace(join.trace(), reference.trace);
  }

  // Counting drain: no row is ever materialized.
  {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelAdaptiveJoin join(&child, &parent, options);
    auto count = exec::CountAll(&join);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(*count, reference.result.size());
    ExpectSameTrace(join.trace(), reference.trace);
  }
}

TEST(PipelineParityTest, HardDeadlineMidStageLeavesIdenticalPrefix) {
  // A kFinalize directive lands at a swap point where the next epoch
  // is already staged; the staged (uncommitted) epoch must be drained
  // and discarded, leaving exactly the rows of the committed epochs.
  const datagen::TestCase tc = PaperCase();
  const ReferenceRun full = RunSingleThreaded(tc, BaseOptions(tc));
  ASSERT_GT(full.steps, 500u);

  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelJoinOptions options;
  options.base = BaseOptions(tc);
  options.num_shards = 4;
  // 128-step epochs: the 1,200-step input then stages several epochs,
  // and step 400 falls inside the fourth one while the fifth is staged.
  options.unbounded_epoch_steps = 128;
  options.governor = [](const EpochView& view) {
    return view.steps >= 400 ? EpochDirective::kFinalize
                             : EpochDirective::kProceed;
  };
  ParallelAdaptiveJoin join(&child, &parent, options);
  auto result = exec::CollectAll(&join);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(join.finalized_early());
  // Control points fall every δ_adapt = 50 steps, so the first one
  // the governor sees at or past step 400 is step 400 itself, and the
  // merge cuts the epoch there.
  EXPECT_EQ(join.steps(), 400u);
  EXPECT_GT(join.ingest_stats().epochs_staged, 0u);
  ExpectStrictPrefixRows(*result, full.result);
}

TEST(PipelineParityTest, HardDeadlineInTheLastEpochIsStillEarly) {
  // The last 512-step epoch, [1024, 1200), routes the rest of the input
  // and discovers both ends of stream. A hard deadline at step 1150
  // cuts it there: the run ends early, and the ends of stream found
  // past the cut are not reported.
  const datagen::TestCase tc = PaperCase();
  const ReferenceRun full = RunSingleThreaded(tc, BaseOptions(tc));
  ASSERT_EQ(full.steps, 1200u);
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelJoinOptions options;
  options.base = BaseOptions(tc);
  options.num_shards = 2;
  options.unbounded_epoch_steps = 512;
  options.governor = [](const EpochView& view) {
    return view.steps >= 1150 ? EpochDirective::kFinalize
                              : EpochDirective::kProceed;
  };
  ParallelAdaptiveJoin join(&child, &parent, options);
  auto result = exec::CollectAll(&join);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(join.steps(), 1150u);
  EXPECT_TRUE(join.finalized_early());
  ExpectStrictPrefixRows(*result, full.result);
}

TEST(PipelineParityTest, CancellationMidStageDiscardsStagedEpochCleanly) {
  const datagen::TestCase tc = PaperCase();
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelJoinOptions options;
  options.base = BaseOptions(tc);
  options.num_shards = 4;
  options.governor = [](const EpochView& view) {
    return view.steps >= 300 ? EpochDirective::kCancel
                             : EpochDirective::kProceed;
  };
  ParallelAdaptiveJoin join(&child, &parent, options);
  ASSERT_TRUE(join.Open().ok());
  storage::ColumnBatch batch(&join.output_schema(), 64);
  Status status;
  while (status.ok()) {
    status = join.NextColumnBatch(&batch);
    if (status.ok()) ASSERT_FALSE(batch.empty()) << "EOS before cancel";
  }
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  // Cancellation fires at a control point: δ_adapt = 50 puts the first
  // one at or past step 300 at exactly step 300, inside the epoch.
  EXPECT_EQ(join.steps(), 300u);
  // The error is sticky, and Close still succeeds with the in-flight
  // staged epoch abandoned.
  EXPECT_TRUE(join.NextColumnBatch(&batch).IsCancelled());
  EXPECT_TRUE(join.Close().ok());
}

class PipelineFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fail::kCompiledIn) {
      GTEST_SKIP() << "failpoints compiled out (AQP_ENABLE_FAILPOINTS off)";
    }
    fail::DisarmAll();
  }
  void TearDown() override { fail::DisarmAll(); }
};

TEST_F(PipelineFaultTest, StageFaultDegradesToStrictPrefixWithReport) {
  // An ingest fault on the staging task (site exchange.stage, only
  // evaluated by StageEpoch) must discard the staged epoch
  // without corrupting the active one: under kFinalizePartial the run
  // degrades to a strict prefix of the clean result plus a FaultReport
  // naming the site, with the active epoch's output intact.
  const datagen::TestCase tc = PaperCase();
  const ReferenceRun clean = RunSingleThreaded(tc, BaseOptions(tc));
  ASSERT_GT(clean.result.size(), 0u);

  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelJoinOptions options;
  options.base = BaseOptions(tc);
  options.num_shards = 4;
  options.on_fault = FaultPolicy::kFinalizePartial;
  // 128-step epochs, so the 1,200-step input stages a third epoch.
  options.unbounded_epoch_steps = 128;
  ParallelAdaptiveJoin join(&child, &parent, options);
  fail::ScopedFailpoint guard(
      fail::site::kExchangeStage,
      fail::Policy::OnNthHit(3, Status::IOError("disk hiccup")));
  auto result = exec::CollectAll(&join);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(join.finalized_early());
  ExpectStrictPrefixRows(*result, clean.result);
  ASSERT_TRUE(join.fault().has_value());
  EXPECT_EQ(join.fault()->site, std::string(fail::site::kExchangeStage));
  EXPECT_EQ(join.fault()->shard, -1);
  EXPECT_GT(join.fault()->epoch, 0u);
  // The reported step count is the published one — every counted step
  // belongs to a committed, merged epoch whose output was delivered.
  EXPECT_EQ(join.fault()->step, join.steps());
}

TEST_F(PipelineFaultTest, StageFaultIsStickyUnderFailPolicy) {
  const datagen::TestCase tc = PaperCase();
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelJoinOptions options;
  options.base = BaseOptions(tc);
  options.num_shards = 2;
  options.on_fault = FaultPolicy::kFail;
  // 256-step epochs (then 512-step ones), so the 1,200-step input
  // stages a second epoch.
  options.unbounded_epoch_steps = 256;
  ParallelAdaptiveJoin join(&child, &parent, options);
  fail::ScopedFailpoint guard(
      fail::site::kExchangeStage,
      fail::Policy::OnNthHit(2, Status::IOError("disk hiccup")));
  auto result = exec::CollectAll(&join);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
  EXPECT_NE(result.status().ToString().find("site=exchange.stage"),
            std::string::npos)
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("epoch="), std::string::npos);
}

}  // namespace
}  // namespace aqp
