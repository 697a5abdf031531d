// The partition-parallel join must be indistinguishable from the
// single-threaded AdaptiveJoin in everything but wall time: identical
// output row *sequences* (not just multisets — the deterministic shard
// merge order reproduces the single-threaded probes' ascending-
// stored-id order) and byte-identical adaptation traces, for every
// shard count, batch size, drive mode, control policy, and §4 case.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "adaptive/adaptive_join.h"
#include "datagen/generator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"

namespace aqp {
namespace {

using adaptive::AdaptiveJoin;
using adaptive::AdaptiveJoinOptions;
using exec::parallel::ParallelAdaptiveJoin;
using exec::parallel::ParallelJoinOptions;
using exec::parallel::ParallelMatchRef;

constexpr size_t kShardCounts[] = {1, 2, 4, 8};
/// Epoch lengths: control points (every δ_adapt = 50 steps) fall inside
/// epochs and on their edges, and the default length holds several.
const uint64_t kEpochSteps[] = {7, 173,
                                ParallelJoinOptions().unbounded_epoch_steps};

datagen::TestCaseOptions PaperCaseOptions() {
  datagen::TestCaseOptions options;
  options.pattern = datagen::PerturbationPattern::kFewHighIntensityRegions;
  options.perturb_parent = false;
  options.variant_rate = 0.10;
  options.atlas.size = 400;
  options.accidents.size = 800;
  options.seed = 20090326;
  return options;
}

datagen::TestCase PaperCase() {
  auto tc = datagen::GenerateTestCase(PaperCaseOptions());
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
  uint64_t pairs = 0;
  uint64_t transitions = 0;
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
  run.pairs = join.core().pairs_emitted();
  run.transitions = join.cost().total_transitions();
  return run;
}

/// Steps of the trace's transitions, in order.
std::vector<uint64_t> TransitionSteps(const adaptive::AdaptationTrace& trace) {
  std::vector<uint64_t> steps;
  for (const adaptive::AssessmentRecord& record : trace.records()) {
    if (record.transitioned()) steps.push_back(record.assessment.step);
  }
  return steps;
}

/// The end steps of the epochs ParallelAdaptiveJoin's schedule gives a
/// run of `steps` steps whose transitions fall at `transitions`: every
/// epoch `base` steps long with one shard. With several, the epoch
/// staged while epoch e runs (e >= 1) is 2 × `base` long unless a
/// transition fell in (start of epoch e − 1, start of epoch e], and
/// the first two epochs are `base` long.
std::vector<uint64_t> ExpectedEpochEnds(
    uint64_t steps, uint64_t base, size_t shards,
    const std::vector<uint64_t>& transitions) {
  std::vector<uint64_t> ends;
  uint64_t previous_start = 0;
  uint64_t start = 0;
  uint64_t length = base;
  while (start < steps) {
    ends.push_back(std::min(start + length, steps));
    // The next epoch is staged after this one's boundary control point.
    const bool transitioned = std::any_of(
        transitions.begin(), transitions.end(),
        [&](uint64_t t) { return t > previous_start && t <= start; });
    const bool settled = shards > 1 && ends.size() > 1 && !transitioned;
    previous_start = start;
    start += length;
    length = settled ? 2 * base : base;
  }
  return ends;
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

TEST(ParallelParityTest, EveryShardCountMatchesSingleThreadedAdaptive) {
  // All eight §4 cases: four perturbation patterns, child-only and both
  // inputs perturbed.
  for (const datagen::TestCaseOptions& case_options :
       datagen::PaperTestMatrix(PaperCaseOptions())) {
    auto tc = datagen::GenerateTestCase(case_options);
    ASSERT_TRUE(tc.ok()) << tc.status().ToString();
    const ReferenceRun reference = RunSingleThreaded(*tc, BaseOptions(*tc));
    ASSERT_GT(reference.result.size(), 0u);
    ASSERT_GT(reference.trace.size(), 0u);
    // Every case must actually adapt, or the parity claim is vacuous.
    ASSERT_GT(reference.transitions, 0u) << case_options.Label();

    for (size_t shards : kShardCounts) {
      for (uint64_t epoch_steps : kEpochSteps) {
        exec::RelationScan child(&tc->child);
        exec::RelationScan parent(&tc->parent);
        ParallelJoinOptions options;
        options.base = BaseOptions(*tc);
        options.num_shards = shards;
        options.unbounded_epoch_steps = epoch_steps;
        ParallelAdaptiveJoin join(&child, &parent, options);
        auto result = exec::CollectAll(&join);
        ASSERT_TRUE(result.ok()) << result.status().ToString();

        SCOPED_TRACE(testing::Message() << case_options.Label()
                                        << " shards=" << shards
                                        << " epoch=" << epoch_steps);
        EXPECT_EQ(join.steps(), reference.steps);
        EXPECT_EQ(join.pairs_emitted(), reference.pairs);
        EXPECT_EQ(join.monitor().steps(), reference.steps);
        EXPECT_EQ(join.cost().total_transitions(), reference.transitions);
        EXPECT_EQ(join.epochs_completed(),
                  ExpectedEpochEnds(reference.steps, epoch_steps, shards,
                                    TransitionSteps(reference.trace))
                      .size());
        ExpectSameRows(*result, reference.result);
        ExpectSameTrace(join.trace(), reference.trace);
      }
    }
  }
}

// The served drain (LinkageService::RunAttempt): NextColumnBatch at
// the query's drain_batch, each batch moved into a columnar Relation.
// Rows and the adaptation trace must not depend on the batch size.
TEST(ParallelParityTest, ServedDrainBatchSizesKeepRowsAndTraces) {
  const datagen::TestCase tc = PaperCase();
  const ReferenceRun reference = RunSingleThreaded(tc, BaseOptions(tc));
  for (size_t drain : {size_t{1}, size_t{16}, size_t{256}}) {
    SCOPED_TRACE(testing::Message() << "drain " << drain);
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelJoinOptions options;
    options.base = BaseOptions(tc);
    options.num_shards = 4;
    ParallelAdaptiveJoin join(&child, &parent, options);
    ASSERT_TRUE(join.Open().ok());
    storage::Relation collected(join.output_schema());
    storage::ColumnBatch batch(&join.output_schema(), drain);
    while (true) {
      Status status = join.NextColumnBatch(&batch);
      ASSERT_TRUE(status.ok()) << status.ToString();
      if (batch.empty()) break;
      ASSERT_LE(batch.size(), drain);
      collected.AppendBatch(std::move(batch));
    }
    ASSERT_TRUE(join.Close().ok());
    EXPECT_EQ(join.steps(), reference.steps);
    EXPECT_EQ(join.cost().total_transitions(), reference.transitions);
    ExpectSameRows(collected, reference.result);
    ExpectSameTrace(join.trace(), reference.trace);
  }
}

TEST(ParallelParityTest, DriveModesAgreeAtFourShards) {
  const datagen::TestCase tc = PaperCase();
  const ReferenceRun reference = RunSingleThreaded(tc, BaseOptions(tc));

  // Column batches of one row each.
  {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelJoinOptions options;
    options.base = BaseOptions(tc);
    options.num_shards = 4;
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
    ASSERT_TRUE(join.Close().ok());
    ExpectSameRows(collected, reference.result);
    ExpectSameTrace(join.trace(), reference.trace);
  }

  // Match-ref protocol, materialized at the sink.
  {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelJoinOptions options;
    options.base = BaseOptions(tc);
    options.num_shards = 4;
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
    ParallelJoinOptions options;
    options.base = BaseOptions(tc);
    options.num_shards = 4;
    ParallelAdaptiveJoin join(&child, &parent, options);
    auto count = exec::CountAll(&join);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(*count, reference.result.size());
    ExpectSameTrace(join.trace(), reference.trace);
  }
}

TEST(ParallelParityTest, ColumnarProtocolMatchesRowAdapterEveryShardCount) {
  // The columnar drive (NextColumnBatch, cells written straight from
  // the shard stores' columns) in 97-row batches must agree with the
  // single-threaded reference for every shard count: byte-identical
  // row sequences and adaptation traces.
  const datagen::TestCase tc = PaperCase();
  const ReferenceRun reference = RunSingleThreaded(tc, BaseOptions(tc));
  ASSERT_GT(reference.result.size(), 0u);
  for (size_t shards : kShardCounts) {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelJoinOptions options;
    options.base = BaseOptions(tc);
    options.num_shards = shards;
    ParallelAdaptiveJoin join(&child, &parent, options);
    ASSERT_TRUE(join.Open().ok());
    storage::Relation collected(join.output_schema());
    storage::ColumnBatch batch(&join.output_schema(), 97);
    while (true) {
      ASSERT_TRUE(join.NextColumnBatch(&batch).ok());
      if (batch.empty()) break;
      ASSERT_TRUE(batch.Validate().ok());
      collected.AppendBatch(std::move(batch));
    }
    ASSERT_TRUE(join.Close().ok());
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ExpectSameRows(collected, reference.result);
    ExpectSameTrace(join.trace(), reference.trace);
  }
}

TEST(ParallelParityTest, ChildBatchSizesDoNotChangeResults) {
  const datagen::TestCase tc = PaperCase();
  const ReferenceRun reference = RunSingleThreaded(tc, BaseOptions(tc));
  for (size_t batch : {size_t{1}, size_t{7}, size_t{256}}) {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelJoinOptions options;
    options.base = BaseOptions(tc);
    options.base.join.batch_size = batch;
    options.num_shards = 4;
    ParallelAdaptiveJoin join(&child, &parent, options);
    exec::ExecOptions drain;
    drain.batch_size = 33;
    auto result = exec::CollectAll(&join, drain);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    SCOPED_TRACE(testing::Message() << "child batch=" << batch);
    ExpectSameRows(*result, reference.result);
    ExpectSameTrace(join.trace(), reference.trace);
  }
}

TEST(ParallelParityTest, PinnedStatesMatchSingleThreadedBaselines) {
  // Pinned lex/rex is the parallel SHJoin, pinned lap/rap the parallel
  // SSHJoin; both must reproduce the single-threaded runs row for row.
  const datagen::TestCase tc = PaperCase();
  for (adaptive::ProcessorState state :
       {adaptive::ProcessorState::kLexRex, adaptive::ProcessorState::kLapRap,
        adaptive::ProcessorState::kLapRex}) {
    AdaptiveJoinOptions base = BaseOptions(tc);
    base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
    base.adaptive.initial_state = state;
    const ReferenceRun reference = RunSingleThreaded(tc, base);
    ASSERT_GT(reference.result.size(), 0u);
    for (size_t shards : kShardCounts) {
      exec::RelationScan child(&tc.child);
      exec::RelationScan parent(&tc.parent);
      ParallelJoinOptions options;
      options.base = base;
      options.num_shards = shards;
      // Exercise the unbounded-epoch path with an odd length too.
      options.unbounded_epoch_steps = shards % 2 == 0 ? 173 : 4096;
      ParallelAdaptiveJoin join(&child, &parent, options);
      auto result = exec::CollectAll(&join);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      SCOPED_TRACE(testing::Message()
                   << "state=" << adaptive::ProcessorStateName(state)
                   << " shards=" << shards);
      ExpectSameRows(*result, reference.result);
      EXPECT_EQ(join.trace().size(), 0u);
    }
  }
}

TEST(ParallelParityTest, ScriptedTransitionsFireAtSameStepsAcrossShards) {
  const datagen::TestCase tc = PaperCase();
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
    for (uint64_t epoch_steps : kEpochSteps) {
      exec::RelationScan child(&tc.child);
      exec::RelationScan parent(&tc.parent);
      ParallelJoinOptions options;
      options.base = base;
      options.num_shards = shards;
      options.unbounded_epoch_steps = epoch_steps;
      ParallelAdaptiveJoin join(&child, &parent, options);
      auto result = exec::CollectAll(&join);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      SCOPED_TRACE(testing::Message() << "shards=" << shards
                                      << " epoch=" << epoch_steps);
      ExpectSameRows(*result, reference.result);
      ExpectSameTrace(join.trace(), reference.trace);
    }
  }
}

TEST(ParallelParityTest, SeveralTransitionsInsideOneEpoch) {
  // Five transitions (two at one step) inside the first 512-step epoch:
  // each one rolls the shards back and the phases run again from it.
  const datagen::TestCase tc = PaperCase();
  AdaptiveJoinOptions base = BaseOptions(tc);
  base.adaptive.policy = adaptive::AdaptivePolicy::kScripted;
  base.adaptive.script = {
      {60, adaptive::ProcessorState::kLapRap},
      {61, adaptive::ProcessorState::kLexRap},
      {200, adaptive::ProcessorState::kLapRex},
      {200, adaptive::ProcessorState::kLapRap},
      {450, adaptive::ProcessorState::kLexRex},
  };
  const ReferenceRun reference = RunSingleThreaded(tc, base);
  ASSERT_EQ(reference.transitions, 5u);
  for (size_t shards : kShardCounts) {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelJoinOptions options;
    options.base = base;
    options.num_shards = shards;
    options.unbounded_epoch_steps = 512;
    ParallelAdaptiveJoin join(&child, &parent, options);
    auto result = exec::CollectAll(&join);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    // Four distinct transition steps, each redoing the epoch's rest
    // when several shards ran ahead; one shard never runs past a
    // control point.
    EXPECT_EQ(join.redone_steps(),
              shards == 1 ? 0u
                          : (512u - 60) + (512 - 61) + (512 - 200) +
                                (512 - 450));
    EXPECT_EQ(join.cost().total_transitions(), reference.transitions);
    ExpectSameRows(*result, reference.result);
    ExpectSameTrace(join.trace(), reference.trace);
  }
}

/// A 6,000-step case: long enough for several 1,024-step epochs.
datagen::TestCase LongCase() {
  datagen::TestCaseOptions options = PaperCaseOptions();
  options.atlas.size = 1500;
  options.accidents.size = 4500;
  auto tc = datagen::GenerateTestCase(options);
  EXPECT_TRUE(tc.ok());
  return std::move(*tc);
}

/// Drives `join` (opened here) one ref at a time, recording where each
/// merged epoch ended: the published step count once it was merged.
/// Checks that every epoch was seen (each one delivered output), then
/// returns the end steps in epoch order.
std::vector<uint64_t> ObservedEpochEnds(ParallelAdaptiveJoin* join) {
  std::vector<uint64_t> ends;
  EXPECT_TRUE(join->Open().ok());
  std::vector<ParallelMatchRef> refs;
  while (true) {
    Status status = join->NextMatchRefs(1, &refs);
    EXPECT_TRUE(status.ok()) << status.ToString();
    if (!status.ok() || refs.empty()) break;
    if (join->epochs_completed() > ends.size()) {
      EXPECT_EQ(join->epochs_completed(), ends.size() + 1)
          << "an epoch delivered no output";
      ends.push_back(join->steps());
    }
  }
  EXPECT_EQ(join->epochs_completed(), ends.size());
  EXPECT_TRUE(join->Close().ok());
  return ends;
}

TEST(ParallelParityTest, PinnedFourShardQueryRunsLongEpochsOnceSettled) {
  // No control point ever transitions, so after the two 512-step epochs
  // routed before any merge, every epoch is staged after a
  // transition-free one.
  const datagen::TestCase tc = LongCase();
  AdaptiveJoinOptions base = BaseOptions(tc);
  base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
  base.adaptive.initial_state = adaptive::ProcessorState::kLexRex;
  const ReferenceRun reference = RunSingleThreaded(tc, base);
  ASSERT_EQ(reference.steps, 6000u);
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelJoinOptions options;
  options.base = base;
  options.num_shards = 4;
  ParallelAdaptiveJoin join(&child, &parent, options);
  EXPECT_EQ(ObservedEpochEnds(&join),
            (std::vector<uint64_t>{512, 1024, 2048, 3072, 4096, 5120, 6000}));
  EXPECT_EQ(join.redone_steps(), 0u);
  EXPECT_EQ(join.ingest_stats().epochs_staged, 6u);
}

TEST(ParallelParityTest, SingleShardQueryKeepsBaseLengthEpochs) {
  // One shard stops at every control point anyway: no barrier to
  // amortize, so its epochs stay unbounded_epoch_steps long.
  const datagen::TestCase tc = LongCase();
  AdaptiveJoinOptions base = BaseOptions(tc);
  base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
  base.adaptive.initial_state = adaptive::ProcessorState::kLexRex;
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelJoinOptions options;
  options.base = base;
  options.num_shards = 1;
  ParallelAdaptiveJoin join(&child, &parent, options);
  std::vector<uint64_t> expected;
  for (uint64_t end = 512; end < 6000; end += 512) expected.push_back(end);
  expected.push_back(6000);
  EXPECT_EQ(ObservedEpochEnds(&join), expected);
}

TEST(ParallelParityTest, EpochAfterAScriptedTransitionIsBaseLengthAgain) {
  // A transition inside a 1,024-step epoch (step 1500) and one at an
  // epoch boundary (step 3072): the first epoch staged after each is
  // 512 steps long, and the epochs after those 1,024 again.
  const datagen::TestCase tc = LongCase();
  AdaptiveJoinOptions base = BaseOptions(tc);
  base.adaptive.policy = adaptive::AdaptivePolicy::kScripted;
  base.adaptive.script = {
      {1500, adaptive::ProcessorState::kLapRex},
      {3072, adaptive::ProcessorState::kLexRex},
  };
  const ReferenceRun reference = RunSingleThreaded(tc, base);
  ASSERT_EQ(TransitionSteps(reference.trace),
            (std::vector<uint64_t>{1500, 3072}));
  const std::vector<uint64_t> expected = {512,  1024, 2048, 3072,
                                          3584, 4096, 5120, 6000};
  EXPECT_EQ(ExpectedEpochEnds(reference.steps, 512, 4,
                              TransitionSteps(reference.trace)),
            expected);
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelJoinOptions options;
  options.base = base;
  options.num_shards = 4;
  ParallelAdaptiveJoin join(&child, &parent, options);
  EXPECT_EQ(ObservedEpochEnds(&join), expected);
  // The step-1500 transition redoes the rest of its 1,024-step epoch;
  // the boundary one redoes nothing.
  EXPECT_EQ(join.redone_steps(), 2048u - 1500);
  ExpectSameTrace(join.trace(), reference.trace);
}

TEST(ParallelParityTest, SoftDeadlineClampInsideAnEpochMatchesEveryLength) {
  // The case runs in lap/rap from step 300 to 1050. A soft deadline at
  // step 430 clamps it into lex/rex at the next control point (step
  // 450), inside an epoch for every length tested. The reference cuts
  // an epoch at every control point (epoch length = δ_adapt), so only
  // the epoch length differs.
  const datagen::TestCase tc = PaperCase();
  const auto run = [&tc](size_t shards, uint64_t epoch_steps) {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelJoinOptions options;
    options.base = BaseOptions(tc);
    options.num_shards = shards;
    options.unbounded_epoch_steps = epoch_steps;
    options.governor = [](const exec::parallel::EpochView& view) {
      return view.steps >= 430 ? exec::parallel::EpochDirective::kForceExactOnly
                               : exec::parallel::EpochDirective::kProceed;
    };
    ParallelAdaptiveJoin join(&child, &parent, options);
    auto result = exec::CollectAll(&join);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    ReferenceRun out;
    out.result = std::move(*result);
    out.trace = join.trace();
    out.steps = join.steps();
    out.transitions = join.cost().total_transitions();
    return out;
  };
  const ReferenceRun reference = run(1, 50);
  bool clamped = false;
  for (const adaptive::AssessmentRecord& record : reference.trace.records()) {
    if (record.phi == adaptive::Decision::kDeadlineClamp &&
        record.transitioned()) {
      EXPECT_EQ(record.assessment.step, 450u);
      clamped = true;
    }
  }
  ASSERT_TRUE(clamped) << "the clamp must force a transition";
  for (size_t shards : {size_t{1}, size_t{4}}) {
    for (uint64_t epoch_steps : kEpochSteps) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards
                                      << " epoch=" << epoch_steps);
      const ReferenceRun actual = run(shards, epoch_steps);
      EXPECT_EQ(actual.steps, reference.steps);
      EXPECT_EQ(actual.transitions, reference.transitions);
      ExpectSameRows(actual.result, reference.result);
      ExpectSameTrace(actual.trace, reference.trace);
    }
  }
}

TEST(ParallelParityTest, BothInputsPerturbedStillAgree) {
  // Perturbing both inputs drives the ϕ1 path (lap/rap) and maximizes
  // cross-shard approximate traffic — the hardest merge case.
  datagen::TestCaseOptions tco;
  tco.pattern = datagen::PerturbationPattern::kUniform;
  tco.perturb_parent = true;
  tco.variant_rate = 0.15;
  tco.atlas.size = 300;
  tco.accidents.size = 600;
  tco.seed = 42;
  auto tc = datagen::GenerateTestCase(tco);
  ASSERT_TRUE(tc.ok());
  const ReferenceRun reference = RunSingleThreaded(*tc, BaseOptions(*tc));
  ASSERT_GT(reference.result.size(), 0u);
  for (size_t shards : kShardCounts) {
    exec::RelationScan child(&tc->child);
    exec::RelationScan parent(&tc->parent);
    ParallelJoinOptions options;
    options.base = BaseOptions(*tc);
    options.num_shards = shards;
    ParallelAdaptiveJoin join(&child, &parent, options);
    auto result = exec::CollectAll(&join);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ExpectSameRows(*result, reference.result);
    ExpectSameTrace(join.trace(), reference.trace);
  }
}

}  // namespace
}  // namespace aqp
