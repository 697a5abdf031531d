#include "adaptive/adaptive_join.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "datagen/generator.h"
#include "exec/scan.h"
#include "join/shjoin.h"
#include "join/sshjoin.h"

namespace aqp {
namespace adaptive {
namespace {

using datagen::PerturbationPattern;
using datagen::TestCase;
using datagen::TestCaseOptions;

TestCase SmallCase(double variant_rate, PerturbationPattern pattern =
                                            PerturbationPattern::kUniform) {
  TestCaseOptions options;
  options.pattern = pattern;
  options.variant_rate = variant_rate;
  options.atlas.size = 300;
  options.accidents.size = 600;
  options.seed = 20090324;
  auto tc = datagen::GenerateTestCase(options);
  EXPECT_TRUE(tc.ok()) << tc.status().ToString();
  return std::move(tc).ValueOrDie();
}

AdaptiveJoinOptions JoinOptions(const TestCase& tc) {
  AdaptiveJoinOptions o;
  o.join.spec.left_column = datagen::kAccidentsLocationColumn;
  o.join.spec.right_column = datagen::kAtlasLocationColumn;
  o.join.spec.sim_threshold = 0.85;
  o.adaptive.parent_side = exec::Side::kRight;
  o.adaptive.parent_table_size = tc.parent.size();
  o.adaptive.delta_adapt = 50;
  o.adaptive.window = 50;
  return o;
}

size_t RunAndCount(AdaptiveJoin* join) {
  auto count = exec::CountAll(join);
  EXPECT_TRUE(count.ok()) << count.status().ToString();
  return count.ok() ? *count : 0;
}

TEST(AdaptiveJoinTest, PinnedExactEqualsSHJoin) {
  const TestCase tc = SmallCase(0.2);
  AdaptiveJoinOptions o = JoinOptions(tc);
  o.adaptive.policy = AdaptivePolicy::kPinned;
  o.adaptive.initial_state = ProcessorState::kLexRex;
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  AdaptiveJoin pinned(&child, &parent, o);
  const size_t pinned_count = RunAndCount(&pinned);

  exec::RelationScan child2(&tc.child);
  exec::RelationScan parent2(&tc.parent);
  join::SymmetricJoinOptions so;
  so.spec = o.join.spec;
  join::SHJoin shjoin(&child2, &parent2, so);
  auto sh_count = exec::CountAll(&shjoin);
  ASSERT_TRUE(sh_count.ok());
  EXPECT_EQ(pinned_count, *sh_count);
  // Pinned runs never transition.
  EXPECT_EQ(pinned.cost().total_transitions(), 0u);
  EXPECT_EQ(pinned.cost().steps(ProcessorState::kLexRex),
            pinned.cost().total_steps());
}

TEST(AdaptiveJoinTest, PinnedApproxEqualsSSHJoin) {
  const TestCase tc = SmallCase(0.2);
  AdaptiveJoinOptions o = JoinOptions(tc);
  o.adaptive.policy = AdaptivePolicy::kPinned;
  o.adaptive.initial_state = ProcessorState::kLapRap;
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  AdaptiveJoin pinned(&child, &parent, o);
  const size_t pinned_count = RunAndCount(&pinned);

  exec::RelationScan child2(&tc.child);
  exec::RelationScan parent2(&tc.parent);
  join::SymmetricJoinOptions so;
  so.spec = o.join.spec;
  join::SSHJoin sshjoin(&child2, &parent2, so);
  auto ssh_count = exec::CountAll(&sshjoin);
  ASSERT_TRUE(ssh_count.ok());
  EXPECT_EQ(pinned_count, *ssh_count);
}

TEST(AdaptiveJoinTest, CleanDataStaysExact) {
  const TestCase tc = SmallCase(0.0);
  AdaptiveJoinOptions o = JoinOptions(tc);
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  AdaptiveJoin join(&child, &parent, o);
  const size_t count = RunAndCount(&join);
  EXPECT_EQ(count, tc.child.size());  // every child matches
  EXPECT_EQ(join.state(), ProcessorState::kLexRex);
  EXPECT_EQ(join.cost().total_transitions(), 0u);
  EXPECT_EQ(join.trace().transition_count(), 0u);
  // Assessments did happen.
  EXPECT_GT(join.trace().size(), 0u);
}

TEST(AdaptiveJoinTest, DetectsVariantsAndRecoversMatches) {
  const TestCase tc = SmallCase(0.2);
  AdaptiveJoinOptions o = JoinOptions(tc);

  // Baseline: all-exact finds only the clean pairs.
  AdaptiveJoinOptions exact_o = o;
  exact_o.adaptive.policy = AdaptivePolicy::kPinned;
  exec::RelationScan child_e(&tc.child);
  exec::RelationScan parent_e(&tc.parent);
  AdaptiveJoin exact_join(&child_e, &parent_e, exact_o);
  const size_t exact_count = RunAndCount(&exact_join);

  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  AdaptiveJoin join(&child, &parent, o);
  const size_t adaptive_count = RunAndCount(&join);

  // It must have reacted...
  EXPECT_GT(join.trace().transition_count(), 0u);
  ASSERT_TRUE(join.trace().first_transition_step().has_value());
  // ...and recovered strictly more matches than the exact baseline.
  EXPECT_GT(adaptive_count, exact_count);
  // Switch catch-up work was recorded.
  EXPECT_GT(join.core().catchup_tuples(), 0u);
}

TEST(AdaptiveJoinTest, ThetaOutZeroNeverTriggers) {
  const TestCase tc = SmallCase(0.2);
  AdaptiveJoinOptions o = JoinOptions(tc);
  o.adaptive.theta_out = 0.0;  // p-value can never be <= 0 on real data
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  AdaptiveJoin join(&child, &parent, o);
  RunAndCount(&join);
  EXPECT_EQ(join.state(), ProcessorState::kLexRex);
  EXPECT_EQ(join.cost().total_transitions(), 0u);
}

TEST(AdaptiveJoinTest, ScriptedPolicyFollowsScript) {
  const TestCase tc = SmallCase(0.2);
  AdaptiveJoinOptions o = JoinOptions(tc);
  o.adaptive.policy = AdaptivePolicy::kScripted;
  o.adaptive.script = {{100, ProcessorState::kLapRap},
                       {300, ProcessorState::kLexRex}};
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  AdaptiveJoin join(&child, &parent, o);
  RunAndCount(&join);
  EXPECT_EQ(join.cost().transitions(ProcessorState::kLapRap), 1u);
  EXPECT_EQ(join.cost().transitions(ProcessorState::kLexRex), 1u);
  EXPECT_EQ(join.state(), ProcessorState::kLexRex);
  // Steps in AA cover roughly the scripted interval.
  EXPECT_GT(join.cost().steps(ProcessorState::kLapRap), 150u);
  EXPECT_LT(join.cost().steps(ProcessorState::kLapRap), 260u);
}

TEST(AdaptiveJoinTest, StepAccountingConsistent) {
  const TestCase tc = SmallCase(0.1);
  AdaptiveJoinOptions o = JoinOptions(tc);
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  AdaptiveJoin join(&child, &parent, o);
  RunAndCount(&join);
  uint64_t per_state_sum = 0;
  for (ProcessorState s : kAllProcessorStates) {
    per_state_sum += join.cost().steps(s);
  }
  EXPECT_EQ(per_state_sum, join.cost().total_steps());
  EXPECT_EQ(join.cost().total_steps(), tc.child.size() + tc.parent.size());
  EXPECT_EQ(join.steps(), join.cost().total_steps());
}

TEST(AdaptiveJoinTest, RejectsInvalidAdaptiveOptionsAtOpen) {
  const TestCase tc = SmallCase(0.0);
  AdaptiveJoinOptions o = JoinOptions(tc);
  o.adaptive.delta_adapt = 0;
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  AdaptiveJoin join(&child, &parent, o);
  EXPECT_TRUE(join.Open().IsInvalidArgument());
}

TEST(AdaptiveJoinTest, TraceRecordsAssessments) {
  const TestCase tc = SmallCase(0.2);
  AdaptiveJoinOptions o = JoinOptions(tc);
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  AdaptiveJoin join(&child, &parent, o);
  RunAndCount(&join);
  ASSERT_GT(join.trace().size(), 0u);
  // Assessment steps are spaced at least delta_adapt apart.
  uint64_t prev = 0;
  for (const AssessmentRecord& r : join.trace().records()) {
    if (prev != 0) {
      EXPECT_GE(r.assessment.step - prev, o.adaptive.delta_adapt);
    }
    prev = r.assessment.step;
  }
}

/// Records the join progress the controller assesses at.
class RecordingModel : public stats::CompletenessModel {
 public:
  double ExpectedMatches(const stats::JoinProgress& progress) const override {
    last = progress;
    ++calls;
    return 0.0;
  }
  std::optional<double> ShortfallPValue(
      const stats::JoinProgress& /*progress*/) const override {
    return std::nullopt;
  }
  std::string name() const override { return "recording"; }

  mutable stats::JoinProgress last;
  mutable int calls = 0;
};

storage::Relation Keys(const std::vector<std::string>& keys) {
  storage::Relation r(
      storage::Schema({{"key", storage::ValueType::kString}}));
  for (const std::string& key : keys) {
    EXPECT_TRUE(r.Append(storage::Tuple{storage::Value(key)}).ok());
  }
  return r;
}

/// Runs a one-column AdaptiveJoin (parent = right) with one control
/// point at step 3 and returns the progress it assessed.
stats::JoinProgress ProgressAtStepThree(const storage::Relation& child,
                                        const storage::Relation& parent,
                                        bool use_pairs_statistic) {
  auto model = std::make_shared<RecordingModel>();
  AdaptiveJoinOptions o;
  o.adaptive.parent_side = exec::Side::kRight;
  o.adaptive.parent_table_size = 100;
  o.adaptive.delta_adapt = 3;
  o.adaptive.use_pairs_statistic = use_pairs_statistic;
  o.adaptive.model = model;
  exec::RelationScan child_scan(&child);
  exec::RelationScan parent_scan(&parent);
  AdaptiveJoin join(&child_scan, &parent_scan, o);
  RunAndCount(&join);
  EXPECT_EQ(join.steps(), 3u);
  EXPECT_EQ(model->calls, 1);
  return model->last;
}

TEST(AdaptiveJoinTest, ProgressReportsStoreSizesAndMatches) {
  // Alternating reads: child "K", parent "K" (a pair), child
  // "UNMATCHED"; the control point at step 3 precedes the parent's
  // end-of-stream.
  const storage::Relation child = Keys({"K", "UNMATCHED"});
  const storage::Relation parent = Keys({"K"});
  const stats::JoinProgress progress =
      ProgressAtStepThree(child, parent, /*use_pairs_statistic=*/false);
  EXPECT_EQ(progress.parents_scanned, 1u);
  EXPECT_EQ(progress.children_scanned, 2u);
  EXPECT_EQ(progress.children_matched, 1u);
  EXPECT_FALSE(progress.parent_exhausted);
}

TEST(AdaptiveJoinTest, PairsStatisticOption) {
  const storage::Relation child = Keys({"K"});
  const storage::Relation parent = Keys({"K", "K"});  // 2 pairs total
  const stats::JoinProgress progress =
      ProgressAtStepThree(child, parent, /*use_pairs_statistic=*/true);
  EXPECT_EQ(progress.children_matched, 2u);
}

TEST(AdaptiveJoinTest, IsSingleUse) {
  // A second run would restart on the stale core and controller,
  // returning every row again plus the pairs the stale stores produce,
  // so reopening is refused and the first run's state stays intact.
  const TestCase tc = SmallCase(0.2);
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  AdaptiveJoin join(&child, &parent, JoinOptions(tc));
  const size_t rows = RunAndCount(&join);
  ASSERT_GT(rows, 0u);
  const size_t records = join.trace().size();
  const uint64_t steps = join.monitor().steps();

  auto again = exec::CountAll(&join);
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsFailedPrecondition()) << again.status();
  EXPECT_EQ(join.trace().size(), records);
  EXPECT_EQ(join.monitor().steps(), steps);
  EXPECT_EQ(join.steps(), steps);
}

}  // namespace
}  // namespace adaptive
}  // namespace aqp
