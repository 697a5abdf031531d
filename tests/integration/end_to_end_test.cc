// End-to-end: generator -> scans -> adaptive join -> collected result,
// checked against ground truth, including the streaming input path.

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "adaptive/adaptive_join.h"
#include "datagen/generator.h"
#include "exec/scan.h"
#include "exec/sink.h"
#include "exec/stream.h"

namespace aqp {
namespace {

using adaptive::AdaptiveJoin;
using adaptive::AdaptiveJoinOptions;
using datagen::TestCase;
using datagen::TestCaseOptions;

TestCase MakeCase() {
  TestCaseOptions options;
  options.pattern = datagen::PerturbationPattern::kFewHighIntensityRegions;
  options.atlas.size = 400;
  options.accidents.size = 800;
  options.variant_rate = 0.15;
  options.seed = 777;
  auto tc = datagen::GenerateTestCase(options);
  EXPECT_TRUE(tc.ok());
  return std::move(tc).ValueOrDie();
}

AdaptiveJoinOptions Options(const TestCase& tc) {
  AdaptiveJoinOptions o;
  o.join.spec.left_column = datagen::kAccidentsLocationColumn;
  o.join.spec.right_column = datagen::kAtlasLocationColumn;
  o.join.spec.sim_threshold = 0.85;
  o.join.emit_similarity = true;
  o.adaptive.parent_side = exec::Side::kRight;
  o.adaptive.parent_table_size = tc.parent.size();
  o.adaptive.delta_adapt = 50;
  o.adaptive.window = 50;
  return o;
}

TEST(EndToEndTest, RecoveredPairsAreTrueMatches) {
  const TestCase tc = MakeCase();
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  AdaptiveJoin join(&child, &parent, Options(tc));
  auto result = exec::CollectAll(&join);
  ASSERT_TRUE(result.ok());

  // Map locations back to parent rows for truth checking.
  std::unordered_map<std::string, size_t> parent_by_location;
  for (size_t r = 0; r < tc.parent.size(); ++r) {
    parent_by_location[tc.parent.row(r)
                           .at(datagen::kAtlasLocationColumn)
                           .AsString()] = r;
  }
  // Output schema: child fields (4) + parent fields (4) + sim.
  size_t true_positive = 0, false_positive = 0;
  for (const storage::Tuple& row : result->rows()) {
    const int64_t accident_id = row.at(0).AsInt64();
    const std::string& parent_loc = row.at(4).AsString();
    ASSERT_EQ(parent_by_location.count(parent_loc), 1u);
    const size_t matched_parent = parent_by_location[parent_loc];
    if (tc.child_true_parent[static_cast<size_t>(accident_id)] ==
        matched_parent) {
      ++true_positive;
    } else {
      ++false_positive;
    }
    const double sim = row.at(8).AsDouble();
    EXPECT_GE(sim, 0.85);
    EXPECT_LE(sim, 1.0);
  }
  // Most matches must be true matches; at 0.85 on 36+ character
  // strings, false positives should be rare.
  EXPECT_GT(true_positive, 0u);
  EXPECT_LT(false_positive, true_positive / 20 + 5);
}

TEST(EndToEndTest, GeneratorSourceStreamingPath) {
  const TestCase tc = MakeCase();
  size_t child_pos = 0;
  exec::GeneratorSource child(
      tc.child.schema(), [&]() -> std::optional<storage::Tuple> {
        if (child_pos >= tc.child.size()) return std::nullopt;
        return tc.child.row(child_pos++);
      });
  size_t parent_pos = 0;
  exec::GeneratorSource parent(
      tc.parent.schema(), [&]() -> std::optional<storage::Tuple> {
        if (parent_pos >= tc.parent.size()) return std::nullopt;
        return tc.parent.row(parent_pos++);
      });
  AdaptiveJoin join(&child, &parent, Options(tc));
  auto streamed = exec::CountAll(&join);
  ASSERT_TRUE(streamed.ok());

  exec::RelationScan child2(&tc.child);
  exec::RelationScan parent2(&tc.parent);
  AdaptiveJoin join2(&child2, &parent2, Options(tc));
  auto scanned = exec::CountAll(&join2);
  ASSERT_TRUE(scanned.ok());
  // Identical feed order => identical behaviour, streaming or not.
  EXPECT_EQ(*streamed, *scanned);
}

TEST(EndToEndTest, EarlyTerminationDeliversPartialResult) {
  // The mashup scenario: the consumer stops pulling after a budget.
  const TestCase tc = MakeCase();
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  AdaptiveJoin join(&child, &parent, Options(tc));
  exec::DrainOptions budget;
  budget.limit = 100;
  auto received = exec::Drain(
      &join, [](const storage::Tuple&) { return true; }, budget);
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(*received, budget.limit);
  // The join had not consumed the whole input.
  EXPECT_LT(join.steps(), tc.child.size() + tc.parent.size());
}

}  // namespace
}  // namespace aqp
