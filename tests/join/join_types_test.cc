#include "join/join_types.h"

#include <gtest/gtest.h>

namespace aqp {
namespace join {
namespace {

using storage::Schema;
using storage::ValueType;

Schema LeftSchema() {
  return Schema({{"id", ValueType::kInt64}, {"loc", ValueType::kString}});
}
Schema RightSchema() {
  return Schema({{"loc", ValueType::kString}, {"lat", ValueType::kDouble}});
}

TEST(JoinSpecTest, DefaultIsValid) {
  JoinSpec spec;
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(JoinSpecTest, RejectsBadThreshold) {
  JoinSpec spec;
  spec.sim_threshold = 1.5;
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
  spec.sim_threshold = -0.1;
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
  spec.sim_threshold = 0.0;  // cross join not expressible
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
  spec.sim_threshold = 1.0;  // boundary: identical gram sets only
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(JoinSpecTest, RejectsBadQ) {
  JoinSpec spec;
  spec.qgram.q = 0;
  EXPECT_TRUE(spec.Validate().IsInvalidArgument());
}

TEST(JoinSpecTest, SchemaValidationAccepts) {
  JoinSpec spec;
  spec.left_column = 1;
  spec.right_column = 0;
  EXPECT_TRUE(spec.ValidateAgainstSchemas(LeftSchema(), RightSchema()).ok());
}

TEST(JoinSpecTest, SchemaValidationRejectsOutOfRange) {
  JoinSpec spec;
  spec.left_column = 5;
  spec.right_column = 0;
  EXPECT_TRUE(spec.ValidateAgainstSchemas(LeftSchema(), RightSchema())
                  .IsInvalidArgument());
}

TEST(JoinSpecTest, SchemaValidationRejectsNonString) {
  JoinSpec spec;
  spec.left_column = 0;  // int64
  spec.right_column = 0;
  EXPECT_TRUE(spec.ValidateAgainstSchemas(LeftSchema(), RightSchema())
                  .IsInvalidArgument());
}

TEST(JoinSpecTest, ColumnBySide) {
  JoinSpec spec;
  spec.left_column = 1;
  spec.right_column = 0;
  EXPECT_EQ(spec.column(Side::kLeft), 1u);
  EXPECT_EQ(spec.column(Side::kRight), 0u);
}

TEST(JoinMatchTest, SideProjection) {
  JoinMatch m;
  m.probe_side = Side::kRight;
  m.probe_id = 7;
  m.stored_id = 3;
  EXPECT_EQ(m.left_id(), 3u);
  EXPECT_EQ(m.right_id(), 7u);
  m.probe_side = Side::kLeft;
  EXPECT_EQ(m.left_id(), 7u);
  EXPECT_EQ(m.right_id(), 3u);
}

TEST(JoinOutputSchemaTest, ConcatenatesAndRenames) {
  const Schema out = JoinOutputSchema(LeftSchema(), RightSchema(), false);
  ASSERT_EQ(out.num_fields(), 4u);
  EXPECT_EQ(out.field(1).name, "loc");
  EXPECT_EQ(out.field(2).name, "loc_r");
}

TEST(JoinOutputSchemaTest, SimilarityColumnAppended) {
  const Schema out = JoinOutputSchema(LeftSchema(), RightSchema(), true);
  ASSERT_EQ(out.num_fields(), 5u);
  EXPECT_EQ(out.field(4).name, "sim");
  EXPECT_EQ(out.field(4).type, ValueType::kDouble);
}

TEST(MatchKindTest, Names) {
  EXPECT_STREQ(MatchKindName(MatchKind::kExact), "exact");
  EXPECT_STREQ(MatchKindName(MatchKind::kApproximate), "approximate");
}

// §3.3 attribution, one case per branch. Reading from the right, the
// stored tuple is a left one.
bool Yes() { return true; }
bool No() { return false; }

TEST(AttributeApproxMatchTest, StoredTupleMatchedExactlyBlamesTheReader) {
  StepObservables obs;
  bool probe_flag_read = false;
  AttributeApproxMatch(
      Side::kRight, Yes,
      [&] {
        probe_flag_read = true;
        return true;
      },
      &obs);
  EXPECT_EQ(obs.approx_attributed[0], 0u);
  EXPECT_EQ(obs.approx_attributed[1], 1u);
  // The rule stops at the stored tuple's flag.
  EXPECT_FALSE(probe_flag_read);
}

TEST(AttributeApproxMatchTest, ProbeTupleMatchedExactlyBlamesTheStoredSide) {
  StepObservables obs;
  AttributeApproxMatch(Side::kRight, No, Yes, &obs);
  EXPECT_EQ(obs.approx_attributed[0], 1u);
  EXPECT_EQ(obs.approx_attributed[1], 0u);
}

TEST(AttributeApproxMatchTest, NoEvidenceBlamesBothAndAccumulates) {
  StepObservables obs;
  AttributeApproxMatch(Side::kLeft, No, No, &obs);
  EXPECT_EQ(obs.approx_attributed[0], 1u);
  EXPECT_EQ(obs.approx_attributed[1], 1u);
  AttributeApproxMatch(Side::kLeft, Yes, No, &obs);
  EXPECT_EQ(obs.approx_attributed[0], 2u);
  EXPECT_EQ(obs.approx_attributed[1], 1u);
}

}  // namespace
}  // namespace join
}  // namespace aqp
