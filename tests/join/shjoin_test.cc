#include "join/shjoin.h"

#include <gtest/gtest.h>

#include "exec/scan.h"
#include "join/brute_force.h"

namespace aqp {
namespace join {
namespace {

using storage::Relation;
using storage::Schema;
using storage::Tuple;
using storage::Value;
using storage::ValueType;

Relation Strings(const std::vector<std::string>& values) {
  Relation r(Schema({{"s", ValueType::kString}}));
  for (const auto& v : values) {
    EXPECT_TRUE(r.Append(Tuple{Value(v)}).ok());
  }
  return r;
}

TEST(SHJoinTest, MatchesBruteForceExactJoin) {
  const Relation left = Strings({"A", "B", "C", "A", "D"});
  const Relation right = Strings({"B", "A", "E", "A"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SymmetricJoinOptions options;
  SHJoin join(&ls, &rs, options);
  auto result = exec::CollectAll(&join);
  ASSERT_TRUE(result.ok());
  const auto expected = BruteForceExactJoin(left, right, options.spec);
  EXPECT_EQ(result->size(), expected.size());
  EXPECT_EQ(join.core().exact_pairs(), expected.size());
  EXPECT_EQ(join.core().approximate_pairs(), 0u);
}

TEST(SHJoinTest, OutputConcatenatesLeftThenRight) {
  Relation left(Schema({{"id", ValueType::kInt64},
                        {"loc", ValueType::kString}}));
  ASSERT_TRUE(left.Append(Tuple{Value(1), Value("X")}).ok());
  Relation right(Schema({{"loc", ValueType::kString},
                         {"lat", ValueType::kDouble}}));
  ASSERT_TRUE(right.Append(Tuple{Value("X"), Value(45.5)}).ok());
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SymmetricJoinOptions options;
  options.spec.left_column = 1;
  options.spec.right_column = 0;
  SHJoin join(&ls, &rs, options);
  auto result = exec::CollectAll(&join);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  const Tuple& row = result->row(0);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row.at(0).AsInt64(), 1);
  EXPECT_EQ(row.at(1).AsString(), "X");
  EXPECT_EQ(row.at(2).AsString(), "X");
  EXPECT_DOUBLE_EQ(row.at(3).AsDouble(), 45.5);
}

TEST(SHJoinTest, EmitSimilarityAppendsColumn) {
  const Relation left = Strings({"A"});
  const Relation right = Strings({"A"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SymmetricJoinOptions options;
  options.emit_similarity = true;
  SHJoin join(&ls, &rs, options);
  auto result = exec::CollectAll(&join);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_DOUBLE_EQ(result->row(0).at(2).AsDouble(), 1.0);
  EXPECT_EQ(result->schema().field(2).name, "sim");
}

TEST(SHJoinTest, EmptyInputsProduceEmptyResult) {
  const Relation left = Strings({});
  const Relation right = Strings({"A"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SHJoin join(&ls, &rs, SymmetricJoinOptions{});
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST(SHJoinTest, VariantsDoNotMatchExactly) {
  const Relation left = Strings({"SANTA CRISTINA"});
  const Relation right = Strings({"SANTA CRISTINx"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SHJoin join(&ls, &rs, SymmetricJoinOptions{});
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST(SHJoinTest, DuplicateKeysProduceCrossProduct) {
  const Relation left = Strings({"K", "K"});
  const Relation right = Strings({"K", "K", "K"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SHJoin join(&ls, &rs, SymmetricJoinOptions{});
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 6u);
}

TEST(SHJoinTest, RejectsInvalidSpecAtOpen) {
  const Relation left = Strings({"A"});
  const Relation right = Strings({"A"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SymmetricJoinOptions options;
  options.spec.left_column = 9;
  SHJoin join(&ls, &rs, options);
  EXPECT_TRUE(join.Open().IsInvalidArgument());
}

TEST(SHJoinTest, QuiescentExactlyWhenNoPendingOutput) {
  const Relation left = Strings({"K", "K"});
  const Relation right = Strings({"K", "K"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SHJoin join(&ls, &rs, SymmetricJoinOptions{});
  ASSERT_TRUE(join.Open().ok());
  EXPECT_TRUE(join.quiescent());
  // The second K from the right matches both left Ks, so one-row
  // batches leave a match spilled (not quiescent) until the next pull
  // delivers it; after EOS nothing is pending.
  storage::ColumnBatch batch(nullptr, 1);
  bool saw_pending = false;
  while (true) {
    ASSERT_TRUE(join.NextColumnBatch(&batch).ok());
    if (batch.empty()) break;
    saw_pending = saw_pending || !join.quiescent();
  }
  EXPECT_TRUE(saw_pending);
  EXPECT_TRUE(join.quiescent());
  ASSERT_TRUE(join.Close().ok());
}

TEST(SHJoinTest, StepsEqualTuplesRead) {
  const Relation left = Strings({"A", "B", "C"});
  const Relation right = Strings({"D", "E"});
  exec::RelationScan ls(&left);
  exec::RelationScan rs(&right);
  SHJoin join(&ls, &rs, SymmetricJoinOptions{});
  ASSERT_TRUE(exec::CountAll(&join).ok());
  EXPECT_EQ(join.steps(), 5u);
  EXPECT_TRUE(join.input_exhausted(exec::Side::kLeft));
  EXPECT_TRUE(join.input_exhausted(exec::Side::kRight));
}

}  // namespace
}  // namespace join
}  // namespace aqp
