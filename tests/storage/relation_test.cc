#include "storage/relation.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

namespace aqp {
namespace storage {
namespace {

Relation People() {
  Relation r(Schema({{"id", ValueType::kInt64},
                     {"city", ValueType::kString}}));
  EXPECT_TRUE(r.Append(Tuple{Value(1), Value("ROMA")}).ok());
  EXPECT_TRUE(r.Append(Tuple{Value(2), Value("MILANO")}).ok());
  EXPECT_TRUE(r.Append(Tuple{Value(3), Value("ROMA")}).ok());
  return r;
}

TEST(RelationTest, AppendValidates) {
  Relation r(Schema({{"id", ValueType::kInt64}}));
  EXPECT_TRUE(r.Append(Tuple{Value(1)}).ok());
  EXPECT_TRUE(r.Append(Tuple{Value("bad")}).IsInvalidArgument());
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, RowAccess) {
  const Relation r = People();
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.row(1).at(1).AsString(), "MILANO");
}

TEST(RelationTest, DistinctStringsFirstSeenOrder) {
  const Relation r = People();
  EXPECT_EQ(r.DistinctStrings(1),
            (std::vector<std::string>{"ROMA", "MILANO"}));
}

TEST(RelationTest, ToStringTruncates) {
  const Relation r = People();
  const std::string s = r.ToString(2);
  EXPECT_NE(s.find("ROMA"), std::string::npos);
  EXPECT_NE(s.find("(1 more rows)"), std::string::npos);
}

Schema MixedSchema() {
  return Schema({{"id", ValueType::kInt64},
                 {"score", ValueType::kDouble},
                 {"name", ValueType::kString}});
}

/// Row i of the mixed fixture: every third cell of each column NULL
/// (staggered), names empty on every fifth row.
Tuple MixedRow(size_t i) {
  const auto n = static_cast<int64_t>(i);
  const std::string name = i % 5 == 0 ? "" : "n" + std::to_string(i);
  return Tuple{i % 3 == 0 ? Value() : Value(n),
               i % 3 == 1 ? Value() : Value(0.5 * static_cast<double>(n)),
               i % 3 == 2 ? Value() : Value(name)};
}

/// Every cell of `r` read through the typed accessors equals row(i),
/// and rows() yields the same sequence.
void ExpectAccessorsAgree(const Relation& r) {
  size_t i = 0;
  for (const Tuple& row : r.rows()) {
    ASSERT_LT(i, r.size());
    EXPECT_EQ(row, r.row(i)) << "row " << i;
    for (size_t c = 0; c < r.schema().num_fields(); ++c) {
      const Value& v = row.at(c);
      ASSERT_EQ(r.IsNull(c, i), v.is_null()) << "cell " << i << "," << c;
      if (v.is_null()) continue;
      switch (r.schema().field(c).type) {
        case ValueType::kInt64:
          EXPECT_EQ(r.Int64At(c, i), v.AsInt64());
          break;
        case ValueType::kDouble:
          EXPECT_EQ(r.DoubleAt(c, i), v.AsDouble());
          break;
        default:
          EXPECT_EQ(r.StringAt(c, i), v.AsStringView());
          break;
      }
    }
    ++i;
  }
  EXPECT_EQ(i, r.size());
}

Relation MixedRelation(size_t rows) {
  Relation r(MixedSchema());
  for (size_t i = 0; i < rows; ++i) EXPECT_TRUE(r.Append(MixedRow(i)).ok());
  return r;
}

TEST(RelationTest, NullsInEveryColumnTypeAndEmptyStrings) {
  const Relation r = MixedRelation(30);
  ASSERT_EQ(r.size(), 30u);
  EXPECT_TRUE(r.IsNull(0, 0));
  EXPECT_FALSE(r.IsNull(1, 0));
  EXPECT_TRUE(r.IsNull(1, 1));
  EXPECT_TRUE(r.IsNull(2, 2));
  // An empty string is a value, not NULL.
  EXPECT_FALSE(r.IsNull(2, 0));
  EXPECT_EQ(r.StringAt(2, 0), "");
  EXPECT_EQ(r.row(0).at(2), Value(""));
  EXPECT_TRUE(r.row(2).at(2).is_null());
  EXPECT_EQ(r.Int64At(0, 4), 4);
  EXPECT_EQ(r.DoubleAt(1, 3), 1.5);
  for (size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r.row(i), MixedRow(i)) << "row " << i;
  }
  ExpectAccessorsAgree(r);
}

TEST(RelationTest, AppendsCrossBatchBoundaries) {
  const size_t n = 2 * ColumnBatch::kDefaultCapacity + 5;
  const Relation r = MixedRelation(n);
  ASSERT_EQ(r.size(), n);
  ASSERT_EQ(r.batches().size(), 3u);
  for (const ColumnBatch& batch : r.batches()) {
    EXPECT_LE(batch.size(), ColumnBatch::kDefaultCapacity);
    EXPECT_EQ(batch.schema(), &r.schema());
  }
  for (size_t i : {1023u, 1024u, 1025u, 2047u, 2048u, 2052u}) {
    EXPECT_EQ(r.row(i), MixedRow(i)) << "row " << i;
  }
  EXPECT_THROW(r.row(n), std::out_of_range);
  ExpectAccessorsAgree(r);

  // A range copy that spans both boundaries.
  ColumnBatch out(&r.schema(), 8);
  r.CopyRows(1000, 1050, &out);
  ASSERT_TRUE(out.Validate().ok());
  ASSERT_EQ(out.size(), 1050u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.MaterializeRow(i), MixedRow(1000 + i)) << "row " << i;
  }
}

TEST(RelationTest, AppendBatchAtDrainSizesKeepsRowsAndFewBatches) {
  const size_t n = 3000;
  const Relation source = MixedRelation(n);
  for (size_t drain : {size_t{1}, size_t{16}, size_t{256}}) {
    SCOPED_TRACE(testing::Message() << "drain " << drain);
    Relation r(MixedSchema());
    ColumnBatch batch(&source.schema(), drain);
    for (size_t begin = 0; begin < n; begin += drain) {
      batch.Reset(&source.schema());
      source.CopyRows(begin, std::min(drain, n - begin), &batch);
      r.AppendBatch(std::move(batch));
    }
    ASSERT_EQ(r.size(), n);
    // Small batches coalesce; large ones move in whole.
    EXPECT_LE(r.batches().size(), drain < 256 ? 3u : 12u);
    for (const ColumnBatch& stored : r.batches()) {
      EXPECT_EQ(stored.schema(), &r.schema());
      EXPECT_TRUE(stored.Validate().ok());
    }
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(r.row(i), source.row(i)) << "row " << i;
    }
  }
}

TEST(RelationTest, MovedInBatchOutlivesItsProducersSchema) {
  Relation r(MixedSchema());
  {
    auto producer = std::make_unique<Schema>(MixedSchema());
    ColumnBatch batch(producer.get(), ColumnBatch::kDefaultCapacity);
    for (size_t i = 0; i < ColumnBatch::kDefaultCapacity; ++i) {
      batch.AppendTupleRow(MixedRow(i));
    }
    r.AppendBatch(std::move(batch));
    EXPECT_TRUE(batch.empty());
  }
  ASSERT_EQ(r.batches().size(), 1u);
  EXPECT_EQ(r.batches()[0].schema(), &r.schema());
  EXPECT_EQ(r.row(7), MixedRow(7));
  ExpectAccessorsAgree(r);
}

TEST(RelationTest, CopyAndMoveKeepEveryRowReadable) {
  const size_t n = ColumnBatch::kDefaultCapacity + 10;
  Relation copy;
  Relation moved;
  {
    Relation original = MixedRelation(n);
    copy = original;
    Relation copy_constructed(original);
    ExpectAccessorsAgree(copy_constructed);
    moved = std::move(original);
  }
  ASSERT_EQ(copy.size(), n);
  ASSERT_EQ(moved.size(), n);
  for (const Relation* r : {&copy, &moved}) {
    EXPECT_EQ(r->schema(), MixedSchema());
    for (const ColumnBatch& batch : r->batches()) {
      EXPECT_EQ(batch.schema(), &r->schema());
    }
    ExpectAccessorsAgree(*r);
  }
  // A copy is independent of its source.
  ASSERT_TRUE(copy.Append(MixedRow(n)).ok());
  EXPECT_EQ(copy.size(), n + 1);
  EXPECT_EQ(moved.size(), n);
}

TEST(RelationTest, EmptyRelation) {
  Relation r(Schema({{"x", ValueType::kString}}));
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.DistinctStrings(0).empty());
}

}  // namespace
}  // namespace storage
}  // namespace aqp
