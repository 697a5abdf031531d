#include "exec/scan.h"

#include <gtest/gtest.h>

namespace aqp {
namespace exec {
namespace {

using storage::ColumnBatch;
using storage::Relation;
using storage::Schema;
using storage::Tuple;
using storage::Value;
using storage::ValueType;

Relation ThreeRows() {
  Relation r(Schema({{"s", ValueType::kString}}));
  EXPECT_TRUE(r.Append(Tuple{Value("a")}).ok());
  EXPECT_TRUE(r.Append(Tuple{Value("b")}).ok());
  EXPECT_TRUE(r.Append(Tuple{Value("c")}).ok());
  return r;
}

TEST(RelationScanTest, ProducesAllRowsInOrder) {
  const Relation r = ThreeRows();
  RelationScan scan(&r);
  ASSERT_TRUE(scan.Open().ok());
  ColumnBatch batch(&r.schema(), 2);
  std::vector<std::string> seen;
  while (true) {
    ASSERT_TRUE(scan.NextColumnBatch(&batch).ok());
    if (batch.empty()) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      seen.emplace_back(batch.StringAt(0, i));
    }
  }
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(scan.Close().ok());
}

TEST(RelationScanTest, NextAfterExhaustionStaysAtEos) {
  const Relation r = ThreeRows();
  RelationScan scan(&r);
  ASSERT_TRUE(scan.Open().ok());
  ColumnBatch batch(&r.schema(), 3);
  ASSERT_TRUE(scan.NextColumnBatch(&batch).ok());
  ASSERT_EQ(batch.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(scan.NextColumnBatch(&batch).ok());
    EXPECT_TRUE(batch.empty());
  }
}

TEST(RelationScanTest, LifecycleErrors) {
  const Relation r = ThreeRows();
  RelationScan scan(&r);
  ColumnBatch batch(&r.schema());
  EXPECT_TRUE(scan.NextColumnBatch(&batch).IsFailedPrecondition());
  EXPECT_TRUE(scan.Close().IsFailedPrecondition());
  ASSERT_TRUE(scan.Open().ok());
  EXPECT_TRUE(scan.Open().IsFailedPrecondition());
  ASSERT_TRUE(scan.Close().ok());
  EXPECT_TRUE(scan.Close().IsFailedPrecondition());
}

TEST(RelationScanTest, ReopenRestarts) {
  const Relation r = ThreeRows();
  RelationScan scan(&r);
  ColumnBatch batch(&r.schema(), 1);
  ASSERT_TRUE(scan.Open().ok());
  ASSERT_TRUE(scan.NextColumnBatch(&batch).ok());
  ASSERT_TRUE(scan.Close().ok());
  ASSERT_TRUE(scan.Open().ok());
  ASSERT_TRUE(scan.NextColumnBatch(&batch).ok());
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.StringAt(0, 0), "a");
  ASSERT_TRUE(scan.Close().ok());
}

TEST(RelationScanTest, AlwaysQuiescent) {
  const Relation r = ThreeRows();
  RelationScan scan(&r);
  EXPECT_TRUE(scan.quiescent());
}

}  // namespace
}  // namespace exec
}  // namespace aqp
