#include "exec/operator.h"

#include <gtest/gtest.h>

#include "exec/scan.h"

namespace aqp {
namespace exec {
namespace {

using storage::Relation;
using storage::Schema;
using storage::Tuple;
using storage::Value;
using storage::ValueType;

Relation SmallRelation() {
  Relation r(Schema({{"x", ValueType::kInt64}}));
  EXPECT_TRUE(r.Append(Tuple{Value(1)}).ok());
  EXPECT_TRUE(r.Append(Tuple{Value(2)}).ok());
  EXPECT_TRUE(r.Append(Tuple{Value(3)}).ok());
  return r;
}

TEST(OperatorTest, SideHelpers) {
  EXPECT_EQ(OtherSide(Side::kLeft), Side::kRight);
  EXPECT_EQ(OtherSide(Side::kRight), Side::kLeft);
  EXPECT_STREQ(SideName(Side::kLeft), "left");
  EXPECT_STREQ(SideName(Side::kRight), "right");
}

TEST(OperatorTest, CollectAllMaterializes) {
  const Relation r = SmallRelation();
  RelationScan scan(&r);
  auto collected = CollectAll(&scan);
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected->size(), 3u);
  EXPECT_EQ(collected->row(2).at(0).AsInt64(), 3);
  EXPECT_EQ(collected->schema(), r.schema());
}

TEST(OperatorTest, CountAll) {
  const Relation r = SmallRelation();
  RelationScan scan(&r);
  auto count = CountAll(&scan);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 3u);
}

/// Operator that fails on its nth row — exercises error propagation
/// through the drain helpers.
class FailingOperator : public Operator {
 public:
  explicit FailingOperator(int fail_at) : fail_at_(fail_at) {}
  Status Open() override {
    open_ = true;
    return Status::OK();
  }
  Status NextColumnBatch(storage::ColumnBatch* out) override {
    out->Reset(&schema_);
    while (!out->full()) {
      if (++calls_ >= fail_at_) {
        out->Clear();
        return Status::Internal("synthetic failure");
      }
      out->AppendTupleRow(Tuple{Value(calls_)});
    }
    return Status::OK();
  }
  Status Close() override {
    closed_ = true;
    return Status::OK();
  }
  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "FailingOperator"; }
  bool closed() const { return closed_; }

 private:
  Schema schema_{{{"x", ValueType::kInt64}}};
  int fail_at_;
  int calls_ = 0;
  bool open_ = false;
  bool closed_ = false;
};

TEST(OperatorTest, CollectAllPropagatesErrorAndCloses) {
  FailingOperator op(3);
  auto collected = CollectAll(&op);
  EXPECT_FALSE(collected.ok());
  EXPECT_TRUE(collected.status().IsInternal());
  EXPECT_TRUE(op.closed());
}

TEST(OperatorTest, CountAllPropagatesError) {
  FailingOperator op(1);
  EXPECT_TRUE(CountAll(&op).status().IsInternal());
}

}  // namespace
}  // namespace exec
}  // namespace aqp
