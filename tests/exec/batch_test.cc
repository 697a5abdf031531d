// The vectorized operator protocol: NextColumnBatch contracts on
// sources, the batched drains, and batch-boundary quiescence of the
// symmetric join.

#include <gtest/gtest.h>

#include "exec/scan.h"
#include "exec/sink.h"
#include "exec/stream.h"
#include "join/shjoin.h"
#include "storage/column_batch.h"

namespace aqp {
namespace exec {
namespace {

using storage::ColumnBatch;
using storage::Relation;
using storage::Schema;
using storage::Tuple;
using storage::Value;
using storage::ValueType;

Schema OneInt() { return Schema({{"x", ValueType::kInt64}}); }
Schema OneString() { return Schema({{"s", ValueType::kString}}); }

Relation Ints(int n) {
  Relation r(OneInt());
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(r.Append(Tuple{Value(i)}).ok());
  }
  return r;
}

Relation Strings(const std::vector<std::string>& values) {
  Relation r(OneString());
  for (const auto& v : values) {
    EXPECT_TRUE(r.Append(Tuple{Value(v)}).ok());
  }
  return r;
}

TEST(NextBatchTest, RelationScanFillsWholeBatches) {
  const Relation r = Ints(10);
  RelationScan scan(&r);
  ASSERT_TRUE(scan.Open().ok());
  ColumnBatch batch(&r.schema(), 4);
  std::vector<int64_t> seen;
  while (true) {
    ASSERT_TRUE(scan.NextColumnBatch(&batch).ok());
    if (batch.empty()) break;
    EXPECT_LE(batch.size(), 4u);
    for (size_t i = 0; i < batch.size(); ++i) {
      seen.push_back(batch.Int64At(0, i));
    }
  }
  ASSERT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(seen[i], i);
  // Batch sizes: 4, 4, 2 — the last one partial.
  ASSERT_TRUE(scan.Close().ok());
}

TEST(NextBatchTest, NotOpenFails) {
  const Relation r = Ints(3);
  RelationScan scan(&r);
  ColumnBatch batch(&r.schema(), 4);
  EXPECT_TRUE(scan.NextColumnBatch(&batch).IsFailedPrecondition());
}

TEST(NextBatchTest, GeneratorSourceHonorsCapacity) {
  int produced = 0;
  GeneratorSource src(OneInt(), [&]() -> std::optional<Tuple> {
    if (produced >= 5) return std::nullopt;
    return Tuple{Value(produced++)};
  });
  ASSERT_TRUE(src.Open().ok());
  ColumnBatch batch(&src.output_schema(), 3);
  ASSERT_TRUE(src.NextColumnBatch(&batch).ok());
  EXPECT_EQ(batch.size(), 3u);
  ASSERT_TRUE(src.NextColumnBatch(&batch).ok());
  EXPECT_EQ(batch.size(), 2u);
  ASSERT_TRUE(src.NextColumnBatch(&batch).ok());
  EXPECT_TRUE(batch.empty());
}

TEST(BatchedDrainTest, CollectAllIdenticalAcrossBatchSizes) {
  const Relation r = Ints(100);
  ExecOptions tiny;
  tiny.batch_size = 1;
  ExecOptions big;
  big.batch_size = 64;
  RelationScan s1(&r);
  RelationScan s2(&r);
  auto c1 = CollectAll(&s1, tiny);
  auto c2 = CollectAll(&s2, big);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  ASSERT_EQ(c1->size(), c2->size());
  for (size_t i = 0; i < c1->size(); ++i) {
    EXPECT_EQ(c1->row(i), c2->row(i));
  }
}

TEST(BatchedDrainTest, DrainLimitAndEarlyStopUnaffectedByBatching) {
  const Relation r = Ints(50);
  RelationScan scan(&r);
  DrainOptions options;
  options.limit = 7;
  options.batch_size = 16;
  size_t visited = 0;
  auto count = Drain(&scan, [&](const Tuple&) {
    ++visited;
    return true;
  }, options);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 7u);
  EXPECT_EQ(visited, 7u);

  RelationScan scan2(&r);
  size_t visited2 = 0;
  auto count2 = Drain(&scan2, [&](const Tuple& t) {
    ++visited2;
    return t.at(0).AsInt64() < 4;  // stop after visiting 4
  });
  ASSERT_TRUE(count2.ok());
  EXPECT_EQ(*count2, 5u);
  EXPECT_EQ(visited2, 5u);
}

/// Join subclass recording when the engine declares quiescent points
/// and how it clamps step batches.
class ProbingJoin : public join::SymmetricJoin {
 public:
  ProbingJoin(Operator* left, Operator* right,
              join::SymmetricJoinOptions options, uint64_t control_every)
      : SymmetricJoin(left, right, std::move(options),
                      join::ProbeMode::kExact, join::ProbeMode::kExact,
                      "ProbingJoin"),
        control_every_(control_every) {}

  size_t quiescent_calls = 0;
  size_t non_quiescent_calls = 0;
  std::vector<size_t> batch_step_counts;

 protected:
  Status OnQuiescentPoint() override {
    ++quiescent_calls;
    // Batch boundaries are quiescent by construction: no produced-but-
    // undelivered output may be pending when adaptation could fire...
    if (!quiescent()) ++non_quiescent_calls;
    return Status::OK();
  }
  uint64_t StepsUntilControlPoint() const override {
    if (control_every_ == 0) return kNoControlPoint;
    const uint64_t next = ((steps() / control_every_) + 1) * control_every_;
    return next - steps();
  }
  void OnBatchCompleted(const join::StepBatchStats& batch) override {
    batch_step_counts.push_back(batch.steps.size());
  }

 private:
  uint64_t control_every_;
};

TEST(BatchQuiescenceTest, BoundariesAreQuiescentAndClampedToControlPoints) {
  const Relation left = Strings({"A", "B", "C", "D", "E", "F", "G", "H"});
  const Relation right = Strings({"A", "B", "C", "D", "E", "F", "G", "H"});
  RelationScan ls(&left);
  RelationScan rs(&right);
  join::SymmetricJoinOptions options;
  options.batch_size = 64;  // larger than the clamp: the clamp must win
  ProbingJoin join(&ls, &rs, options, /*control_every=*/3);
  auto collected = CollectAll(&join);
  ASSERT_TRUE(collected.ok());
  EXPECT_EQ(collected->size(), 8u);  // equi-join pairs
  EXPECT_EQ(join.steps(), 16u);
  // Every quiescent-point callback found the operator quiescent.
  EXPECT_GT(join.quiescent_calls, 0u);
  EXPECT_EQ(join.non_quiescent_calls, 0u);
  // No step batch ran past the declared control boundary.
  size_t total_steps = 0;
  for (size_t n : join.batch_step_counts) {
    EXPECT_LE(n, 3u);
    total_steps += n;
  }
  EXPECT_EQ(total_steps, 16u);
  EXPECT_TRUE(join.quiescent());
}

/// Drives `join` to end-of-stream through NextColumnBatch with batches
/// of `capacity` rows; sets *spilled when any call left match refs
/// buffered for a later call.
std::vector<Tuple> DriveColumnBatches(join::SymmetricJoin* join,
                                      size_t capacity, bool* spilled) {
  std::vector<Tuple> rows;
  EXPECT_TRUE(join->Open().ok());
  ColumnBatch batch(nullptr, capacity);
  while (true) {
    EXPECT_TRUE(join->NextColumnBatch(&batch).ok());
    if (batch.empty()) break;
    EXPECT_LE(batch.size(), capacity);
    for (size_t i = 0; i < batch.size(); ++i) {
      rows.push_back(batch.MaterializeRow(i));
    }
    if (!join->quiescent()) *spilled = true;
  }
  EXPECT_TRUE(join->Close().ok());
  return rows;
}

TEST(BatchQuiescenceTest, CapacityOneAndTwoDrivesProduceIdenticalResults) {
  // Steps that produce more matches than the caller's batch has room
  // for spill the rest to pending_, which later calls deliver first.
  // Batches of one and two rows force that path on different edges.
  const Relation left =
      Strings({"AAA", "BBB", "CCC", "AAA", "DDD", "EEE", "BBB"});
  const Relation right = Strings({"BBB", "AAA", "FFF", "AAA"});
  RelationScan l1(&left);
  RelationScan r1(&right);
  ProbingJoin j1(&l1, &r1, join::SymmetricJoinOptions{}, 0);
  bool spilled1 = false;
  const std::vector<Tuple> one = DriveColumnBatches(&j1, 1, &spilled1);
  RelationScan l2(&left);
  RelationScan r2(&right);
  ProbingJoin j2(&l2, &r2, join::SymmetricJoinOptions{}, 0);
  bool spilled2 = false;
  const std::vector<Tuple> two = DriveColumnBatches(&j2, 2, &spilled2);
  EXPECT_TRUE(spilled1);
  EXPECT_TRUE(spilled2);
  // Spilled refs are delivered before the next step runs, so every
  // quiescent point still finds nothing buffered.
  EXPECT_EQ(j1.non_quiescent_calls, 0u);
  EXPECT_EQ(j2.non_quiescent_calls, 0u);
  ASSERT_FALSE(one.empty());
  ASSERT_EQ(one.size(), two.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], two[i]) << "row " << i;
  }
}

/// RelationScan wrapper whose next refill fails once when armed.
class ArmableScan : public Operator {
 public:
  explicit ArmableScan(const Relation* rows) : scan_(rows) {}
  Status Open() override { return scan_.Open(); }
  Status NextColumnBatch(ColumnBatch* out) override {
    if (fail_next) {
      fail_next = false;
      return Status::Unavailable("refill failed");
    }
    return scan_.NextColumnBatch(out);
  }
  Status Close() override { return scan_.Close(); }
  const Schema& output_schema() const override {
    return scan_.output_schema();
  }
  std::string name() const override { return "ArmableScan"; }

  bool fail_next = false;

 private:
  RelationScan scan_;
};

TEST(BatchQuiescenceTest, FailedPullKeepsSpilledRefs) {
  // Steps alternate L0 R0 L1 R1 L2: R1 matches L0 and L1, so a one-row
  // pull leaves (L1, R1) spilled. The next pull delivers it first and
  // then steps L2, whose refill fails: the spilled ref must survive
  // the failed call and arrive with the next one.
  const Relation left = Strings({"K", "K", "X"});
  const Relation right = Strings({"Y", "K"});
  join::SymmetricJoinOptions options;
  options.batch_size = 1;  // one row per child refill
  RelationScan clean_left(&left);
  RelationScan clean_right(&right);
  join::SHJoin clean(&clean_left, &clean_right, options);
  auto expected = CollectAll(&clean);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->size(), 2u);

  ArmableScan flaky_left(&left);
  RelationScan flaky_right(&right);
  join::SHJoin join(&flaky_left, &flaky_right, options);
  ASSERT_TRUE(join.Open().ok());
  std::vector<Tuple> rows;
  ColumnBatch one(nullptr, 1);
  ASSERT_TRUE(join.NextColumnBatch(&one).ok());
  ASSERT_EQ(one.size(), 1u);
  rows.push_back(one.MaterializeRow(0));
  ASSERT_FALSE(join.quiescent());

  flaky_left.fail_next = true;
  ColumnBatch two(nullptr, 2);
  EXPECT_TRUE(join.NextColumnBatch(&two).IsUnavailable());
  EXPECT_TRUE(two.empty());
  EXPECT_FALSE(join.quiescent());
  while (true) {
    ASSERT_TRUE(join.NextColumnBatch(&two).ok());
    if (two.empty()) break;
    for (size_t i = 0; i < two.size(); ++i) {
      rows.push_back(two.MaterializeRow(i));
    }
  }
  ASSERT_TRUE(join.Close().ok());
  ASSERT_EQ(rows.size(), expected->size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], expected->row(i)) << "row " << i;
  }
}

}  // namespace
}  // namespace exec
}  // namespace aqp
