#include <gtest/gtest.h>

#include <string>

#include "common/failpoint.h"
#include "service/admission.h"
#include "service/linkage_service.h"
#include "service/query.h"

namespace aqp {
namespace service {
namespace {

/// Source that fails at a chosen point in its life: at Open, or with
/// `fault` after `good_rows` produced rows (an OK fault means a normal
/// end-of-stream — a well-behaved source).
class BrittleSource : public exec::Operator {
 public:
  BrittleSource(bool fail_open, int good_rows, Status fault)
      : schema_({{"s", storage::ValueType::kString}}),
        fail_open_(fail_open),
        good_rows_(good_rows),
        fault_(std::move(fault)) {}
  Status Open() override {
    if (fail_open_) return Status::IOError("open refused");
    produced_ = 0;
    return Status::OK();
  }
  Status NextColumnBatch(storage::ColumnBatch* out) override {
    out->Reset(&schema_);
    while (!out->full()) {
      if (produced_ >= good_rows_) {
        if (fault_.ok()) break;
        out->Clear();
        return fault_;
      }
      const int i = produced_++;
      out->AppendTupleRow(
          storage::Tuple{storage::Value("KEY " + std::to_string(i % 7))});
    }
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  const storage::Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "BrittleSource"; }

 private:
  storage::Schema schema_;
  bool fail_open_;
  int good_rows_;
  Status fault_;
  int produced_ = 0;
};

QueryOptions TinyQuery() {
  QueryOptions qo;
  qo.join.base.join.spec.left_column = 0;
  qo.join.base.join.spec.right_column = 0;
  qo.join.base.join.batch_size = 16;
  qo.join.base.adaptive.delta_adapt = 32;
  qo.join.base.adaptive.window = 32;
  qo.join.num_shards = 2;
  return qo;
}

ServiceOptions TinyService() {
  ServiceOptions so;
  so.worker_threads = 1;
  so.admission.max_concurrent_queries = 1;
  so.admission.max_total_shards = 2;
  return so;
}

void ExpectBudgetQuiescent(const LinkageService& service, size_t admitted) {
  EXPECT_EQ(service.running_queries(), 0u);
  EXPECT_EQ(service.shards_in_use(), 0u);
  EXPECT_EQ(service.admitted_total(), admitted);
  EXPECT_EQ(service.released_total(), admitted);
}

// ---------------------------------------------------------------------
// Failure-path budget tests: every terminal path — open failure,
// mid-stream failure, queued cancel, injected finalization failure —
// must release slots and shards exactly once.

TEST(AdmissionFailurePathTest, OpenFailureReleasesTheBudget) {
  LinkageService service(TinyService());
  BrittleSource left(/*fail_open=*/true, 0, Status::OK());
  BrittleSource right(false, 64, Status::OK());
  auto id = service.Submit(&left, &right, TinyQuery());
  ASSERT_TRUE(id.ok());
  auto stats = service.Wait(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->state, QueryState::kFailed);
  EXPECT_TRUE(stats->status.IsIOError()) << stats->status;
  ExpectBudgetQuiescent(service, 1);

  // The freed slot is genuinely reusable.
  BrittleSource left2(false, 64, Status::OK());
  BrittleSource right2(false, 64, Status::OK());
  auto id2 = service.Submit(&left2, &right2, TinyQuery());
  ASSERT_TRUE(id2.ok());
  auto stats2 = service.Wait(*id2);
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(stats2->state, QueryState::kDone) << stats2->status.ToString();
  ExpectBudgetQuiescent(service, 2);
}

TEST(AdmissionFailurePathTest, MidStreamFailureReleasesTheBudget) {
  LinkageService service(TinyService());
  BrittleSource left(false, 40, Status::IOError("mid-stream fault"));
  BrittleSource right(false, 200, Status::OK());
  auto id = service.Submit(&left, &right, TinyQuery());
  ASSERT_TRUE(id.ok());
  auto stats = service.Wait(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->state, QueryState::kFailed);
  EXPECT_TRUE(stats->status.IsIOError()) << stats->status;
  ExpectBudgetQuiescent(service, 1);
}

TEST(AdmissionFailurePathTest, QueuedCancelNeverTouchesTheBudget) {
  LinkageService service(TinyService());
  // Occupy the lone slot...
  BrittleSource left_a(false, 400, Status::OK());
  BrittleSource right_a(false, 400, Status::OK());
  auto a = service.Submit(&left_a, &right_a, TinyQuery());
  ASSERT_TRUE(a.ok());
  // ...and cancel a query stuck behind it in the queue: it terminates
  // without ever being admitted, so it must not release anything.
  BrittleSource left_b(false, 8, Status::OK());
  BrittleSource right_b(false, 8, Status::OK());
  auto b = service.Submit(&left_b, &right_b, TinyQuery());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(service.Cancel(*b).ok());
  auto stats_b = service.Wait(*b);
  ASSERT_TRUE(stats_b.ok());
  EXPECT_EQ(stats_b->state, QueryState::kCancelled);
  auto stats_a = service.Wait(*a);
  ASSERT_TRUE(stats_a.ok());
  EXPECT_EQ(stats_a->state, QueryState::kDone);
  ExpectBudgetQuiescent(service, 1);  // only query A was ever admitted
}

TEST(AdmissionFailurePathTest, RepeatedWaitAndTakeDoNotDoubleRelease) {
  LinkageService service(TinyService());
  BrittleSource left(false, 64, Status::OK());
  BrittleSource right(false, 64, Status::OK());
  auto id = service.Submit(&left, &right, TinyQuery());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Wait(*id).ok());
  ASSERT_TRUE(service.Wait(*id).ok());  // waiting again is harmless
  ASSERT_TRUE(service.TakeResult(*id).ok());
  EXPECT_TRUE(service.TakeResult(*id).status().IsFailedPrecondition());
  ExpectBudgetQuiescent(service, 1);
}

TEST(AdmissionFailurePathTest, AdmitFailpointRejectsBeforeAccounting) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  fail::DisarmAll();
  LinkageService service(TinyService());
  BrittleSource left(false, 8, Status::OK());
  BrittleSource right(false, 8, Status::OK());
  {
    fail::ScopedFailpoint guard(
        fail::site::kServiceAdmit,
        fail::Policy::Once(Status::ResourceExhausted("injected fault")));
    auto id = service.Submit(&left, &right, TinyQuery());
    ASSERT_FALSE(id.ok());
    EXPECT_TRUE(id.status().IsResourceExhausted());
    EXPECT_NE(id.status().message().find("site=service.admit"),
              std::string::npos)
        << id.status();
  }
  // The rejected submission never entered the budget.
  ExpectBudgetQuiescent(service, 0);
  auto id = service.Submit(&left, &right, TinyQuery());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Wait(*id).ok());
  ExpectBudgetQuiescent(service, 1);
}

TEST(AdmissionFailurePathTest, FinalizeFailpointStillReleasesTheBudget) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  fail::DisarmAll();
  LinkageService service(TinyService());
  BrittleSource left(false, 64, Status::OK());
  BrittleSource right(false, 64, Status::OK());
  QueryId id = 0;
  {
    fail::ScopedFailpoint guard(
        fail::site::kServiceFinalize,
        fail::Policy::Once(Status::IOError("injected fault")));
    auto submitted = service.Submit(&left, &right, TinyQuery());
    ASSERT_TRUE(submitted.ok());
    id = *submitted;
    auto stats = service.Wait(id);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->state, QueryState::kFailed);
    EXPECT_NE(stats->status.message().find("site=service.finalize"),
              std::string::npos)
        << stats->status;
    // The breadcrumb names the failing query.
    EXPECT_NE(stats->status.message().find("query=" + std::to_string(id)),
              std::string::npos)
        << stats->status;
  }
  ExpectBudgetQuiescent(service, 1);
}

TEST(AdmissionControllerTest, CapsConcurrentQueries) {
  AdmissionOptions options;
  options.max_concurrent_queries = 2;
  options.max_total_shards = 0;  // no shard budget
  AdmissionController admission(options);

  EXPECT_TRUE(admission.CanAdmit(8));
  admission.Admit(8);
  EXPECT_TRUE(admission.CanAdmit(8));
  admission.Admit(8);
  EXPECT_FALSE(admission.CanAdmit(1));  // slots exhausted
  admission.Release(8);
  EXPECT_TRUE(admission.CanAdmit(4));
  EXPECT_EQ(admission.running_queries(), 1u);
  EXPECT_EQ(admission.peak_running_queries(), 2u);
  EXPECT_EQ(admission.peak_shards_in_use(), 16u);
}

TEST(AdmissionControllerTest, CapsTotalShards) {
  AdmissionOptions options;
  options.max_concurrent_queries = 8;
  options.max_total_shards = 6;
  AdmissionController admission(options);

  EXPECT_TRUE(admission.CanAdmit(4));
  admission.Admit(4);
  EXPECT_FALSE(admission.CanAdmit(3));  // 4 + 3 > 6
  EXPECT_TRUE(admission.CanAdmit(2));
  admission.Admit(2);
  EXPECT_FALSE(admission.CanAdmit(1));
  admission.Release(4);
  EXPECT_TRUE(admission.CanAdmit(4));
  EXPECT_EQ(admission.shards_in_use(), 2u);
}

TEST(AdmissionControllerTest, ClampShardsHonorsBudgetAndFloor) {
  AdmissionOptions options;
  options.max_total_shards = 6;
  AdmissionController admission(options);
  EXPECT_EQ(admission.ClampShards(16), 6u);
  EXPECT_EQ(admission.ClampShards(3), 3u);
  EXPECT_EQ(admission.ClampShards(0), 1u);

  AdmissionOptions unlimited;
  unlimited.max_total_shards = 0;
  AdmissionController no_budget(unlimited);
  EXPECT_EQ(no_budget.ClampShards(16), 16u);
  EXPECT_EQ(no_budget.ClampShards(0), 1u);
}

TEST(AdmissionControllerTest, ZeroConcurrencyIsClampedToOne) {
  AdmissionOptions options;
  options.max_concurrent_queries = 0;
  AdmissionController admission(options);
  EXPECT_TRUE(admission.CanAdmit(1));
  admission.Admit(1);
  EXPECT_FALSE(admission.CanAdmit(1));
}

TEST(QueryStateTest, NamesAndTerminality) {
  EXPECT_STREQ(QueryStateName(QueryState::kQueued), "queued");
  EXPECT_STREQ(QueryStateName(QueryState::kRunning), "running");
  EXPECT_STREQ(QueryStateName(QueryState::kDraining), "draining");
  EXPECT_STREQ(QueryStateName(QueryState::kDone), "done");
  EXPECT_STREQ(QueryStateName(QueryState::kFailed), "failed");
  EXPECT_STREQ(QueryStateName(QueryState::kCancelled), "cancelled");

  EXPECT_FALSE(IsTerminalState(QueryState::kQueued));
  EXPECT_FALSE(IsTerminalState(QueryState::kRunning));
  EXPECT_FALSE(IsTerminalState(QueryState::kDraining));
  EXPECT_TRUE(IsTerminalState(QueryState::kDone));
  EXPECT_TRUE(IsTerminalState(QueryState::kFailed));
  EXPECT_TRUE(IsTerminalState(QueryState::kCancelled));
}

TEST(DeadlineOptionsTest, AnyDetectsEveryBudgetKind) {
  DeadlineOptions none;
  EXPECT_FALSE(none.any());
  DeadlineOptions soft_steps;
  soft_steps.soft_deadline_steps = 10;
  EXPECT_TRUE(soft_steps.any());
  DeadlineOptions hard_wall;
  hard_wall.hard_deadline = std::chrono::milliseconds(5);
  EXPECT_TRUE(hard_wall.any());
}

}  // namespace
}  // namespace service
}  // namespace aqp
