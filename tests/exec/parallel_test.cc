#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/hash.h"
#include "datagen/generator.h"
#include "exec/parallel/exchange.h"
#include "exec/parallel/parallel_join.h"
#include "exec/parallel/shard.h"
#include "exec/parallel/thread_pool.h"
#include "exec/scan.h"
#include "join/shjoin.h"
#include "join/sshjoin.h"

namespace aqp {
namespace exec {
namespace parallel {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back([&hits, i] { ++hits[i]; });
  }
  pool.Run(std::move(tasks));
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPoolTest, RunIsABarrierAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 10; ++batch) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 7; ++i) {
      tasks.push_back([&counter] { ++counter; });
    }
    pool.Run(std::move(tasks));
    // Every task of the batch completed before Run() returned.
    EXPECT_EQ(counter.load(), (batch + 1) * 7);
  }
}

TEST(ThreadPoolTest, EmptyBatchReturnsImmediately) {
  ThreadPool pool(2);
  pool.Run({});
  SUCCEED();
}

TEST(ThreadPoolTest, SubmitReturnsHandleAndWaitIsABarrier) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([&done] { ++done; });
  }
  TaskGroupHandle handle = pool.Submit(std::move(tasks));
  ASSERT_TRUE(handle.valid());
  handle.Wait();
  EXPECT_EQ(done.load(), 16);
  // Waiting again is harmless.
  handle.Wait();
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPoolTest, EmptyGroupHandleIsAlreadyComplete) {
  ThreadPool pool(1);
  TaskGroupHandle empty;
  EXPECT_FALSE(empty.valid());
  empty.Wait();  // no-op
  TaskGroupHandle submitted = pool.Submit({});
  EXPECT_TRUE(submitted.valid());
  submitted.Wait();
  SUCCEED();
}

TEST(ThreadPoolTest, ConcurrentGroupsAllCompleteIndependently) {
  // Two groups in flight at once: each Wait() is a barrier for its own
  // group only, and every task of both groups runs exactly once.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits_a(32), hits_b(32);
  std::vector<std::function<void()>> a, b;
  for (size_t i = 0; i < hits_a.size(); ++i) {
    a.push_back([&hits_a, i] { ++hits_a[i]; });
    b.push_back([&hits_b, i] { ++hits_b[i]; });
  }
  TaskGroupHandle ha = pool.Submit(std::move(a));
  TaskGroupHandle hb = pool.Submit(std::move(b));
  hb.Wait();
  for (const auto& hit : hits_b) EXPECT_EQ(hit.load(), 1);
  ha.Wait();
  for (const auto& hit : hits_a) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, ManyThreadsShareOnePoolSafely) {
  // The multi-query serving pattern: several client threads each
  // submit group after group to one shared pool and wait on each —
  // run under TSan in CI.
  ThreadPool pool(3);
  constexpr int kClients = 4;
  constexpr int kRounds = 25;
  std::atomic<int> total{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&pool, &total] {
      for (int r = 0; r < kRounds; ++r) {
        // Atomic: tasks of one group may run concurrently on several
        // workers; only the final read is ordered by the barrier.
        std::atomic<int> local{0};
        std::vector<std::function<void()>> tasks;
        for (int t = 0; t < 5; ++t) {
          tasks.push_back([&local, &total] {
            ++total;
            ++local;
          });
        }
        pool.Run(std::move(tasks));
        // Run() returned, so every task of *this* group completed.
        ASSERT_EQ(local.load(), 5);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(total.load(), kClients * kRounds * 5);
}

TEST(ThreadPoolTest, FairDispatchInterleavesAWideGroupWithANarrowOne) {
  // A wide group submitted first must not fully drain before a narrow
  // group submitted after it gets dispatched: round-robin gives the
  // narrow group's single task one of the next dispatch slots, so it
  // cannot finish last behind 200 wide tasks on a lone worker.
  ThreadPool pool(1);
  std::atomic<bool> narrow_submitted{false};
  std::atomic<int> wide_done{0};
  std::atomic<int> wide_done_when_narrow_ran{-1};
  std::vector<std::function<void()>> wide;
  // The first wide task holds the lone worker until the narrow group
  // is in the ring, so the wide group cannot drain before the race is
  // actually set up.
  wide.push_back([&narrow_submitted, &wide_done] {
    while (!narrow_submitted.load()) std::this_thread::yield();
    ++wide_done;
  });
  for (int i = 1; i < 200; ++i) {
    wide.push_back([&wide_done] { ++wide_done; });
  }
  TaskGroupHandle hw = pool.Submit(std::move(wide));
  TaskGroupHandle hn = pool.Submit({[&wide_done, &wide_done_when_narrow_ran] {
    wide_done_when_narrow_ran = wide_done.load();
  }});
  narrow_submitted = true;
  // Deliberately no Wait() yet: the waiter would claim its own group's
  // task itself and the *worker's* dispatch order would go untested.
  // Only the lone worker can run the narrow task here.
  while (wide_done_when_narrow_ran.load() < 0) std::this_thread::yield();
  hn.Wait();
  hw.Wait();
  EXPECT_EQ(wide_done.load(), 200);
  // Round-robin gave the narrow group the dispatch slot right after
  // the gated wide task — oldest-group-first draining would have run
  // all 200 wide tasks before it.
  EXPECT_GE(wide_done_when_narrow_ran.load(), 1);
  EXPECT_LE(wide_done_when_narrow_ran.load(), 2);
}

datagen::TestCase SmallCase() {
  datagen::TestCaseOptions options;
  options.atlas.size = 120;
  options.accidents.size = 240;
  options.variant_rate = 0.10;
  options.seed = 7;
  auto tc = datagen::GenerateTestCase(options);
  EXPECT_TRUE(tc.ok());
  return std::move(*tc);
}

join::JoinSpec Spec() {
  join::JoinSpec spec;
  spec.left_column = datagen::kAccidentsLocationColumn;
  spec.right_column = datagen::kAtlasLocationColumn;
  spec.sim_threshold = 0.85;
  return spec;
}

TEST(RadixExchangeTest, ReplaysTheSingleThreadedSchedule) {
  const datagen::TestCase tc = SmallCase();
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ASSERT_TRUE(child.Open().ok());
  ASSERT_TRUE(parent.Open().ok());

  std::vector<std::unique_ptr<JoinShard>> shards;
  std::vector<JoinShard*> ptrs;
  for (uint32_t i = 0; i < 3; ++i) {
    shards.push_back(std::make_unique<JoinShard>(
        i, Spec(), join::ApproxProbeOptions{},
        adaptive::ProcessorState::kLexRex));
    // Production flow: the coordinator binds side schemas before any
    // routing; without it the shard batches scatter into a bare layout
    // (caught by assert in Debug builds).
    shards.back()->BindSchemas(&child.output_schema(),
                               &parent.output_schema());
    ptrs.push_back(shards.back().get());
  }
  RadixExchange exchange(&child, &parent, Spec(),
                         exec::InterleavePolicy::kAlternate, 0, 0, 64, 3);
  exchange.Reset();

  std::vector<RouteEntry> route;
  auto routed = exchange.RouteEpoch(50, ptrs, &route);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(*routed, 50u);
  ASSERT_EQ(route.size(), 50u);
  // Strict alternation starting from the left, both inputs alive.
  for (size_t i = 0; i < route.size(); ++i) {
    EXPECT_EQ(route[i].side,
              i % 2 == 0 ? exec::Side::kLeft : exec::Side::kRight);
  }
  // Per-side ordinals count up contiguously.
  EXPECT_EQ(route[0].ordinal, 0u);
  EXPECT_EQ(route[1].ordinal, 0u);
  EXPECT_EQ(route[2].ordinal, 1u);
  EXPECT_EQ(exchange.steps(), 50u);
  EXPECT_EQ(exchange.side_count(exec::Side::kLeft), 25u);
  EXPECT_EQ(exchange.side_count(exec::Side::kRight), 25u);

  // Route everything; the totals must cover both inputs exactly.
  while (true) {
    auto more = exchange.RouteEpoch(1000, ptrs, &route);
    ASSERT_TRUE(more.ok());
    if (*more == 0) break;
  }
  EXPECT_EQ(exchange.side_count(exec::Side::kLeft), tc.child.size());
  EXPECT_EQ(exchange.side_count(exec::Side::kRight), tc.parent.size());
  EXPECT_TRUE(exchange.input_exhausted(exec::Side::kLeft));
  EXPECT_TRUE(exchange.input_exhausted(exec::Side::kRight));

  // Routing is a pure function of the join key: same key, same shard;
  // and the per-shard seq/ordinal maps stay consistent with the route.
  size_t total_routed = 0;
  for (const JoinShard* shard : ptrs) {
    total_routed += shard->routed_count(exec::Side::kLeft);
    total_routed += shard->routed_count(exec::Side::kRight);
  }
  EXPECT_EQ(total_routed, tc.child.size() + tc.parent.size());
  ASSERT_TRUE(child.Close().ok());
  ASSERT_TRUE(parent.Close().ok());
}

/// Two shards fed by one exchange over the small case.
struct ShardRig {
  explicit ShardRig(const datagen::TestCase& tc)
      : child(&tc.child),
        parent(&tc.parent),
        exchange(&child, &parent, Spec(), exec::InterleavePolicy::kAlternate,
                 0, 0, 16, 2) {
    EXPECT_TRUE(child.Open().ok());
    EXPECT_TRUE(parent.Open().ok());
    for (uint32_t i = 0; i < 2; ++i) {
      shards.push_back(std::make_unique<JoinShard>(
          i, Spec(), join::ApproxProbeOptions{},
          adaptive::ProcessorState::kLexRex));
      shards.back()->BindSchemas(&child.output_schema(),
                                 &parent.output_schema());
      ptrs.push_back(shards.back().get());
    }
    exchange.Reset();
  }
  /// Routes and builds one epoch of up to `steps` steps.
  void Epoch(uint64_t steps) {
    std::vector<RouteEntry> route;
    ASSERT_TRUE(exchange.RouteEpoch(steps, ptrs, &route).ok());
    for (JoinShard* shard : ptrs) {
      shard->BeginEpoch();
      shard->RunBuildPhase();
    }
  }
  exec::RelationScan child;
  exec::RelationScan parent;
  RadixExchange exchange;
  std::vector<std::unique_ptr<JoinShard>> shards;
  std::vector<JoinShard*> ptrs;
};

TEST(JoinShardRollbackTest, RollbackToAStepMatchesAShardThatStoppedThere) {
  // `rolled` builds a 300-step epoch, rolls back to step 170 and enters
  // lap/rap there; `prefix` builds 170 steps, enters lap/rap, and then
  // builds the remaining 130. Both must catch up the same tuples, hold
  // the same indexes, and then produce the same matches for the rest.
  const datagen::TestCase tc = SmallCase();
  ShardRig rolled(tc);
  ShardRig prefix(tc);
  rolled.Epoch(300);
  prefix.Epoch(170);
  for (size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(testing::Message() << "shard " << i);
    rolled.ptrs[i]->RollbackTo(170);
    const auto caught_up =
        prefix.ptrs[i]->ApplyState(adaptive::ProcessorState::kLapRap);
    EXPECT_GT(caught_up.first + caught_up.second, 0u);
    EXPECT_EQ(rolled.ptrs[i]->ApplyState(adaptive::ProcessorState::kLapRap),
              caught_up);
    for (exec::Side side : {exec::Side::kLeft, exec::Side::kRight}) {
      const join::HybridJoinCore& a = rolled.ptrs[i]->core();
      const join::HybridJoinCore& b = prefix.ptrs[i]->core();
      ASSERT_EQ(a.store(side).size(), b.store(side).size());
      EXPECT_EQ(a.exact_index(side).watermark(),
                b.exact_index(side).watermark());
      EXPECT_EQ(a.qgram_index(side).watermark(),
                b.qgram_index(side).watermark());
      EXPECT_EQ(a.qgram_index(side).distinct_grams(),
                b.qgram_index(side).distinct_grams());
      for (storage::TupleId id = 0; id < b.store(side).size(); ++id) {
        const std::string_view key = b.store(side).JoinKey(id);
        ASSERT_EQ(a.store(side).JoinKey(id), key);
        EXPECT_EQ(a.exact_index(side).Lookup(key),
                  b.exact_index(side).Lookup(key));
      }
    }
  }
  // The rest of the input: the rolled shards rerun their epoch from
  // step 170, the prefix shards build a new epoch.
  for (JoinShard* shard : rolled.ptrs) {
    shard->BeginEpoch();
    shard->RunBuildPhase(170);
  }
  prefix.Epoch(130);
  for (size_t i = 0; i < 2; ++i) {
    const JoinShard& a = *rolled.ptrs[i];
    const JoinShard& b = *prefix.ptrs[i];
    ASSERT_EQ(a.step_outputs().size(), b.step_outputs().size());
    ASSERT_GT(b.matches().size(), 0u);
    ASSERT_EQ(a.matches().size(), b.matches().size());
    for (size_t m = 0; m < b.matches().size(); ++m) {
      EXPECT_EQ(a.matches()[m].probe_id, b.matches()[m].probe_id);
      EXPECT_EQ(a.matches()[m].stored_id, b.matches()[m].stored_id);
      EXPECT_EQ(a.matches()[m].kind, b.matches()[m].kind);
    }
  }
}

TEST(RadixExchangeTest, EqualKeysAlwaysLandOnTheSameShard) {
  // The radix invariant behind intra-shard exact matching.
  const datagen::TestCase tc = SmallCase();
  const size_t num_shards = 5;
  std::map<std::string, uint32_t> assigned;
  for (size_t i = 0; i < tc.parent.size(); ++i) {
    const std::string key(tc.parent.StringAt(datagen::kAtlasLocationColumn, i));
    const uint32_t shard =
        static_cast<uint32_t>(Mix64(Fnv1a64(key)) % num_shards);
    auto [it, inserted] = assigned.emplace(key, shard);
    if (!inserted) {
      EXPECT_EQ(it->second, shard) << key;
    }
  }
}

TEST(ParallelJoinTest, PinnedExactCountsMatchSHJoin) {
  const datagen::TestCase tc = SmallCase();
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  join::SymmetricJoinOptions jo;
  jo.spec = Spec();
  join::SHJoin reference(&child, &parent, jo);
  auto expected = exec::CountAll(&reference);
  ASSERT_TRUE(expected.ok());

  exec::RelationScan child2(&tc.child);
  exec::RelationScan parent2(&tc.parent);
  ParallelJoinOptions options;
  options.base.join.spec = Spec();
  options.base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
  options.base.adaptive.initial_state = adaptive::ProcessorState::kLexRex;
  options.num_shards = 3;
  ParallelAdaptiveJoin join(&child2, &parent2, options);
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, *expected);
  EXPECT_EQ(join.pairs_emitted(), *expected);
  EXPECT_EQ(join.approximate_pairs(), 0u);
}

TEST(ParallelJoinTest, PinnedApproximateCountsMatchSSHJoin) {
  const datagen::TestCase tc = SmallCase();
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  join::SymmetricJoinOptions jo;
  jo.spec = Spec();
  join::SSHJoin reference(&child, &parent, jo);
  auto expected = exec::CountAll(&reference);
  ASSERT_TRUE(expected.ok());

  exec::RelationScan child2(&tc.child);
  exec::RelationScan parent2(&tc.parent);
  ParallelJoinOptions options;
  options.base.join.spec = Spec();
  options.base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
  options.base.adaptive.initial_state = adaptive::ProcessorState::kLapRap;
  options.num_shards = 4;
  ParallelAdaptiveJoin join(&child2, &parent2, options);
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, *expected);
  // An approximate run over perturbed data finds cross-shard variants.
  EXPECT_GT(join.approximate_pairs(), 0u);
}

TEST(ParallelJoinTest, EmptyInputsProduceNoRowsAndNoTrace) {
  storage::Schema schema = SmallCase().child.schema();
  storage::Relation empty_left(schema);
  storage::Relation empty_right(SmallCase().parent.schema());
  exec::RelationScan left(&empty_left);
  exec::RelationScan right(&empty_right);
  ParallelJoinOptions options;
  options.base.join.spec = Spec();
  options.num_shards = 2;
  ParallelAdaptiveJoin join(&left, &right, options);
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 0u);
  EXPECT_EQ(join.steps(), 0u);
  EXPECT_EQ(join.trace().size(), 0u);
}

TEST(ParallelJoinTest, DistinctMatchedSeesCrossShardMatches) {
  // The coordinator's global matched-any statistic must include pairs
  // the shard-local cores cannot see (cross-shard approximate
  // matches); it feeds the binomial completeness model.
  const datagen::TestCase tc = SmallCase();
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelJoinOptions options;
  options.base.join.spec = Spec();
  options.base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
  options.base.adaptive.initial_state = adaptive::ProcessorState::kLapRap;
  options.num_shards = 4;
  ParallelAdaptiveJoin join(&child, &parent, options);
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok());

  uint64_t intra_shard_distinct = 0;
  for (size_t i = 0; i < join.num_shards(); ++i) {
    intra_shard_distinct +=
        join.shard(i).core().store(exec::Side::kLeft).matched_any_count();
  }
  EXPECT_GE(join.distinct_matched(exec::Side::kLeft), intra_shard_distinct);
  EXPECT_GT(join.distinct_matched(exec::Side::kLeft), 0u);
}

TEST(ParallelJoinTest, MatchRefsAddressTheRightShardStores) {
  const datagen::TestCase tc = SmallCase();
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelJoinOptions options;
  options.base.join.spec = Spec();
  options.num_shards = 3;
  ParallelAdaptiveJoin join(&child, &parent, options);
  ASSERT_TRUE(join.Open().ok());
  std::vector<ParallelMatchRef> refs;
  size_t seen = 0;
  while (true) {
    ASSERT_TRUE(join.NextMatchRefs(64, &refs).ok());
    if (refs.empty()) break;
    for (const ParallelMatchRef& ref : refs) {
      ASSERT_LT(ref.left_shard, join.num_shards());
      ASSERT_LT(ref.right_shard, join.num_shards());
      const auto& left_store =
          join.shard(ref.left_shard).core().store(exec::Side::kLeft);
      const auto& right_store =
          join.shard(ref.right_shard).core().store(exec::Side::kRight);
      ASSERT_LT(ref.left_id, left_store.size());
      ASSERT_LT(ref.right_id, right_store.size());
      if (ref.kind == join::MatchKind::kExact) {
        // Exact pairs are intra-shard by radix construction, and their
        // keys agree byte for byte.
        EXPECT_EQ(ref.left_shard, ref.right_shard);
        EXPECT_EQ(left_store.JoinKey(ref.left_id),
                  right_store.JoinKey(ref.right_id));
      }
      ++seen;
    }
  }
  ASSERT_TRUE(join.Close().ok());
  EXPECT_GT(seen, 0u);
}

/// Child operator yielding `good` single-string rows, then an IO
/// error; counts Open/Close calls.
class FlakyChild : public exec::Operator {
 public:
  explicit FlakyChild(int good)
      : schema_({{"s", storage::ValueType::kString}}), good_(good) {}
  Status Open() override {
    ++opens_;
    produced_ = 0;
    return Status::OK();
  }
  Status NextColumnBatch(storage::ColumnBatch* out) override {
    out->Reset(&schema_);
    while (!out->full()) {
      if (produced_ >= good_) {
        out->Clear();
        return Status::IOError("stream dropped");
      }
      ++produced_;
      out->AppendTupleRow(storage::Tuple{
          storage::Value("KEY " + std::to_string(produced_ % 7))});
    }
    return Status::OK();
  }
  Status Close() override {
    ++closes_;
    return Status::OK();
  }
  const storage::Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "FlakyChild"; }
  int opens() const { return opens_; }
  int closes() const { return closes_; }

 private:
  storage::Schema schema_;
  int good_;
  int produced_ = 0;
  int opens_ = 0;
  int closes_ = 0;
};

/// Child whose Open() always fails.
class UnopenableChild : public exec::Operator {
 public:
  UnopenableChild() : schema_({{"s", storage::ValueType::kString}}) {}
  Status Open() override { return Status::IOError("cannot connect"); }
  Status NextColumnBatch(storage::ColumnBatch*) override {
    return Status::Internal("NextColumnBatch after failed Open");
  }
  Status Close() override { return Status::OK(); }
  const storage::Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "UnopenableChild"; }

 private:
  storage::Schema schema_;
};

join::JoinSpec OneColSpec() {
  join::JoinSpec spec;
  spec.left_column = 0;
  spec.right_column = 0;
  return spec;
}

TEST(ParallelJoinLifecycleTest, FailedRightOpenClosesTheLeftChild) {
  // Regression: an Open() that fails after the left child opened must
  // not leave it open — open_ stays false, so the caller cannot reach
  // it through Close() and the child would leak its open state.
  FlakyChild left(4);
  UnopenableChild right;
  ParallelJoinOptions options;
  options.base.join.spec = OneColSpec();
  options.num_shards = 2;
  ParallelAdaptiveJoin join(&left, &right, options);
  EXPECT_TRUE(join.Open().IsIOError());
  EXPECT_EQ(left.opens(), 1);
  EXPECT_EQ(left.closes(), 1);
  // The failed open left the operator unopened, as before.
  EXPECT_TRUE(join.Close().IsFailedPrecondition());
}

TEST(ParallelJoinLifecycleTest,
     MidStreamRouteErrorIsStickyAndDiscardsUncommittedRows) {
  // A child error inside RouteEpoch abandons the epoch: rows already
  // scattered into the shards' staged batches must be discarded (not
  // committed, nor double-ingested by a retried pump), and the operator
  // must hard-fail every subsequent call with the original error.
  FlakyChild left(10);
  FlakyChild right(500);  // plenty; only the left side errors
  ParallelJoinOptions options;
  options.base.join.spec = OneColSpec();
  options.base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
  options.num_shards = 3;
  // Force the failure mid-epoch: more steps per epoch than the left
  // child has rows, with refills small enough that several complete
  // batches are routed before the failing one.
  options.unbounded_epoch_steps = 64;
  options.base.join.batch_size = 4;
  ParallelAdaptiveJoin join(&left, &right, options);
  ASSERT_TRUE(join.Open().ok());

  std::vector<ParallelMatchRef> refs;
  Status first = join.NextMatchRefs(1024, &refs);
  ASSERT_TRUE(first.IsIOError()) << first;

  // Staged routed state of the aborted epoch was discarded: every row
  // still accounted for in a shard belongs to a *completed* epoch, and
  // no epoch completed before the failure.
  size_t routed = 0;
  for (size_t i = 0; i < join.num_shards(); ++i) {
    routed += join.shard(i).routed_count(exec::Side::kLeft);
    routed += join.shard(i).routed_count(exec::Side::kRight);
  }
  EXPECT_EQ(routed, 0u);
  EXPECT_EQ(join.steps(), 0u);  // counters rolled back with the epoch

  // Sticky: retries surface the same error instead of re-routing from
  // a corrupted scheduler position.
  Status retry = join.NextMatchRefs(1024, &refs);
  EXPECT_TRUE(retry.IsIOError()) << retry;
  EXPECT_EQ(retry.message(), first.message());
  storage::ColumnBatch batch(&join.output_schema());
  EXPECT_TRUE(join.NextColumnBatch(&batch).IsIOError());
  ASSERT_TRUE(join.Close().ok());
  EXPECT_EQ(left.closes(), 1);
  EXPECT_EQ(right.closes(), 1);
}

TEST(ParallelJoinLifecycleTest, ErrorAfterCompletedEpochsKeepsThem) {
  // Same failure, but with small epochs so earlier epochs complete:
  // their rows stay ingested and their output stays deliverable; only
  // the aborted epoch's uncommitted rows are discarded.
  FlakyChild left(10);
  FlakyChild right(500);
  ParallelJoinOptions options;
  options.base.join.spec = OneColSpec();
  options.base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
  options.num_shards = 2;
  // Epochs of 6 steps with refills of 4 left rows: the left child's
  // failing third refill lands mid-epoch, after two epochs completed.
  options.unbounded_epoch_steps = 6;
  options.base.join.batch_size = 4;
  ParallelAdaptiveJoin join(&left, &right, options);
  ASSERT_TRUE(join.Open().ok());

  std::vector<ParallelMatchRef> refs;
  size_t delivered = 0;
  Status status = Status::OK();
  while (true) {
    status = join.NextMatchRefs(3, &refs);
    if (!status.ok() || refs.empty()) break;
    delivered += refs.size();
  }
  ASSERT_TRUE(status.IsIOError()) << status;
  EXPECT_GT(join.steps(), 0u);

  size_t routed = 0;
  for (size_t i = 0; i < join.num_shards(); ++i) {
    routed += join.shard(i).routed_count(exec::Side::kLeft);
    routed += join.shard(i).routed_count(exec::Side::kRight);
  }
  // Every routed row belongs to a completed epoch (multiple of the
  // epoch length until the error step).
  EXPECT_EQ(routed, join.steps());
  ASSERT_TRUE(join.Close().ok());
}

TEST(ParallelJoinLifecycleTest, IsSingleUse) {
  // A second run would rebuild the shards from the stale processor
  // state and append to the first run's trace, so reopening is refused
  // and the first run's state stays intact.
  const datagen::TestCase tc = SmallCase();
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelJoinOptions options;
  options.base.join.spec = Spec();
  options.base.adaptive.parent_side = exec::Side::kRight;
  options.base.adaptive.parent_table_size = tc.parent.size();
  options.base.adaptive.delta_adapt = 50;
  options.base.adaptive.window = 50;
  options.num_shards = 2;
  ParallelAdaptiveJoin join(&child, &parent, options);
  auto first = exec::CountAll(&join);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_GT(*first, 0u);
  const size_t records = join.trace().size();
  const uint64_t steps = join.monitor().steps();
  ASSERT_GT(records, 0u);

  auto again = exec::CountAll(&join);
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsFailedPrecondition()) << again.status();
  EXPECT_EQ(join.trace().size(), records);
  EXPECT_EQ(join.monitor().steps(), steps);
  EXPECT_TRUE(join.Close().IsFailedPrecondition());
}

TEST(ThreadPoolContainmentTest, ThrowingTaskBecomesGroupErrorOthersStillRun) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([&ran, i] {
      ++ran;
      if (i == 3) throw std::runtime_error("task blew up");
    });
  }
  TaskGroupHandle handle = pool.Submit(std::move(tasks));
  Status s = handle.Wait();
  ASSERT_TRUE(s.IsInternal()) << s;
  EXPECT_NE(s.message().find("task blew up"), std::string::npos) << s;
  EXPECT_EQ(handle.error_task(), 3u);
  // Even the failed group runs every task to completion before Wait
  // returns (accounting stays simple for phase callers).
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolContainmentTest, NonStdExceptionIsContainedToo) {
  ThreadPool pool(2);
  Status s = pool.Run({[] { throw 42; }});
  ASSERT_TRUE(s.IsInternal()) << s;
  EXPECT_NE(s.message().find("non-std::exception"), std::string::npos) << s;
}

TEST(ThreadPoolContainmentTest, InjectedFaultKeepsItsStatus) {
  ThreadPool pool(2);
  Status s = pool.Run(
      {[] { throw fail::InjectedFault(Status::IOError("disk gone")); }});
  ASSERT_TRUE(s.IsIOError()) << s;
  EXPECT_EQ(s.message(), "disk gone");
}

TEST(ThreadPoolContainmentTest, PoolStaysUsableAfterAFailedGroup) {
  ThreadPool pool(2);
  ASSERT_FALSE(pool.Run({[] { throw std::runtime_error("x"); }}).ok());
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 16; ++i) tasks.push_back([&ran] { ++ran; });
  EXPECT_TRUE(pool.Run(std::move(tasks)).ok());
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolContainmentTest, ErrorTaskIndexMatchesTheReportedError) {
  ThreadPool pool(3);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back(
        [i] { throw std::runtime_error("boom " + std::to_string(i)); });
  }
  TaskGroupHandle handle = pool.Submit(std::move(tasks));
  Status s = handle.Wait();
  ASSERT_FALSE(s.ok());
  const size_t failed = handle.error_task();
  ASSERT_LT(failed, 6u);
  // First error wins, and the index names the task that raised it.
  EXPECT_NE(s.message().find("boom " + std::to_string(failed)),
            std::string::npos)
      << s;
}

TEST(ThreadPoolContainmentTest, PoolTaskFailpointInjectsIntoTaskBodies) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  fail::DisarmAll();
  ThreadPool pool(2);
  fail::ScopedFailpoint guard(
      fail::site::kPoolTask,
      fail::Policy::Once(Status::IOError("injected fault")));
  std::vector<std::function<void()>> tasks;
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) tasks.push_back([&ran] { ++ran; });
  Status s = pool.Run(std::move(tasks));
  ASSERT_TRUE(s.IsIOError()) << s;
  EXPECT_NE(s.message().find("site=pool.task"), std::string::npos) << s;
  // The fired task was cut off before its body; the other three ran.
  EXPECT_EQ(ran.load(), 3);
}

/// Child that fails whole refills with kUnavailable on scheduled
/// 1-based NextColumnBatch calls, succeeding on the others — a
/// transiently flapping source. A failed call delivers no rows, so the
/// exchange's bounded retry can re-attempt without duplicating input.
class TransientChild : public exec::Operator {
 public:
  TransientChild(const storage::Relation* rows, std::set<int> blips)
      : scan_(rows), blips_(std::move(blips)) {}
  Status Open() override {
    calls_ = 0;
    return scan_.Open();
  }
  Status NextColumnBatch(storage::ColumnBatch* out) override {
    ++calls_;
    if (blips_.count(calls_) > 0) {
      return Status::Unavailable("source flapping (call " +
                                 std::to_string(calls_) + ")");
    }
    return scan_.NextColumnBatch(out);
  }
  Status Close() override { return scan_.Close(); }
  const storage::Schema& output_schema() const override {
    return scan_.output_schema();
  }
  std::string name() const override { return "TransientChild"; }

 private:
  exec::RelationScan scan_;
  std::set<int> blips_;
  int calls_ = 0;
};

/// Child that delegates to a RelationScan for `good_calls` refills and
/// then hard-errors — a source cut off partway through a known feed,
/// so a degraded run's schedule is a strict prefix of the clean run's.
class TruncatingChild : public exec::Operator {
 public:
  TruncatingChild(const storage::Relation* rows, int good_calls)
      : scan_(rows), good_calls_(good_calls) {}
  Status Open() override {
    calls_ = 0;
    return scan_.Open();
  }
  Status NextColumnBatch(storage::ColumnBatch* out) override {
    if (++calls_ > good_calls_) return Status::IOError("feed cut off");
    return scan_.NextColumnBatch(out);
  }
  Status Close() override { return scan_.Close(); }
  const storage::Schema& output_schema() const override {
    return scan_.output_schema();
  }
  std::string name() const override { return "TruncatingChild"; }

 private:
  exec::RelationScan scan_;
  int good_calls_;
  int calls_ = 0;
};

ParallelJoinOptions SmallCaseOptions(size_t shards) {
  ParallelJoinOptions options;
  options.base.join.spec = Spec();
  options.base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
  options.base.adaptive.initial_state = adaptive::ProcessorState::kLapRap;
  options.num_shards = shards;
  options.unbounded_epoch_steps = 16;
  options.base.join.batch_size = 8;
  return options;
}

std::vector<ParallelMatchRef> CollectRefs(ParallelAdaptiveJoin* join) {
  std::vector<ParallelMatchRef> all;
  std::vector<ParallelMatchRef> refs;
  while (true) {
    Status s = join->NextMatchRefs(64, &refs);
    EXPECT_TRUE(s.ok()) << s;
    if (!s.ok() || refs.empty()) break;
    all.insert(all.end(), refs.begin(), refs.end());
  }
  return all;
}

bool SameRef(const ParallelMatchRef& a, const ParallelMatchRef& b) {
  return a.left_shard == b.left_shard && a.right_shard == b.right_shard &&
         a.left_id == b.left_id && a.right_id == b.right_id &&
         a.kind == b.kind && a.similarity == b.similarity;
}

TEST(SourceRetryTest, TransientUnavailableIsRetriedAway) {
  const datagen::TestCase tc = SmallCase();
  // Reference: a clean run of the same schedule.
  exec::RelationScan ref_left(&tc.child);
  exec::RelationScan ref_right(&tc.parent);
  ParallelAdaptiveJoin reference(&ref_left, &ref_right, SmallCaseOptions(3));
  auto expected = exec::CountAll(&reference);
  ASSERT_TRUE(expected.ok());

  TransientChild left(&tc.child, {1, 3});
  exec::RelationScan right(&tc.parent);
  ParallelJoinOptions options = SmallCaseOptions(3);
  options.source_retry.max_retries = 2;
  ParallelAdaptiveJoin join(&left, &right, options);
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, *expected);
  EXPECT_EQ(join.source_retries(), 2u);
}

TEST(SourceRetryTest, NoRetryConfiguredSurfacesUnavailable) {
  const datagen::TestCase tc = SmallCase();
  TransientChild left(&tc.child, {1});
  exec::RelationScan right(&tc.parent);
  ParallelAdaptiveJoin join(&left, &right, SmallCaseOptions(2));
  ASSERT_TRUE(join.Open().ok());
  std::vector<ParallelMatchRef> refs;
  Status s = join.NextMatchRefs(64, &refs);
  EXPECT_TRUE(s.IsUnavailable()) << s;
  ASSERT_TRUE(join.Close().ok());
}

TEST(SourceRetryTest, ExhaustedRetriesReportTheAttemptCount) {
  const datagen::TestCase tc = SmallCase();
  TransientChild left(&tc.child, {1, 2, 3, 4});
  exec::RelationScan right(&tc.parent);
  ParallelJoinOptions options = SmallCaseOptions(2);
  options.source_retry.max_retries = 2;
  ParallelAdaptiveJoin join(&left, &right, options);
  ASSERT_TRUE(join.Open().ok());
  std::vector<ParallelMatchRef> refs;
  Status s = join.NextMatchRefs(64, &refs);
  ASSERT_TRUE(s.IsUnavailable()) << s;
  EXPECT_NE(s.message().find("after 2 retry(ies)"), std::string::npos) << s;
  EXPECT_EQ(join.source_retries(), 2u);
  ASSERT_TRUE(join.Close().ok());
}

TEST(FaultDegradationTest, FinalizePartialDeliversAStrictPrefix) {
  const datagen::TestCase tc = SmallCase();
  // Reference: the clean run's full match-ref sequence.
  exec::RelationScan ref_left(&tc.child);
  exec::RelationScan ref_right(&tc.parent);
  ParallelAdaptiveJoin reference(&ref_left, &ref_right, SmallCaseOptions(3));
  ASSERT_TRUE(reference.Open().ok());
  const std::vector<ParallelMatchRef> full = CollectRefs(&reference);
  ASSERT_TRUE(reference.Close().ok());
  ASSERT_GT(full.size(), 0u);

  // Same schedule, left feed cut off after 4 refills, degradation on.
  TruncatingChild left(&tc.child, 4);
  exec::RelationScan right(&tc.parent);
  ParallelJoinOptions options = SmallCaseOptions(3);
  options.on_fault = FaultPolicy::kFinalizePartial;
  ParallelAdaptiveJoin join(&left, &right, options);
  ASSERT_TRUE(join.Open().ok());
  const std::vector<ParallelMatchRef> partial = CollectRefs(&join);

  // The stream ended as a *successful* degraded run.
  EXPECT_TRUE(join.stream_done());
  EXPECT_TRUE(join.finalized_early());
  ASSERT_TRUE(join.fault().has_value());
  EXPECT_TRUE(join.fault()->status.IsIOError());
  EXPECT_EQ(join.fault()->epoch, join.epochs_completed());
  EXPECT_EQ(join.fault()->step, join.steps());
  EXPECT_GT(join.epochs_completed(), 0u);  // earlier epochs survived

  // Strict prefix of the clean run: completed epochs only, in order.
  ASSERT_LT(partial.size(), full.size());
  for (size_t i = 0; i < partial.size(); ++i) {
    EXPECT_TRUE(SameRef(partial[i], full[i])) << "ref " << i;
  }
  // Completeness over the partial result is well-defined and <= 1.
  const CompletenessStats completeness = join.Completeness();
  EXPECT_GE(completeness.ratio, 0.0);
  EXPECT_LE(completeness.ratio, 1.0);
  ASSERT_TRUE(join.Close().ok());
}

TEST(FaultDegradationTest, DefaultPolicyStillFailsHard) {
  const datagen::TestCase tc = SmallCase();
  TruncatingChild left(&tc.child, 4);
  exec::RelationScan right(&tc.parent);
  ParallelAdaptiveJoin join(&left, &right, SmallCaseOptions(3));
  ASSERT_TRUE(join.Open().ok());
  std::vector<ParallelMatchRef> refs;
  Status s = Status::OK();
  while (s.ok()) {
    s = join.NextMatchRefs(64, &refs);
    if (s.ok() && refs.empty()) break;
  }
  EXPECT_TRUE(s.IsIOError()) << s;
  EXPECT_FALSE(join.fault().has_value());
  EXPECT_NE(s.message().find("epoch="), std::string::npos) << s;
  ASSERT_TRUE(join.Close().ok());
}

TEST(FaultDegradationTest, CancelIsNeverDegraded) {
  // kCancel must stay a hard stop even under kFinalizePartial: a
  // cancelled query's buffered output is discarded, not delivered as
  // a "partial result".
  const datagen::TestCase tc = SmallCase();
  exec::RelationScan left(&tc.child);
  exec::RelationScan right(&tc.parent);
  ParallelJoinOptions options = SmallCaseOptions(2);
  options.on_fault = FaultPolicy::kFinalizePartial;
  int calls = 0;
  options.governor = [&calls](const EpochView&) {
    return ++calls >= 2 ? EpochDirective::kCancel : EpochDirective::kProceed;
  };
  ParallelAdaptiveJoin join(&left, &right, options);
  ASSERT_TRUE(join.Open().ok());
  std::vector<ParallelMatchRef> refs;
  Status s = Status::OK();
  while (s.ok()) {
    s = join.NextMatchRefs(64, &refs);
    if (s.ok() && refs.empty()) break;
  }
  EXPECT_TRUE(s.IsCancelled()) << s;
  EXPECT_FALSE(join.fault().has_value());
  ASSERT_TRUE(join.Close().ok());
}

TEST(FaultDegradationTest, PhaseFaultIsShardAttributedAndDegradable) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  fail::DisarmAll();
  const datagen::TestCase tc = SmallCase();
  exec::RelationScan left(&tc.child);
  exec::RelationScan right(&tc.parent);
  ParallelJoinOptions options = SmallCaseOptions(3);
  options.on_fault = FaultPolicy::kFinalizePartial;
  ParallelAdaptiveJoin join(&left, &right, options);
  fail::ScopedFailpoint guard(
      fail::site::kShardPhaseA,
      fail::Policy::OnNthHit(4, Status::IOError("injected fault"),
                             /*do_throw=*/true));
  ASSERT_TRUE(join.Open().ok());
  const std::vector<ParallelMatchRef> partial = CollectRefs(&join);
  EXPECT_TRUE(join.finalized_early());
  ASSERT_TRUE(join.fault().has_value());
  EXPECT_EQ(join.fault()->site, "shard.phase_a");
  EXPECT_GE(join.fault()->shard, 0);
  EXPECT_LT(join.fault()->shard, 3);
  EXPECT_EQ(join.epochs_completed(), 1u);  // hit 4 = second epoch, shard 0
  ASSERT_TRUE(join.Close().ok());
}

TEST(FaultDegradationTest, MergeEntryFaultDegradesMergeInvariantsDoNot) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  fail::DisarmAll();
  const datagen::TestCase tc = SmallCase();
  exec::RelationScan left(&tc.child);
  exec::RelationScan right(&tc.parent);
  ParallelJoinOptions options = SmallCaseOptions(2);
  options.on_fault = FaultPolicy::kFinalizePartial;
  ParallelAdaptiveJoin join(&left, &right, options);
  fail::ScopedFailpoint guard(
      fail::site::kExchangeMerge,
      fail::Policy::OnNthHit(2, Status::IOError("injected fault")));
  ASSERT_TRUE(join.Open().ok());
  (void)CollectRefs(&join);
  EXPECT_TRUE(join.finalized_early());
  ASSERT_TRUE(join.fault().has_value());
  EXPECT_EQ(join.fault()->site, "exchange.merge");
  EXPECT_EQ(join.fault()->epoch, 1u);
  ASSERT_TRUE(join.Close().ok());
}

TEST(FaultDegradationTest, StoreIngestFaultIsContainedAndSticky) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  fail::DisarmAll();
  const datagen::TestCase tc = SmallCase();
  exec::RelationScan left(&tc.child);
  exec::RelationScan right(&tc.parent);
  // Default kFail policy: the injected ingest fault (thrown from
  // TupleStore::AddRow deep inside a worker task) must surface as a
  // sticky Status, not a std::terminate.
  ParallelAdaptiveJoin join(&left, &right, SmallCaseOptions(3));
  fail::ScopedFailpoint guard(
      fail::site::kStoreAdd,
      fail::Policy::OnNthHit(20, Status::IOError("injected fault")));
  ASSERT_TRUE(join.Open().ok());
  std::vector<ParallelMatchRef> refs;
  Status s = Status::OK();
  while (s.ok()) {
    s = join.NextMatchRefs(64, &refs);
    if (s.ok() && refs.empty()) break;
  }
  ASSERT_TRUE(s.IsIOError()) << s;
  EXPECT_NE(s.message().find("site=store.add"), std::string::npos) << s;
  Status retry = join.NextMatchRefs(64, &refs);
  EXPECT_EQ(retry.code(), s.code());  // sticky
  ASSERT_TRUE(join.Close().ok());
}

TEST(FaultDegradationTest, OpenFailpointLeavesBothChildrenClosed) {
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  fail::DisarmAll();
  // OpenGuard audit: a failure injected after both children opened
  // must close both before Open returns.
  FlakyChild left(64);
  FlakyChild right(64);
  ParallelJoinOptions options;
  options.base.join.spec = OneColSpec();
  options.num_shards = 2;
  ParallelAdaptiveJoin join(&left, &right, options);
  fail::ScopedFailpoint guard(
      fail::site::kParallelOpen,
      fail::Policy::Once(Status::IOError("injected fault")));
  Status s = join.Open();
  ASSERT_TRUE(s.IsIOError()) << s;
  EXPECT_EQ(left.opens(), 1);
  EXPECT_EQ(left.closes(), 1);
  EXPECT_EQ(right.opens(), 1);
  EXPECT_EQ(right.closes(), 1);
  // And the operator is reusable once the fault clears.
  fail::DisarmAll();
  ASSERT_TRUE(join.Open().ok());
  ASSERT_TRUE(join.Close().ok());
}

/// One drain of a parallel join: the rows in order and the size of
/// each delivered batch.
struct Drained {
  std::vector<storage::Tuple> rows;
  std::vector<size_t> batch_sizes;
  Status status;
};

/// Drains `join` (open) with NextColumnBatch at `capacity`, reusing
/// one caller batch. Stops at the first error, which must come with an
/// empty batch.
Drained DrainBatches(ParallelAdaptiveJoin* join, size_t capacity) {
  Drained out;
  storage::ColumnBatch batch(&join->output_schema(), capacity);
  while (true) {
    out.status = join->NextColumnBatch(&batch);
    if (!out.status.ok()) {
      EXPECT_TRUE(batch.empty()) << "a failing call delivered rows";
      break;
    }
    if (batch.empty()) break;
    out.batch_sizes.push_back(batch.size());
    for (size_t r = 0; r < batch.size(); ++r) {
      out.rows.push_back(batch.MaterializeRow(r));
    }
  }
  return out;
}

/// Drains `join` (open) with NextMatchRefs at `capacity`, materializing
/// each ref through MaterializeRefInto.
Drained DrainRefs(ParallelAdaptiveJoin* join, size_t capacity) {
  Drained out;
  std::vector<ParallelMatchRef> refs;
  while (true) {
    out.status = join->NextMatchRefs(capacity, &refs);
    if (!out.status.ok() || refs.empty()) break;
    out.batch_sizes.push_back(refs.size());
    storage::ColumnBatch batch(&join->output_schema(), refs.size());
    for (const ParallelMatchRef& ref : refs) {
      join->MaterializeRefInto(ref, &batch);
    }
    for (size_t r = 0; r < batch.size(); ++r) {
      out.rows.push_back(batch.MaterializeRow(r));
    }
  }
  return out;
}

void ExpectSameDrain(const Drained& actual, const Drained& expected) {
  EXPECT_EQ(actual.batch_sizes, expected.batch_sizes);
  ASSERT_EQ(actual.rows.size(), expected.rows.size());
  for (size_t i = 0; i < expected.rows.size(); ++i) {
    ASSERT_EQ(actual.rows[i], expected.rows[i]) << "row " << i;
  }
}

TEST(ParallelJoinDeliveryTest, BatchesMatchTheMatchRefStream) {
  // Batches built ahead, in parallel or inline, with refs short of a
  // batch carried over the pumps: same rows and the same batch
  // boundaries as the match-ref stream at the same capacity. Short
  // epochs carry refs over many pumps; long ones fill several batches
  // of every capacity but the largest per pump.
  datagen::TestCaseOptions case_options;
  case_options.atlas.size = 800;
  case_options.accidents.size = 2400;
  case_options.variant_rate = 0.10;
  case_options.seed = 7;
  auto tc = datagen::GenerateTestCase(case_options);
  ASSERT_TRUE(tc.ok());
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    for (uint64_t epoch_steps : {uint64_t{16}, uint64_t{512}}) {
      for (size_t capacity : {size_t{1}, size_t{7}, size_t{256},
                              size_t{1024}}) {
        SCOPED_TRACE(testing::Message() << "shards=" << shards
                                        << " epoch=" << epoch_steps
                                        << " capacity=" << capacity);
        ParallelJoinOptions options = SmallCaseOptions(shards);
        options.unbounded_epoch_steps = epoch_steps;
        exec::RelationScan ref_left(&tc->child);
        exec::RelationScan ref_right(&tc->parent);
        ParallelAdaptiveJoin reference(&ref_left, &ref_right, options);
        ASSERT_TRUE(reference.Open().ok());
        const Drained expected = DrainRefs(&reference, capacity);
        ASSERT_TRUE(expected.status.ok()) << expected.status;
        ASSERT_TRUE(reference.Close().ok());
        ASSERT_GT(expected.rows.size(), 2048u);

        exec::RelationScan left(&tc->child);
        exec::RelationScan right(&tc->parent);
        ParallelAdaptiveJoin join(&left, &right, options);
        ASSERT_TRUE(join.Open().ok());
        const Drained actual = DrainBatches(&join, capacity);
        ASSERT_TRUE(actual.status.ok()) << actual.status;
        EXPECT_TRUE(join.quiescent());
        ASSERT_TRUE(join.Close().ok());
        ExpectSameDrain(actual, expected);
      }
    }
  }
}

TEST(ParallelJoinDeliveryTest, EarlyEndsStillDeliverTheCarriedRefs) {
  // A hard deadline and a degraded source fault end the stream with
  // fewer refs buffered than a batch holds: they arrive as the last,
  // partial batch.
  const datagen::TestCase tc = SmallCase();
  const auto run = [&tc](bool deadline, bool batches) {
    TruncatingChild left(&tc.child, deadline ? 1000 : 4);
    exec::RelationScan right(&tc.parent);
    ParallelJoinOptions options = SmallCaseOptions(3);
    if (deadline) {
      options.governor = [](const EpochView& view) {
        return view.steps >= 200 ? EpochDirective::kFinalize
                                 : EpochDirective::kProceed;
      };
    } else {
      options.on_fault = FaultPolicy::kFinalizePartial;
    }
    ParallelAdaptiveJoin join(&left, &right, options);
    EXPECT_TRUE(join.Open().ok());
    Drained drained = batches ? DrainBatches(&join, 7) : DrainRefs(&join, 7);
    EXPECT_TRUE(drained.status.ok()) << drained.status;
    EXPECT_TRUE(join.finalized_early());
    EXPECT_EQ(join.fault().has_value(), !deadline);
    EXPECT_EQ(drained.rows.size(), join.pairs_emitted());
    EXPECT_TRUE(join.Close().ok());
    return drained;
  };
  for (bool deadline : {true, false}) {
    SCOPED_TRACE(deadline ? "hard deadline" : "degraded fault");
    const Drained expected = run(deadline, /*batches=*/false);
    ASSERT_GT(expected.rows.size(), 0u);
    // The stream ended on a partial batch: refs were carried.
    EXPECT_NE(expected.rows.size() % 7, 0u);
    ExpectSameDrain(run(deadline, /*batches=*/true), expected);
  }
}

TEST(ParallelJoinDeliveryTest, FailingCallsDeliverNoRows) {
  // A source error: the failing call returns an empty batch, and the
  // rows delivered before it are a prefix of the match-ref stream's.
  {
    const datagen::TestCase tc = SmallCase();
    const auto run = [&tc](bool batches) {
      TruncatingChild left(&tc.child, 20);
      exec::RelationScan right(&tc.parent);
      ParallelAdaptiveJoin join(&left, &right, SmallCaseOptions(3));
      EXPECT_TRUE(join.Open().ok());
      Drained drained = batches ? DrainBatches(&join, 7) : DrainRefs(&join, 7);
      EXPECT_TRUE(drained.status.IsIOError()) << drained.status;
      EXPECT_TRUE(join.Close().ok());
      return drained;
    };
    const Drained refs = run(false);
    const Drained batches = run(true);
    ASSERT_GT(batches.rows.size(), 0u);
    ASSERT_LE(batches.rows.size(), refs.rows.size());
    for (size_t i = 0; i < batches.rows.size(); ++i) {
      ASSERT_EQ(batches.rows[i], refs.rows[i]) << "row " << i;
    }
  }
  // A failing batch-building task: no rows, and nothing consumed, so
  // the next calls deliver the whole stream.
  if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  fail::DisarmAll();
  const datagen::TestCase tc = SmallCase();
  ParallelJoinOptions options = SmallCaseOptions(2);
  options.base.adaptive.initial_state = adaptive::ProcessorState::kLexRex;
  // One epoch holds the whole input, so no ingest task runs; the first
  // call's pool tasks are phase A's two, then the two build tasks.
  options.unbounded_epoch_steps = 4096;
  exec::RelationScan ref_left(&tc.child);
  exec::RelationScan ref_right(&tc.parent);
  ParallelAdaptiveJoin reference(&ref_left, &ref_right, options);
  ASSERT_TRUE(reference.Open().ok());
  const Drained expected = DrainRefs(&reference, 7);
  ASSERT_TRUE(reference.Close().ok());
  ASSERT_GT(expected.rows.size(), 14u);

  exec::RelationScan left(&tc.child);
  exec::RelationScan right(&tc.parent);
  ParallelAdaptiveJoin join(&left, &right, options);
  ASSERT_TRUE(join.Open().ok());
  storage::ColumnBatch batch(&join.output_schema(), 7);
  {
    fail::ScopedFailpoint guard(
        fail::site::kPoolTask,
        fail::Policy::OnNthHit(3, Status::IOError("injected fault"),
                               /*do_throw=*/true));
    Status status = join.NextColumnBatch(&batch);
    ASSERT_TRUE(status.IsIOError()) << status;
    EXPECT_TRUE(batch.empty());
  }
  ExpectSameDrain(DrainBatches(&join, 7), expected);
  ASSERT_TRUE(join.Close().ok());
}

TEST(ParallelJoinDeliveryTest, QueuedBatchesKeepTheJoinBusyAndAreCharged) {
  // Capacity 1 turns every buffered ref into a full batch: the first
  // call builds one per ref, hands out the first, and queues the rest.
  const datagen::TestCase tc = SmallCase();
  ParallelJoinOptions options = SmallCaseOptions(2);
  // One epoch holds the whole input, so no ingest task is in flight
  // after the first call and the footprint may be read.
  options.unbounded_epoch_steps = 4096;
  exec::RelationScan left(&tc.child);
  exec::RelationScan right(&tc.parent);
  ParallelAdaptiveJoin join(&left, &right, options);
  ASSERT_TRUE(join.Open().ok());
  storage::ColumnBatch first(&join.output_schema(), 1);
  ASSERT_TRUE(join.NextColumnBatch(&first).ok());
  ASSERT_EQ(first.size(), 1u);
  const uint64_t queued = join.pairs_emitted() - 1;
  ASSERT_GT(queued, 0u);

  // Handing the queued batches out into empty batches removes exactly
  // their footprint from the coordinator's.
  const uint64_t with_queue = join.ApproximateMemoryUsage();
  uint64_t handed_out = 0;
  for (uint64_t i = 0; i < queued; ++i) {
    EXPECT_FALSE(join.quiescent()) << "batch " << i;
    storage::ColumnBatch batch;
    ASSERT_TRUE(join.NextColumnBatch(&batch).ok());
    ASSERT_EQ(batch.size(), 1u);
    handed_out += batch.ApproximateMemoryUsage();
  }
  EXPECT_TRUE(join.quiescent());
  EXPECT_GT(handed_out, 0u);
  EXPECT_EQ(with_queue - join.ApproximateMemoryUsage(), handed_out);
  ASSERT_TRUE(join.NextColumnBatch(&first).ok());
  EXPECT_TRUE(first.empty());
  ASSERT_TRUE(join.Close().ok());
}

TEST(TupleStoreTest, PrecomputedHashAddMatchesSelfComputed) {
  const datagen::TestCase tc = SmallCase();
  storage::TupleStore a(datagen::kAtlasLocationColumn);
  storage::TupleStore b(datagen::kAtlasLocationColumn);
  for (size_t i = 0; i < 10; ++i) {
    storage::Tuple row = tc.parent.row(i);
    const uint64_t hash =
        Fnv1a64(row[datagen::kAtlasLocationColumn].AsString());
    a.Add(tc.parent.row(i));
    b.Add(std::move(row), hash);
    EXPECT_EQ(a.KeyHash(static_cast<storage::TupleId>(i)),
              b.KeyHash(static_cast<storage::TupleId>(i)));
    EXPECT_EQ(a.JoinKey(static_cast<storage::TupleId>(i)),
              b.JoinKey(static_cast<storage::TupleId>(i)));
  }
}

}  // namespace
}  // namespace parallel
}  // namespace exec
}  // namespace aqp
