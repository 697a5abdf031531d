// Engine-side memory accounting: the ApproximateMemoryUsage() figures
// of the holders the budget tree charges (exchange input batches,
// shard committed/staged tiers), the parallel join's aggregation of
// them into memory_bytes()/peak_memory_bytes() (the fix for
// parallel-runs-report-no-memory), the budget-tree wiring at epoch
// control points, and byte-identical results with accounting on vs
// off.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/memory_budget.h"
#include "datagen/generator.h"
#include "exec/parallel/exchange.h"
#include "exec/parallel/parallel_join.h"
#include "exec/parallel/shard.h"
#include "exec/scan.h"
#include "exec/stream.h"
#include "metrics/run_stats.h"

namespace aqp {
namespace exec {
namespace parallel {
namespace {

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

ParallelJoinOptions Options(const datagen::TestCase& tc) {
  ParallelJoinOptions options;
  options.base.join.spec = Spec();
  options.base.adaptive.parent_side = exec::Side::kRight;
  options.base.adaptive.parent_table_size = tc.parent.size();
  options.base.adaptive.delta_adapt = 50;
  options.base.adaptive.window = 50;
  options.num_shards = 2;
  return options;
}

TEST(MemoryAccountingTest, ExchangeAndShardsReportRoutedBytes) {
  const datagen::TestCase tc = SmallCase();
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ASSERT_TRUE(child.Open().ok());
  ASSERT_TRUE(parent.Open().ok());

  std::vector<std::unique_ptr<JoinShard>> shards;
  std::vector<JoinShard*> ptrs;
  for (uint32_t i = 0; i < 2; ++i) {
    shards.push_back(std::make_unique<JoinShard>(
        i, Spec(), join::ApproxProbeOptions{},
        adaptive::ProcessorState::kLexRex));
    shards.back()->BindSchemas(&child.output_schema(),
                               &parent.output_schema());
    ptrs.push_back(shards.back().get());
  }
  RadixExchange exchange(&child, &parent, Spec(),
                         exec::InterleavePolicy::kAlternate, 0, 0, 64, 2);
  exchange.Reset();

  std::vector<RouteEntry> route;
  auto routed = exchange.RouteEpoch(100, ptrs, &route);
  ASSERT_TRUE(routed.ok());
  ASSERT_EQ(*routed, 100u);
  // The exchange holds the refill batches it just read...
  EXPECT_GT(exchange.ApproximateMemoryUsage(), 0u);
  // ...and every shard holds the rows routed to it.
  uint64_t committed = 0;
  for (JoinShard* shard : ptrs) {
    committed += shard->CommittedMemoryUsage();
    EXPECT_EQ(shard->ApproximateMemoryUsage(),
              shard->CommittedMemoryUsage() + shard->StagedMemoryUsage());
  }
  EXPECT_GT(committed, 100u);  // 100 routed rows, well over a byte each

  ASSERT_TRUE(child.Close().ok());
  ASSERT_TRUE(parent.Close().ok());
}

TEST(MemoryAccountingTest, ParallelJoinAggregatesShardMemory) {
  // The satellite bugfix: a parallel run must report its real
  // aggregated footprint, not the zero the single-core RunStats path
  // produced. No budget configured — the end-of-run snapshot alone.
  const datagen::TestCase tc = SmallCase();
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelAdaptiveJoin join(&child, &parent, Options(tc));
  auto result = exec::CollectAll(&join);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Every ingested row is held by some shard store, so the aggregate
  // clears a conservative per-row floor easily.
  const uint64_t total_rows = tc.child.size() + tc.parent.size();
  EXPECT_GT(join.memory_bytes(), total_rows * 8);
  EXPECT_GE(join.peak_memory_bytes(), join.memory_bytes());
  // The quiescent recount agrees with the same floor (the shard stores
  // stay alive until destruction).
  EXPECT_GT(join.ApproximateMemoryUsage(), total_rows * 8);

  const metrics::RunStats stats = metrics::SummarizeRun(join, "run", 0.0);
  EXPECT_EQ(stats.memory_bytes, join.memory_bytes());
  EXPECT_EQ(stats.peak_memory_bytes, join.peak_memory_bytes());
}

TEST(MemoryAccountingTest, ProbeCandidateTablesAreCharged) {
  // Approximate probing grows two candidate tables per shard — the
  // core's (phase A) and the shard's cross-probe one (phase B) — to
  // the largest index each probed. Both sit inside the committed
  // figure the budget tree charges.
  const datagen::TestCase tc = SmallCase();
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelJoinOptions options = Options(tc);
  options.base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
  options.base.adaptive.initial_state = adaptive::ProcessorState::kLapRap;
  ParallelAdaptiveJoin join(&child, &parent, options);
  auto count = exec::CountAll(&join);
  ASSERT_TRUE(count.ok()) << count.status().ToString();

  uint64_t committed = 0;
  for (size_t i = 0; i < join.num_shards(); ++i) {
    const JoinShard& shard = join.shard(i);
    const join::HybridJoinCore& core = shard.core();
    const join::ApproxProbeScratch& phase_a = core.probe_scratch();
    const join::ApproxProbeScratch& phase_b = shard.cross_probe_scratch();
    // One slot per tuple of the largest index probed.
    EXPECT_GT(phase_a.table.size(), 0u);
    EXPECT_GT(phase_b.table.size(), 0u);
    EXPECT_GE(phase_a.ApproximateMemoryUsage(),
              phase_a.table.size() * sizeof(join::ApproxProbeScratch::Slot));
    EXPECT_GE(phase_b.ApproximateMemoryUsage(),
              phase_b.table.size() * sizeof(join::ApproxProbeScratch::Slot));

    size_t structures = 0;
    for (exec::Side side : {exec::Side::kLeft, exec::Side::kRight}) {
      structures += core.store(side).ApproximateMemoryUsage() +
                    core.exact_index(side).ApproximateMemoryUsage() +
                    core.qgram_index(side).ApproximateMemoryUsage();
    }
    EXPECT_EQ(core.ApproximateMemoryUsage(),
              structures + phase_a.ApproximateMemoryUsage());
    EXPECT_GE(shard.CommittedMemoryUsage(),
              core.ApproximateMemoryUsage() +
                  phase_b.ApproximateMemoryUsage());
    committed += shard.CommittedMemoryUsage();
  }
  EXPECT_GE(join.ApproximateMemoryUsage(), committed);
}

TEST(MemoryAccountingTest, BudgetTreeChargedAtControlPointsAndReleased) {
  const datagen::TestCase tc = SmallCase();
  mem::BudgetNode root("global");
  uint64_t max_view_bytes = 0;
  size_t control_points = 0;
  {
    auto query = std::make_unique<mem::BudgetNode>("query1", &root);
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelJoinOptions options = Options(tc);
    options.memory_budget = query.get();
    options.governor = [&](const EpochView& view) {
      // The engine refreshes the tree right before this hook: the view
      // figure and the tree's aggregate are the same snapshot.
      ++control_points;
      max_view_bytes = std::max(max_view_bytes, view.memory_bytes);
      EXPECT_EQ(view.memory_bytes, query->used());
      return EpochDirective::kProceed;
    };
    ParallelAdaptiveJoin join(&child, &parent, options);
    auto result = exec::CollectAll(&join);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(control_points, 0u);
    EXPECT_GT(max_view_bytes, 0u);
  }
  // Join and query node destroyed → nothing left charged to the root.
  EXPECT_EQ(root.used(), 0u);
  EXPECT_GE(root.peak(), max_view_bytes);
}

TEST(MemoryAccountingTest, AccountingOnIsByteIdenticalToAccountingOff) {
  // Budgets disabled vs budget tree attached (no limits): same rows in
  // the same order, same steps, same adaptation trace.
  const datagen::TestCase tc = SmallCase();

  exec::RelationScan child_off(&tc.child);
  exec::RelationScan parent_off(&tc.parent);
  ParallelAdaptiveJoin off(&child_off, &parent_off, Options(tc));
  auto rows_off = exec::CollectAll(&off);
  ASSERT_TRUE(rows_off.ok());

  mem::BudgetNode root("global");
  mem::BudgetNode query("query1", &root);
  exec::RelationScan child_on(&tc.child);
  exec::RelationScan parent_on(&tc.parent);
  ParallelJoinOptions governed = Options(tc);
  governed.memory_budget = &query;
  ParallelAdaptiveJoin on(&child_on, &parent_on, governed);
  auto rows_on = exec::CollectAll(&on);
  ASSERT_TRUE(rows_on.ok());

  ASSERT_EQ(rows_on->size(), rows_off->size());
  for (size_t i = 0; i < rows_off->size(); ++i) {
    ASSERT_EQ(rows_on->row(i), rows_off->row(i)) << "row " << i;
  }
  EXPECT_EQ(on.steps(), off.steps());
  EXPECT_EQ(on.pairs_emitted(), off.pairs_emitted());
  EXPECT_EQ(on.state(), off.state());
}

TEST(MemoryAccountingTest, PipelinedIngestAccountsStagedTiers) {
  // With the ingest task staging ahead, the coordinator's charge folds
  // in the published ingest-side figure instead of touching buffers the
  // task owns (the TSan-safe committed/staged split). Accounting must
  // stay wired and the result identical to the run without a budget.
  const datagen::TestCase tc = SmallCase();

  exec::RelationScan child_plain(&tc.child);
  exec::RelationScan parent_plain(&tc.parent);
  ParallelAdaptiveJoin plain(&child_plain, &parent_plain, Options(tc));
  auto rows_plain = exec::CollectAll(&plain);
  ASSERT_TRUE(rows_plain.ok());

  mem::BudgetNode root("global");
  uint64_t max_view_bytes = 0;
  {
    mem::BudgetNode query("query1", &root);
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    ParallelJoinOptions options = Options(tc);
    options.memory_budget = &query;
    options.governor = [&](const EpochView& view) {
      max_view_bytes = std::max(max_view_bytes, view.memory_bytes);
      return EpochDirective::kProceed;
    };
    ParallelAdaptiveJoin join(&child, &parent, options);
    auto rows = exec::CollectAll(&join);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), rows_plain->size());
    for (size_t i = 0; i < rows->size(); ++i) {
      ASSERT_EQ(rows->row(i), rows_plain->row(i)) << "row " << i;
    }
    EXPECT_GT(max_view_bytes, 0u);
  }
  EXPECT_EQ(root.used(), 0u);
}

}  // namespace
}  // namespace parallel
}  // namespace exec
}  // namespace aqp
