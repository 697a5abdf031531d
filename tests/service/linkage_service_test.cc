// Multi-query serving: N concurrent linkage queries on one shared
// worker pool must (a) respect the admission caps, (b) each produce
// output byte-identical to a solo ParallelAdaptiveJoin run of the same
// options, (c) honor per-query deadline budgets — soft deadlines force
// exact-only matching, hard deadlines finalize early with a partial
// result and completeness statistics — and (d) tear down cleanly on
// Cancel(), mid-stream included. The whole suite runs under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "datagen/generator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
#include "exec/stream.h"
#include "service/linkage_service.h"

namespace aqp {
namespace service {
namespace {

using exec::parallel::ParallelAdaptiveJoin;
using exec::parallel::ParallelJoinOptions;

const datagen::TestCase& PaperCase() {
  static const datagen::TestCase* tc = [] {
    datagen::TestCaseOptions options;
    options.pattern = datagen::PerturbationPattern::kFewHighIntensityRegions;
    options.perturb_parent = false;
    options.variant_rate = 0.10;
    options.atlas.size = 400;
    options.accidents.size = 800;
    options.seed = 20090326;
    auto generated = datagen::GenerateTestCase(options);
    EXPECT_TRUE(generated.ok());
    return new datagen::TestCase(std::move(*generated));
  }();
  return *tc;
}

ParallelJoinOptions BaseJoinOptions(const datagen::TestCase& tc) {
  ParallelJoinOptions options;
  options.base.join.spec.left_column = datagen::kAccidentsLocationColumn;
  options.base.join.spec.right_column = datagen::kAtlasLocationColumn;
  options.base.join.spec.sim_threshold = 0.85;
  options.base.adaptive.parent_side = exec::Side::kRight;
  options.base.adaptive.parent_table_size = tc.parent.size();
  options.base.adaptive.delta_adapt = 50;
  options.base.adaptive.window = 50;
  options.num_shards = 2;
  return options;
}

/// The reference: the same query run solo, no service, no deadlines.
storage::Relation SoloRun(const datagen::TestCase& tc,
                          ParallelJoinOptions options) {
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  ParallelAdaptiveJoin join(&child, &parent, options);
  auto result = exec::CollectAll(&join);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

void ExpectSameRows(const storage::Relation& actual,
                    const storage::Relation& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual.row(i), expected.row(i)) << "row " << i;
  }
}

/// The four policy flavors the stress tests mix.
std::vector<ParallelJoinOptions> PolicyMix(const datagen::TestCase& tc) {
  std::vector<ParallelJoinOptions> mix;
  // Full adaptive.
  mix.push_back(BaseJoinOptions(tc));
  // Pinned all-exact.
  mix.push_back(BaseJoinOptions(tc));
  mix.back().base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
  mix.back().base.adaptive.initial_state = adaptive::ProcessorState::kLexRex;
  // Pinned all-approximate (the expensive one).
  mix.push_back(BaseJoinOptions(tc));
  mix.back().base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
  mix.back().base.adaptive.initial_state = adaptive::ProcessorState::kLapRap;
  // Scripted.
  mix.push_back(BaseJoinOptions(tc));
  mix.back().base.adaptive.policy = adaptive::AdaptivePolicy::kScripted;
  mix.back().base.adaptive.script = {
      {120, adaptive::ProcessorState::kLapRex},
      {300, adaptive::ProcessorState::kLapRap},
      {700, adaptive::ProcessorState::kLexRex},
  };
  return mix;
}

/// Every cell of `actual` equals `expected`'s, read through the typed
/// accessors of the columnar result.
void ExpectSameCells(const storage::Relation& actual,
                     const storage::Relation& expected) {
  ASSERT_EQ(actual.schema(), expected.schema());
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t c = 0; c < expected.schema().num_fields(); ++c) {
    const storage::ValueType type = expected.schema().field(c).type;
    for (size_t i = 0; i < expected.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "cell " << i << "," << c);
      ASSERT_EQ(actual.IsNull(c, i), expected.IsNull(c, i));
      if (expected.IsNull(c, i)) continue;
      if (type == storage::ValueType::kInt64) {
        ASSERT_EQ(actual.Int64At(c, i), expected.Int64At(c, i));
      } else if (type == storage::ValueType::kDouble) {
        ASSERT_EQ(actual.DoubleAt(c, i), expected.DoubleAt(c, i));
      } else {
        ASSERT_EQ(actual.StringAt(c, i), expected.StringAt(c, i));
      }
    }
  }
}

// The served result is columnar: drained batches move into it and are
// re-pointed at its own schema. It must stay readable after the query's
// engine (and the whole service) is gone, and every drain batch size
// must deliver the same cells and the same run.
TEST(LinkageServiceTest, ResultOutlivesTheEngineAtEveryDrainBatch) {
  const datagen::TestCase& tc = PaperCase();
  ParallelJoinOptions join_options = BaseJoinOptions(tc);
  join_options.base.join.emit_similarity = true;
  const storage::Relation reference = SoloRun(tc, join_options);
  ASSERT_GT(reference.size(), 300u);

  std::vector<QueryStats> runs;
  for (size_t drain : {size_t{1}, size_t{16}, size_t{256}}) {
    SCOPED_TRACE(testing::Message() << "drain_batch " << drain);
    storage::Relation result;
    {
      LinkageService service(ServiceOptions{});
      exec::RelationScan child(&tc.child);
      exec::RelationScan parent(&tc.parent);
      QueryOptions qo;
      qo.join = join_options;
      qo.drain_batch = drain;
      auto id = service.Submit(&child, &parent, qo);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      auto stats = service.Wait(*id);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      ASSERT_EQ(stats->state, QueryState::kDone) << stats->status.ToString();
      runs.push_back(*stats);
      auto taken = service.TakeResult(*id);
      ASSERT_TRUE(taken.ok()) << taken.status().ToString();
      result = std::move(*taken);
    }
    for (const storage::ColumnBatch& batch : result.batches()) {
      ASSERT_EQ(batch.schema(), &result.schema());
    }
    ExpectSameCells(result, reference);
    ExpectSameRows(result, reference);
  }
  for (const QueryStats& run : runs) {
    EXPECT_EQ(run.steps, runs[0].steps);
    EXPECT_EQ(run.pairs_emitted, runs[0].pairs_emitted);
    EXPECT_EQ(run.final_state, runs[0].final_state);
    EXPECT_EQ(run.completeness.observed_matches,
              runs[0].completeness.observed_matches);
    EXPECT_EQ(run.ingest.epochs_staged, runs[0].ingest.epochs_staged);
  }
}

// ---------------------------------------------------------------------
// The acceptance-criteria test: >= 4 concurrent queries, one shared
// pool, admission capping active concurrency at 2, every query's
// output byte-identical to its solo run.
TEST(LinkageServiceTest, FourConcurrentQueriesMatchTheirSoloRuns) {
  const datagen::TestCase& tc = PaperCase();
  const std::vector<ParallelJoinOptions> mix = PolicyMix(tc);
  std::vector<storage::Relation> references;
  references.reserve(mix.size());
  for (const ParallelJoinOptions& options : mix) {
    references.push_back(SoloRun(tc, options));
    ASSERT_GT(references.back().size(), 0u);
  }

  ServiceOptions so;
  so.worker_threads = 2;
  so.admission.max_concurrent_queries = 2;
  so.admission.max_total_shards = 4;
  LinkageService service(so);

  // One scan pair per query: children are only touched by their own
  // query's runner thread.
  std::vector<std::unique_ptr<exec::RelationScan>> scans;
  std::vector<QueryId> ids;
  for (const ParallelJoinOptions& options : mix) {
    scans.push_back(std::make_unique<exec::RelationScan>(&tc.child));
    scans.push_back(std::make_unique<exec::RelationScan>(&tc.parent));
    QueryOptions qo;
    qo.join = options;
    auto id = service.Submit(scans[scans.size() - 2].get(),
                             scans[scans.size() - 1].get(), qo);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }

  for (size_t i = 0; i < ids.size(); ++i) {
    auto stats = service.Wait(ids[i]);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    SCOPED_TRACE(testing::Message() << "query " << i);
    EXPECT_EQ(stats->state, QueryState::kDone)
        << stats->status.ToString();
    EXPECT_FALSE(stats->finalized_early);
    EXPECT_EQ(stats->shards, 2u);
    auto result = service.TakeResult(ids[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRows(*result, references[i]);
  }

  // Admission capped active concurrency at 2 — and with 4 queries
  // queued behind 2 slots, both slots were actually in use at once.
  EXPECT_LE(service.peak_running_queries(), 2u);
  EXPECT_EQ(service.peak_running_queries(), 2u);
  EXPECT_LE(service.peak_shards_in_use(), 4u);
}

TEST(LinkageServiceTest, HardStepDeadlineFinalizesEarlyWithCompleteness) {
  const datagen::TestCase& tc = PaperCase();
  ParallelJoinOptions options = BaseJoinOptions(tc);
  const storage::Relation full = SoloRun(tc, options);
  ASSERT_GT(full.size(), 0u);

  ServiceOptions so;
  so.worker_threads = 1;
  so.admission.max_concurrent_queries = 1;
  so.admission.max_total_shards = 2;
  LinkageService service(so);

  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  QueryOptions qo;
  qo.join = options;
  qo.deadline.hard_deadline_steps = 120;
  auto id = service.Submit(&child, &parent, qo);
  ASSERT_TRUE(id.ok());
  auto stats = service.Wait(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->state, QueryState::kDone) << stats->status.ToString();
  EXPECT_TRUE(stats->finalized_early);
  // Deterministic: control points fall every δ_adapt = 50 steps, so
  // the first boundary past 120 is 150 — and input (800 + 400 rows)
  // was nowhere near exhausted.
  EXPECT_EQ(stats->steps, 150u);
  EXPECT_LT(stats->steps, tc.child.size() + tc.parent.size());
  // The partial result is a strict prefix of the full run's output.
  auto partial = service.TakeResult(*id);
  ASSERT_TRUE(partial.ok());
  ASSERT_LT(partial->size(), full.size());
  for (size_t i = 0; i < partial->size(); ++i) {
    ASSERT_EQ(partial->row(i), full.row(i)) << "row " << i;
  }
  // Completeness statistics of the partial result were reported.
  EXPECT_GT(stats->completeness.expected_matches, 0.0);
  EXPECT_GE(stats->completeness.ratio, 0.0);
  EXPECT_LE(stats->completeness.ratio, 1.0);
}

TEST(LinkageServiceTest, ImmediateWallClockHardDeadlineYieldsEmptyResult) {
  const datagen::TestCase& tc = PaperCase();
  ServiceOptions so;
  so.worker_threads = 1;
  so.admission.max_concurrent_queries = 1;
  LinkageService service(so);

  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  QueryOptions qo;
  qo.join = BaseJoinOptions(tc);
  qo.deadline.hard_deadline = std::chrono::nanoseconds(1);
  auto id = service.Submit(&child, &parent, qo);
  ASSERT_TRUE(id.ok());
  auto stats = service.Wait(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->state, QueryState::kDone);
  EXPECT_TRUE(stats->finalized_early);
  EXPECT_EQ(stats->steps, 0u);
  auto result = service.TakeResult(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 0u);
}

TEST(LinkageServiceTest, SoftDeadlineForcesExactOnlyButRunsToCompletion) {
  const datagen::TestCase& tc = PaperCase();
  // An all-approximate pinned query: without the deadline it would
  // probe approximately to the end.
  ParallelJoinOptions options = BaseJoinOptions(tc);
  options.base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
  options.base.adaptive.initial_state = adaptive::ProcessorState::kLapRap;
  options.unbounded_epoch_steps = 64;

  ServiceOptions so;
  so.worker_threads = 1;
  so.admission.max_concurrent_queries = 1;
  LinkageService service(so);

  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  QueryOptions qo;
  qo.join = options;
  qo.deadline.soft_deadline_steps = 100;
  auto id = service.Submit(&child, &parent, qo);
  ASSERT_TRUE(id.ok());
  auto stats = service.Wait(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->state, QueryState::kDone) << stats->status.ToString();
  // The whole input was consumed (no early finalize)...
  EXPECT_FALSE(stats->finalized_early);
  EXPECT_EQ(stats->steps, tc.child.size() + tc.parent.size());
  // ...but matching was forced into the cheapest exact state.
  EXPECT_TRUE(stats->forced_exact);
  EXPECT_EQ(stats->final_state, adaptive::ProcessorState::kLexRex);
  // Fewer pairs than the never-deadlined approximate run.
  const storage::Relation full = SoloRun(tc, options);
  auto result = service.TakeResult(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->size(), full.size());
}

TEST(LinkageServiceTest, CancelWhileQueuedIsImmediate) {
  const datagen::TestCase& tc = PaperCase();
  ServiceOptions so;
  so.worker_threads = 1;
  so.admission.max_concurrent_queries = 1;
  LinkageService service(so);

  // Occupy the lone slot with a real query...
  exec::RelationScan child_a(&tc.child);
  exec::RelationScan parent_a(&tc.parent);
  QueryOptions qa;
  qa.join = BaseJoinOptions(tc);
  auto a = service.Submit(&child_a, &parent_a, qa);
  ASSERT_TRUE(a.ok());
  // ...and cancel a queued one behind it: it must terminate without
  // ever running (its children are never opened).
  exec::RelationScan child_b(&tc.child);
  exec::RelationScan parent_b(&tc.parent);
  auto b = service.Submit(&child_b, &parent_b, qa);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(service.Cancel(*b).ok());
  auto stats_b = service.Wait(*b);
  ASSERT_TRUE(stats_b.ok());
  EXPECT_EQ(stats_b->state, QueryState::kCancelled);
  EXPECT_EQ(stats_b->steps, 0u);
  EXPECT_TRUE(service.TakeResult(*b).status().IsCancelled());

  auto stats_a = service.Wait(*a);
  ASSERT_TRUE(stats_a.ok());
  EXPECT_EQ(stats_a->state, QueryState::kDone);
}

TEST(LinkageServiceTest, CancelMidStreamTearsDownBetweenEpochs) {
  // A deliberately slow source keeps the query mid-stream for seconds;
  // Cancel() must stop it at an epoch boundary, long before the
  // stream's natural end.
  const storage::Schema schema({{"s", storage::ValueType::kString}});
  std::atomic<int> produced{0};
  exec::GeneratorSource slow_child(schema, [&produced]() {
    if (produced.load() >= 200000) return std::optional<storage::Tuple>();
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    const int i = ++produced;
    return std::optional<storage::Tuple>(
        storage::Tuple{storage::Value("KEY " + std::to_string(i % 97))});
  });
  exec::GeneratorSource slow_parent(schema, [&produced]() {
    if (produced.load() >= 200000) return std::optional<storage::Tuple>();
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    const int i = ++produced;
    return std::optional<storage::Tuple>(
        storage::Tuple{storage::Value("KEY " + std::to_string(i % 97))});
  });

  ServiceOptions so;
  so.worker_threads = 1;
  so.admission.max_concurrent_queries = 1;
  LinkageService service(so);
  QueryOptions qo;
  qo.join.base.join.spec.left_column = 0;
  qo.join.base.join.spec.right_column = 0;
  qo.join.base.join.batch_size = 16;
  qo.join.base.adaptive.delta_adapt = 32;
  qo.join.base.adaptive.window = 32;
  qo.join.num_shards = 2;
  auto id = service.Submit(&slow_child, &slow_parent, qo);
  ASSERT_TRUE(id.ok());

  // Wait until it actually runs, then cancel mid-stream.
  while (*service.state(*id) == QueryState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(service.Cancel(*id).ok());
  auto stats = service.Wait(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->state, QueryState::kCancelled);
  EXPECT_TRUE(stats->status.IsCancelled());
  // Torn down long before the 200k-row stream could finish.
  EXPECT_LT(produced.load(), 100000);
  EXPECT_TRUE(service.TakeResult(*id).status().IsCancelled());
}

TEST(LinkageServiceTest, ShardBudgetClampsWideQueries) {
  const datagen::TestCase& tc = PaperCase();
  ServiceOptions so;
  so.worker_threads = 1;
  so.admission.max_concurrent_queries = 2;
  so.admission.max_total_shards = 3;
  LinkageService service(so);

  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  QueryOptions qo;
  qo.join = BaseJoinOptions(tc);
  qo.join.num_shards = 16;  // far over budget
  auto id = service.Submit(&child, &parent, qo);
  ASSERT_TRUE(id.ok());
  auto stats = service.Wait(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->state, QueryState::kDone);
  EXPECT_EQ(stats->shards, 3u);
  EXPECT_LE(service.peak_shards_in_use(), 3u);
  // Clamping does not change results.
  auto result = service.TakeResult(*id);
  ASSERT_TRUE(result.ok());
  ExpectSameRows(*result, SoloRun(tc, BaseJoinOptions(tc)));
}

TEST(LinkageServiceTest, UnknownIdsAndDoubleTakeAreErrors) {
  LinkageService service(ServiceOptions{});
  EXPECT_TRUE(service.Wait(42).status().IsNotFound());
  EXPECT_TRUE(service.Cancel(42).IsNotFound());
  EXPECT_TRUE(service.TakeResult(42).status().IsNotFound());
  EXPECT_TRUE(service.state(42).status().IsNotFound());

  const datagen::TestCase& tc = PaperCase();
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  QueryOptions qo;
  qo.join = BaseJoinOptions(tc);
  auto id = service.Submit(&child, &parent, qo);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.TakeResult(*id).ok());
  EXPECT_TRUE(service.TakeResult(*id).status().IsFailedPrecondition());
  EXPECT_TRUE(service.Submit(nullptr, &parent, qo).status()
                  .IsInvalidArgument());
}

/// Source yielding `good` keyed rows and then a mid-stream IOError.
class FailingSource : public exec::Operator {
 public:
  explicit FailingSource(int good)
      : schema_({{"s", storage::ValueType::kString}}), good_(good) {}
  Status Open() override {
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
      const int i = produced_++;
      out->AppendTupleRow(
          storage::Tuple{storage::Value("KEY " + std::to_string(i % 7))});
    }
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  const storage::Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "FailingSource"; }

 private:
  storage::Schema schema_;
  int good_;
  int produced_ = 0;
};

/// RelationScan wrapper whose first whole-batch refill reports a
/// transient kUnavailable before recovering.
class FlappingScan : public exec::Operator {
 public:
  explicit FlappingScan(const storage::Relation* rows) : scan_(rows) {}
  Status Open() override {
    calls_ = 0;
    return scan_.Open();
  }
  Status NextColumnBatch(storage::ColumnBatch* out) override {
    if (++calls_ == 1) return Status::Unavailable("source flapping");
    return scan_.NextColumnBatch(out);
  }
  Status Close() override { return scan_.Close(); }
  const storage::Schema& output_schema() const override {
    return scan_.output_schema();
  }
  std::string name() const override { return "FlappingScan"; }

 private:
  exec::RelationScan scan_;
  int calls_ = 0;
};

TEST(LinkageServiceTest, FailingQueryIsIsolatedFromItsNeighbor) {
  const datagen::TestCase& tc = PaperCase();
  const ParallelJoinOptions good_options = BaseJoinOptions(tc);
  const storage::Relation reference = SoloRun(tc, good_options);
  ASSERT_GT(reference.size(), 0u);

  ServiceOptions so;
  so.worker_threads = 2;
  so.admission.max_concurrent_queries = 2;
  so.admission.max_total_shards = 4;
  LinkageService service(so);

  // A healthy query and a mid-stream-failing one, running concurrently
  // on the shared pool.
  exec::RelationScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  QueryOptions good_qo;
  good_qo.join = good_options;
  auto good = service.Submit(&child, &parent, good_qo);
  ASSERT_TRUE(good.ok());

  FailingSource bad_left(120);
  FailingSource bad_right(400);
  QueryOptions bad_qo;
  bad_qo.join.base.join.spec.left_column = 0;
  bad_qo.join.base.join.spec.right_column = 0;
  bad_qo.join.base.adaptive.delta_adapt = 32;
  bad_qo.join.base.adaptive.window = 32;
  bad_qo.join.num_shards = 2;
  auto bad = service.Submit(&bad_left, &bad_right, bad_qo);
  ASSERT_TRUE(bad.ok());

  // The faulty query fails, with breadcrumbs naming it.
  auto bad_stats = service.Wait(*bad);
  ASSERT_TRUE(bad_stats.ok());
  EXPECT_EQ(bad_stats->state, QueryState::kFailed);
  EXPECT_TRUE(bad_stats->status.IsIOError()) << bad_stats->status;
  EXPECT_NE(bad_stats->status.message().find(
                "query=" + std::to_string(*bad)),
            std::string::npos)
      << bad_stats->status;
  EXPECT_NE(bad_stats->status.message().find("epoch="), std::string::npos)
      << bad_stats->status;
  EXPECT_FALSE(service.TakeResult(*bad).ok());

  // The neighbor is untouched: done, byte-identical to its solo run.
  auto good_stats = service.Wait(*good);
  ASSERT_TRUE(good_stats.ok());
  EXPECT_EQ(good_stats->state, QueryState::kDone)
      << good_stats->status.ToString();
  auto result = service.TakeResult(*good);
  ASSERT_TRUE(result.ok());
  ExpectSameRows(*result, reference);

  // And the failure released its budget.
  EXPECT_EQ(service.shards_in_use(), 0u);
  EXPECT_EQ(service.admitted_total(), service.released_total());
}

TEST(LinkageServiceTest, FinalizePartialDegradesAFaultToDone) {
  ServiceOptions so;
  so.worker_threads = 1;
  so.admission.max_concurrent_queries = 1;
  LinkageService service(so);

  FailingSource left(120);
  FailingSource right(400);
  QueryOptions qo;
  qo.join.base.join.spec.left_column = 0;
  qo.join.base.join.spec.right_column = 0;
  qo.join.base.adaptive.delta_adapt = 32;
  qo.join.base.adaptive.window = 32;
  qo.join.num_shards = 2;
  qo.join.on_fault = exec::parallel::FaultPolicy::kFinalizePartial;
  auto id = service.Submit(&left, &right, qo);
  ASSERT_TRUE(id.ok());
  auto stats = service.Wait(*id);
  ASSERT_TRUE(stats.ok());

  // Degraded, not failed: the same terminal shape as a hard deadline.
  EXPECT_EQ(stats->state, QueryState::kDone) << stats->status.ToString();
  EXPECT_TRUE(stats->status.ok());
  EXPECT_TRUE(stats->finalized_early);
  ASSERT_TRUE(stats->fault.has_value());
  EXPECT_TRUE(stats->fault->status.IsIOError()) << stats->fault->status;
  EXPECT_EQ(stats->fault->step, stats->steps);
  EXPECT_GE(stats->completeness.ratio, 0.0);
  EXPECT_LE(stats->completeness.ratio, 1.0);
  // The partial result is deliverable.
  auto result = service.TakeResult(*id);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(service.shards_in_use(), 0u);
  EXPECT_EQ(service.admitted_total(), service.released_total());
}

TEST(LinkageServiceTest, TransientSourceRetriesSurfaceInQueryStats) {
  const datagen::TestCase& tc = PaperCase();
  const ParallelJoinOptions options = BaseJoinOptions(tc);
  const storage::Relation reference = SoloRun(tc, options);

  ServiceOptions so;
  so.worker_threads = 1;
  so.admission.max_concurrent_queries = 1;
  LinkageService service(so);

  FlappingScan child(&tc.child);
  exec::RelationScan parent(&tc.parent);
  QueryOptions qo;
  qo.join = options;
  qo.join.source_retry.max_retries = 2;
  auto id = service.Submit(&child, &parent, qo);
  ASSERT_TRUE(id.ok());
  auto stats = service.Wait(*id);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->state, QueryState::kDone) << stats->status.ToString();
  EXPECT_EQ(stats->source_retries, 1u);
  EXPECT_FALSE(stats->fault.has_value());
  // The absorbed retry did not change the result.
  auto result = service.TakeResult(*id);
  ASSERT_TRUE(result.ok());
  ExpectSameRows(*result, reference);
}

TEST(LinkageServiceTest, DestructorCancelsOutstandingQueries) {
  const datagen::TestCase& tc = PaperCase();
  exec::RelationScan child_a(&tc.child);
  exec::RelationScan parent_a(&tc.parent);
  exec::RelationScan child_b(&tc.child);
  exec::RelationScan parent_b(&tc.parent);
  {
    ServiceOptions so;
    so.worker_threads = 1;
    so.admission.max_concurrent_queries = 1;
    LinkageService service(so);
    QueryOptions qo;
    qo.join = BaseJoinOptions(tc);
    ASSERT_TRUE(service.Submit(&child_a, &parent_a, qo).ok());
    ASSERT_TRUE(service.Submit(&child_b, &parent_b, qo).ok());
    // Destroyed with one query likely running and one queued: the
    // destructor must not hang or leak threads.
  }
  SUCCEED();
}

// The served mix in miniature: all eight §4 cases, each submitted
// three times at once (no deadline, a hard step deadline at half its
// steps, a soft one at a quarter) as 1-shard adaptive queries sharing
// one pool worker, at most three running. Every served result must be
// byte-identical to the same query run alone, and every hard-deadline
// query must stop at the first control point at or past its deadline.
TEST(LinkageServiceTest, ServedDeadlineMixMatchesSoloRunsAcrossPaperCases) {
  datagen::TestCaseOptions base;
  base.atlas.size = 150;
  base.accidents.size = 300;
  base.variant_rate = 0.10;
  base.seed = 20090327;
  std::vector<datagen::TestCase> cases;
  for (const datagen::TestCaseOptions& options :
       datagen::PaperTestMatrix(base)) {
    auto generated = datagen::GenerateTestCase(options);
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    cases.push_back(std::move(*generated));
  }
  ASSERT_EQ(cases.size(), 8u);

  constexpr uint64_t kDelta = 100;
  enum class Deadline { kNone, kHard, kSoft };
  struct Query {
    size_t case_index = 0;
    Deadline deadline = Deadline::kNone;
    QueryOptions options;
  };
  std::vector<Query> queries;
  for (size_t c = 0; c < cases.size(); ++c) {
    const datagen::TestCase& tc = cases[c];
    const uint64_t steps = tc.child.size() + tc.parent.size();
    for (Deadline deadline : {Deadline::kNone, Deadline::kHard,
                              Deadline::kSoft}) {
      Query q;
      q.case_index = c;
      q.deadline = deadline;
      q.options.join = BaseJoinOptions(tc);
      q.options.join.base.join.spec.qgram.q = 3;
      q.options.join.base.join.left_size_hint = tc.child.size();
      q.options.join.base.join.right_size_hint = tc.parent.size();
      q.options.join.base.adaptive.delta_adapt = kDelta;
      q.options.join.base.adaptive.window = kDelta;
      q.options.join.base.adaptive.theta_out = 0.05;
      q.options.join.num_shards = 1;
      if (deadline == Deadline::kHard) {
        q.options.deadline.hard_deadline_steps = steps / 2;
      } else if (deadline == Deadline::kSoft) {
        q.options.deadline.soft_deadline_steps = steps / 4;
      }
      queries.push_back(std::move(q));
    }
  }

  const auto serve = [](LinkageService* service,
                        std::vector<std::unique_ptr<exec::RelationScan>>*
                            scans,
                        const datagen::TestCase& tc,
                        const QueryOptions& options) {
    scans->push_back(std::make_unique<exec::RelationScan>(&tc.child));
    scans->push_back(std::make_unique<exec::RelationScan>(&tc.parent));
    return service->Submit((*scans)[scans->size() - 2].get(),
                           (*scans)[scans->size() - 1].get(), options);
  };
  ServiceOptions so;
  so.worker_threads = 1;
  so.admission.max_concurrent_queries = 3;
  so.admission.max_total_shards = 3;

  // Solo references: one query at a time through its own service.
  std::vector<storage::Relation> solo;
  std::vector<QueryStats> solo_stats;
  for (const Query& q : queries) {
    LinkageService service(so);
    std::vector<std::unique_ptr<exec::RelationScan>> scans;
    auto id = serve(&service, &scans, cases[q.case_index], q.options);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    auto stats = service.Wait(*id);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(stats->state, QueryState::kDone) << stats->status.ToString();
    auto result = service.TakeResult(*id);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    solo.push_back(std::move(*result));
    solo_stats.push_back(*stats);
  }

  // The served mix: everything submitted together.
  LinkageService service(so);
  std::vector<std::unique_ptr<exec::RelationScan>> scans;
  std::vector<QueryId> ids;
  for (const Query& q : queries) {
    auto id = serve(&service, &scans, cases[q.case_index], q.options);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(*id);
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const datagen::TestCase& tc = cases[q.case_index];
    SCOPED_TRACE(testing::Message()
                 << tc.options.Label() << " deadline "
                 << static_cast<int>(q.deadline));
    auto stats = service.Wait(ids[i]);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(stats->state, QueryState::kDone) << stats->status.ToString();
    auto result = service.TakeResult(ids[i]);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameRows(*result, solo[i]);
    EXPECT_EQ(stats->steps, solo_stats[i].steps);
    EXPECT_EQ(stats->finalized_early, solo_stats[i].finalized_early);
    EXPECT_EQ(stats->forced_exact, solo_stats[i].forced_exact);
    if (q.deadline == Deadline::kHard) {
      const uint64_t deadline = q.options.deadline.hard_deadline_steps;
      EXPECT_TRUE(stats->finalized_early);
      EXPECT_EQ(stats->steps, (deadline + kDelta - 1) / kDelta * kDelta);
    } else {
      EXPECT_FALSE(stats->finalized_early);
      EXPECT_EQ(stats->steps, tc.child.size() + tc.parent.size());
      EXPECT_EQ(stats->forced_exact, q.deadline == Deadline::kSoft);
    }
  }
  EXPECT_LE(service.peak_running_queries(), 3u);
}

}  // namespace
}  // namespace service
}  // namespace aqp
