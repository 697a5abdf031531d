// Micro-benchmarks and ablations beyond the paper's tables, on the
// served engine at one shard: the batch-size sweep, the §2.3 space
// model, and the interleave-policy ablation (the paper's strict
// alternation, §2.2, against proportional reading). End-to-end
// throughput per shard count is bench_parallel_scaling's.
//
//   $ ./bench_join_micro

#include <benchmark/benchmark.h>

#include <string>

#include "bench_support.h"
#include "datagen/generator.h"
#include "exec/parallel/parallel_join.h"
#include "exec/scan.h"
#include "join/hybrid_core.h"

namespace {

using namespace aqp;  // NOLINT

const datagen::TestCase& SharedCase(size_t scale) {
  static std::map<size_t, datagen::TestCase> cases;
  auto it = cases.find(scale);
  if (it == cases.end()) {
    datagen::TestCaseOptions options;
    options.atlas.size = scale;
    options.accidents.size = scale * 2;
    options.variant_rate = 0.10;
    options.seed = 9;
    auto tc = datagen::GenerateTestCase(options);
    if (!tc.ok()) std::abort();
    it = cases.emplace(scale, std::move(*tc)).first;
  }
  return it->second;
}

join::SymmetricJoinOptions JoinOptions() {
  join::SymmetricJoinOptions options;
  options.spec.left_column = datagen::kAccidentsLocationColumn;
  options.spec.right_column = datagen::kAtlasLocationColumn;
  options.spec.sim_threshold = 0.85;
  return options;
}

/// Counts the one-shard join of the scale-2000 case under `options`,
/// drained in batches of `drain_batch` rows. The rows are timed in
/// wall-clock time: the engine's ingest runs on a pool worker, so the
/// calling thread's CPU time misses part of the work.
void RunOneShard(benchmark::State& state,
                 exec::parallel::ParallelJoinOptions options,
                 size_t drain_batch) {
  const auto& tc = SharedCase(2000);
  options.num_shards = 1;
  options.base.adaptive.parent_side = exec::Side::kRight;
  options.base.adaptive.parent_table_size = tc.parent.size();
  for (auto _ : state) {
    exec::RelationScan child(&tc.child);
    exec::RelationScan parent(&tc.parent);
    exec::parallel::ParallelAdaptiveJoin join(&child, &parent, options);
    exec::ExecOptions drain;
    drain.batch_size = drain_batch;
    auto count = exec::CountAll(&join, drain);
    if (!count.ok()) {
      state.SkipWithError("join failed");
      return;
    }
    benchmark::DoNotOptimize(*count);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(tc.child.size() + tc.parent.size()));
}

/// Batch-size sweep: the exact workload (pinned lex/rex, the parallel
/// SHJoin) with both the exchange's input batches and the drain batches
/// set to the swept size. Results and traces are identical for every
/// size (tests/integration/pipeline_parity_test.cc), so this measures
/// pure engine overhead.
void BM_ParallelSHJoin_BatchSweep(benchmark::State& state) {
  exec::parallel::ParallelJoinOptions options;
  options.base.join = JoinOptions();
  options.base.join.batch_size = static_cast<size_t>(state.range(0));
  options.base.adaptive.policy = adaptive::AdaptivePolicy::kPinned;
  RunOneShard(state, options, options.base.join.batch_size);
}
BENCHMARK(BM_ParallelSHJoin_BatchSweep)
    ->UseRealTime()
    ->Arg(1)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096);

/// The same sweep under the adaptive policy (MAR control points inside
/// the merge).
void BM_ParallelAdaptive_BatchSweep(benchmark::State& state) {
  exec::parallel::ParallelJoinOptions options;
  options.base.join = JoinOptions();
  options.base.join.batch_size = static_cast<size_t>(state.range(0));
  RunOneShard(state, options, options.base.join.batch_size);
}
BENCHMARK(BM_ParallelAdaptive_BatchSweep)
    ->UseRealTime()
    ->Arg(1)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096);

/// Interleave-policy ablation under the adaptive policy.
void BM_ParallelAdaptive_InterleavePolicy(benchmark::State& state) {
  const auto& tc = SharedCase(2000);
  const auto policy = static_cast<exec::InterleavePolicy>(state.range(0));
  exec::parallel::ParallelJoinOptions options;
  options.base.join = JoinOptions();
  options.base.join.interleave = policy;
  options.base.join.left_size_hint = tc.child.size();
  options.base.join.right_size_hint = tc.parent.size();
  RunOneShard(state, options, storage::ColumnBatch::kDefaultCapacity);
  state.SetLabel(exec::InterleavePolicyName(policy));
}
BENCHMARK(BM_ParallelAdaptive_InterleavePolicy)
    ->UseRealTime()
    ->Arg(static_cast<int>(exec::InterleavePolicy::kAlternate))
    ->Arg(static_cast<int>(exec::InterleavePolicy::kProportional));

/// §2.3 space model: report index memory as per-iteration counters.
void BM_IndexSpaceModel(benchmark::State& state) {
  const auto& tc = SharedCase(4000);
  for (auto _ : state) {
    join::HybridJoinCore core(JoinOptions().spec);
    core.SetProbeMode(exec::Side::kLeft, join::ProbeMode::kApproximate);
    core.SetProbeMode(exec::Side::kRight, join::ProbeMode::kApproximate);
    for (size_t i = 0; i < tc.parent.size(); ++i) {
      core.ProcessTuple(exec::Side::kRight, tc.parent.row(i));
    }
    // Exact structures too, for the comparison.
    core.SetProbeMode(exec::Side::kLeft, join::ProbeMode::kExact);
    state.counters["exact_index_bytes_per_tuple"] = benchmark::Counter(
        static_cast<double>(core.exact_index(exec::Side::kRight)
                                .ApproximateMemoryUsage()) /
        static_cast<double>(tc.parent.size()));
    state.counters["qgram_index_bytes_per_tuple"] = benchmark::Counter(
        static_cast<double>(core.qgram_index(exec::Side::kRight)
                                .ApproximateMemoryUsage()) /
        static_cast<double>(tc.parent.size()));
  }
}
BENCHMARK(BM_IndexSpaceModel)->Iterations(1);

}  // namespace

// BENCHMARK_MAIN(), plus context recording the build type of the
// *measured* library (the stock "library_build_type" key describes
// the Google Benchmark shared library, not this code).
int main(int argc, char** argv) {
  benchmark::AddCustomContext("aqp_build_type", aqp::bench::BuildTypeName());
  benchmark::AddCustomContext("aqp_host_cpus",
                              std::to_string(aqp::bench::HostCpuCount()));
  // Tuple-transport layout of the measured pipeline: "columnar" since
  // the ColumnBatch protocol replaced row-of-variant batches end to
  // end (PR 4); earlier recordings were "row".
  benchmark::AddCustomContext("aqp_batch_layout", "columnar");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
