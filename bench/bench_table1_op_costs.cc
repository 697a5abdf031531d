// Reproduces Table 1: the per-operation cost model of SHJoin vs
// SSHJoin, as google-benchmark micro-measurements over the join
// attribute length |jA|:
//
//   1. obtain q-grams            — SSHJoin only, O(|jA|)
//   2. update hash table         — SHJoin O(1) vs SSHJoin O(|jA|+q-1)
//   3. compute T(t) and counters — SSHJoin, O((|jA|+q-1) * B_ap)
//   4. find matches              — SHJoin O(B_ex) vs SSHJoin O(|T(t)|)
//
// The paper concludes the per-step cost ratio is quadratic in the gram
// count (|jA|+q-1); the *_FullStep benchmarks expose that ratio
// directly.
//
//   $ ./bench_table1_op_costs

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/names.h"
#include "join/exact_index.h"
#include "join/probe.h"
#include "join/qgram_index.h"
#include "storage/tuple_store.h"
#include "text/qgram.h"

namespace {

using namespace aqp;  // NOLINT

constexpr size_t kPoolSize = 8082;  // the paper's atlas cardinality

/// Pool of location strings padded/truncated to a target length so the
/// benchmarks sweep |jA| directly.
std::vector<std::string> MakePool(size_t length, uint64_t seed) {
  Rng rng(seed);
  datagen::LocationNameGenerator names(length);
  std::vector<std::string> pool;
  pool.reserve(kPoolSize);
  for (size_t i = 0; i < kPoolSize; ++i) {
    std::string s = names.Generate(&rng);
    if (s.size() > length) s.resize(length);
    pool.push_back(std::move(s));
  }
  return pool;
}

struct IndexedPool {
  storage::TupleStore store{0};
  join::ExactIndex exact;
  join::QGramIndex qgrams{text::QGramOptions{}};

  explicit IndexedPool(const std::vector<std::string>& pool) {
    for (const std::string& s : pool) {
      store.Add(storage::Tuple{storage::Value(s)});
    }
    exact.CatchUpWith(store);
    qgrams.CatchUpWith(store);
  }
};

join::JoinSpec Spec() {
  join::JoinSpec spec;
  spec.sim_threshold = 0.85;
  return spec;
}

/// Operation 1: obtain the q-grams of the join attribute.
void BM_Op1_ObtainQGrams(benchmark::State& state) {
  const auto pool = MakePool(static_cast<size_t>(state.range(0)), 1);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        text::GramSet::Of(pool[i++ % pool.size()], text::QGramOptions{}));
  }
  state.SetLabel("|jA|=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_Op1_ObtainQGrams)->Arg(10)->Arg(20)->Arg(30)->Arg(40);

/// Operation 2, SHJoin: one hash-table insert per tuple.
void BM_Op2_UpdateHashTable_SHJoin(benchmark::State& state) {
  const auto pool = MakePool(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    state.PauseTiming();
    storage::TupleStore store(0);
    join::ExactIndex index;
    state.ResumeTiming();
    for (const std::string& s : pool) {
      store.Add(storage::Tuple{storage::Value(s)});
      index.CatchUpWith(store);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPoolSize));
}
BENCHMARK(BM_Op2_UpdateHashTable_SHJoin)->Arg(10)->Arg(40);

/// Operation 2, SSHJoin: |jA|+q-1 posting inserts per tuple.
void BM_Op2_UpdateHashTable_SSHJoin(benchmark::State& state) {
  const auto pool = MakePool(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    state.PauseTiming();
    storage::TupleStore store(0);
    join::QGramIndex index{text::QGramOptions{}};
    state.ResumeTiming();
    for (const std::string& s : pool) {
      store.Add(storage::Tuple{storage::Value(s)});
      index.CatchUpWith(store);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPoolSize));
}
BENCHMARK(BM_Op2_UpdateHashTable_SSHJoin)->Arg(10)->Arg(40);

/// Operations 3+4, SHJoin: probe the hash table and emit matches.
void BM_Op4_FindMatches_SHJoin(benchmark::State& state) {
  const auto pool = MakePool(static_cast<size_t>(state.range(0)), 3);
  IndexedPool indexed(pool);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(join::ProbeExact(
        indexed.exact, pool[i++ % pool.size()], exec::Side::kLeft, 0));
  }
  state.SetLabel("|jA|=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_Op4_FindMatches_SHJoin)->Arg(10)->Arg(20)->Arg(30)->Arg(40);

/// One approximate probe with gram extraction, reusing one scratch
/// across probes as the engine does (without it, every probe would
/// allocate a candidate table the size of the pool).
void RunFullProbe(benchmark::State& state,
                  const join::ApproxProbeOptions& options) {
  const auto pool = MakePool(static_cast<size_t>(state.range(0)), 3);
  IndexedPool indexed(pool);
  const join::JoinSpec spec = Spec();
  join::ApproxProbeScratch scratch;
  std::vector<join::JoinMatch> out;
  size_t i = 0;
  for (auto _ : state) {
    const std::string& probe = pool[i++ % pool.size()];
    out.clear();
    join::ProbeApproximateInto(indexed.qgrams, indexed.store, probe,
                               text::GramSet::Of(probe, spec.qgram), spec,
                               exec::Side::kLeft, 0, options, &scratch,
                               nullptr, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel("|jA|=" + std::to_string(state.range(0)));
}

/// Operations 1+3+4, SSHJoin: gram extraction, T(t) construction,
/// verification. This is the full approximate NEXT() kernel.
void BM_Op34_FullProbe_SSHJoin(benchmark::State& state) {
  RunFullProbe(state, join::ApproxProbeOptions{});
}
BENCHMARK(BM_Op34_FullProbe_SSHJoin)->Arg(10)->Arg(20)->Arg(30)->Arg(40);

/// Ablation: the §2.2 insert-phase optimization off (every gram's
/// posting list is scanned into T(t)).
void BM_Op34_FullProbe_SSHJoin_NoInsertPhaseOpt(benchmark::State& state) {
  join::ApproxProbeOptions options;
  options.insert_phase_optimization = false;
  options.rare_grams_first = false;
  RunFullProbe(state, options);
}
BENCHMARK(BM_Op34_FullProbe_SSHJoin_NoInsertPhaseOpt)
    ->Arg(10)
    ->Arg(20)
    ->Arg(30)
    ->Arg(40);

}  // namespace

BENCHMARK_MAIN();
