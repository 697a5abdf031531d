// The traced run's per-layer measurements. Every number comes from
// timing calls the benchmark makes into each layer's public functions;
// nothing inside the engine is instrumented.
//
// For each traced query the benchmark
//   1. already ran it through the service (QueryRun::stats);
//   2. drives a directly built ParallelAdaptiveJoin with the same
//      options through NextMatchRefs (step deadlines reproduced with a
//      governor), reading its trace, cost and probe counters, then
//      times MaterializeRefInto over every ref (DriveQuery);
//   3. replays the query through RadixExchange and JoinShards on a
//      ThreadPool, epoch by epoch, applying each recorded transition
//      with ApplyState at its control point (ReplayQuery);
//   4. drains fresh CsvSources of its inputs on their own (TimeCsvParse).
// The replay's pair count must equal the service's pairs_emitted.

#ifndef AQP_BENCH_LINKAGE_REPLAY_H_
#define AQP_BENCH_LINKAGE_REPLAY_H_

#include <cstdint>
#include <vector>

#include "adaptive/state.h"
#include "bench/linkage/spans.h"
#include "bench/linkage/support.h"
#include "exec/parallel/thread_pool.h"
#include "join/probe.h"

namespace aqp {
namespace linkbench {

/// One recorded state change: enter `state` at the control point with
/// global step count `step`.
struct Transition {
  uint64_t step = 0;
  adaptive::ProcessorState state = adaptive::ProcessorState::kLexRex;
};

/// Step 2: the engine driven directly, without the service.
struct DriveResult {
  double engine_ms = 0.0;
  /// Routing on the coordinator's critical path: serial routes plus
  /// stalls waiting for pipelined ones.
  double critical_route_ms = 0.0;
  double materialize_ms = 0.0;
  uint64_t refs = 0;
  uint64_t pairs = 0;
  uint64_t steps = 0;
  uint64_t epochs = 0;
  uint64_t approx_steps = 0;
  uint64_t catchup_tuples = 0;
  std::vector<Transition> transitions;
  /// Phase A (intra-shard) plus phase B (cross-shard) probe counters.
  join::ApproxProbeStats probes;
};
Result<DriveResult> DriveQuery(const Inputs& inputs, const QuerySpec& spec,
                               SpanRecorder* spans, int64_t parent,
                               uint64_t query);

/// Step 3: the replay through the exchange and the shards.
struct ReplayResult {
  int64_t route_ns = 0;
  /// Barrier-to-barrier wall time of each phase, summed over epochs.
  int64_t phase_a_ns = 0;
  int64_t phase_b_ns = 0;
  int64_t catchup_ns = 0;
  /// Per-shard task busy time, summed over epochs.
  std::vector<int64_t> phase_a_busy_ns;
  std::vector<int64_t> phase_b_busy_ns;
  uint64_t catchup_tuples = 0;
  uint64_t epochs = 0;
  uint64_t steps = 0;
  uint64_t pairs = 0;
  size_t transitions_applied = 0;
};
/// Replays `spec` up to `stop_steps` global steps (the service's final
/// step count, which a hard deadline cuts short).
Result<ReplayResult> ReplayQuery(const Inputs& inputs, const QuerySpec& spec,
                                 const std::vector<Transition>& transitions,
                                 uint64_t stop_steps,
                                 exec::parallel::ThreadPool* pool,
                                 SpanRecorder* spans, int64_t parent,
                                 uint64_t query);

/// Step 4: median time to drain fresh CsvSources over the case's
/// serialized inputs (both sides), and the bytes they parse.
struct CsvParseResult {
  double parse_ms = 0.0;
  uint64_t bytes = 0;
};
Result<CsvParseResult> TimeCsvParse(const Inputs& inputs, size_t case_index,
                                    SpanRecorder* spans, int64_t parent,
                                    uint64_t query);

/// Median microseconds of ThreadPool::Run over `tasks` empty tasks.
double TimeBarrier(exec::parallel::ThreadPool* pool, size_t tasks,
                   SpanRecorder* spans);

}  // namespace linkbench
}  // namespace aqp

#endif  // AQP_BENCH_LINKAGE_REPLAY_H_
