#ifndef AQP_METRICS_RUN_STATS_H_
#define AQP_METRICS_RUN_STATS_H_

#include <array>
#include <cstdint>
#include <string>

#include "adaptive/adaptive_join.h"
#include "adaptive/cost_model.h"
#include "adaptive/state.h"
#include "exec/parallel/parallel_join.h"
#include "join/probe.h"

namespace aqp {
namespace metrics {

/// \brief Everything measured about one join execution, sufficient to
/// regenerate the paper's Figs. 6–8 rows for that run.
struct RunStats {
  std::string label;

  /// Result shape.
  uint64_t result_pairs = 0;
  uint64_t distinct_children_matched = 0;
  uint64_t exact_pairs = 0;
  uint64_t approx_pairs = 0;

  /// Execution shape (Fig. 7 raw material).
  uint64_t total_steps = 0;
  std::array<uint64_t, adaptive::kNumProcessorStates> steps_per_state{};
  std::array<uint64_t, adaptive::kNumProcessorStates> transitions_into{};
  uint64_t total_transitions = 0;
  uint64_t catchup_tuples = 0;

  /// Measured time.
  double wall_seconds = 0.0;
  std::array<int64_t, adaptive::kNumProcessorStates> state_time_ns{};

  /// Approximate-probe work counters (Table 1 raw material).
  join::ApproxProbeStats probe;

  /// Rough memory of the join state (§2.3): end-of-run footprint and
  /// the high-water across the run. Single-threaded runs fill these
  /// from the core; parallel runs MUST use AddMemoryStats — the core
  /// accessor sees only one shard's slice, which is the old
  /// parallel-runs-report-no-memory bug.
  uint64_t memory_bytes = 0;
  uint64_t peak_memory_bytes = 0;

  /// Robustness counters (zero for clean runs): malformed CSV records
  /// skipped under quarantine, and transient source-refill retries the
  /// exchange absorbed. Non-zero values flag a result computed from an
  /// imperfect feed even when the run itself succeeded.
  uint64_t quarantined_rows = 0;
  uint64_t source_retries = 0;

  /// Pipelined-ingest overlap counters (all zero for single-threaded
  /// runs): epochs whose routing was staged concurrently with the
  /// previous epoch's phases vs routed on the coordinator;
  /// how long the coordinator stalled at the swap point waiting for
  /// staging to finish; and the routing time hidden behind phase
  /// execution vs spent on the critical path.
  uint64_t ingest_epochs_staged = 0;
  uint64_t ingest_epochs_serial = 0;
  int64_t ingest_stall_ns = 0;
  int64_t ingest_overlap_route_ns = 0;
  int64_t ingest_serial_route_ns = 0;

  /// Σ_i t_i·w_i + Σ_i tr_i·v_i under the given weights (§4.3 c_abs).
  double WeightedCost(const adaptive::StateWeights& weights) const;

  /// Fraction of steps spent in a state.
  double StepShare(adaptive::ProcessorState s) const;
};

/// Collects RunStats from a finished AdaptiveJoin (any policy).
RunStats SummarizeRun(const adaptive::AdaptiveJoin& join,
                      const std::string& label, double wall_seconds);

/// Folds a parallel join's pipelined-ingest counters into `stats`.
void AddIngestStats(const exec::parallel::IngestStats& ingest,
                    RunStats* stats);

/// Folds a parallel join's aggregated memory accounting (every shard's
/// committed tiers + exchange/staging + coordinator state)
/// into `stats`. Call after the join finished; before this existed,
/// parallel runs reported memory_bytes == 0.
void AddMemoryStats(const exec::parallel::ParallelAdaptiveJoin& join,
                    RunStats* stats);

}  // namespace metrics
}  // namespace aqp

#endif  // AQP_METRICS_RUN_STATS_H_
