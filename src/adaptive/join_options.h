#ifndef AQP_ADAPTIVE_JOIN_OPTIONS_H_
#define AQP_ADAPTIVE_JOIN_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "adaptive/cost_model.h"
#include "adaptive/mar.h"
#include "exec/interleave.h"
#include "join/join_types.h"
#include "join/probe.h"
#include "storage/column_batch.h"

namespace aqp {
namespace join {

/// \brief Configuration shared by all symmetric join operators.
struct SymmetricJoinOptions {
  /// What to join and how to compare (θ_sim, q, measure).
  JoinSpec spec;
  /// Input alternation policy (the paper scans "each of the tables in
  /// turn").
  exec::InterleavePolicy interleave = exec::InterleavePolicy::kAlternate;
  /// Expected input cardinalities for the proportional policy
  /// (0 = unknown).
  uint64_t left_size_hint = 0;
  uint64_t right_size_hint = 0;
  /// Append a "sim" double column to every output tuple.
  bool emit_similarity = false;
  /// Approximate-probe knobs (ablation switches).
  ApproxProbeOptions approx;
  /// Rows per input batch pulled from the children. 1 degenerates to
  /// tuple-at-a-time reads; results and adaptation traces are identical
  /// for every value.
  size_t batch_size = storage::ColumnBatch::kDefaultCapacity;
};

}  // namespace join

namespace adaptive {

/// \brief Configuration of an adaptive join.
struct AdaptiveJoinOptions {
  /// Join spec, interleaving, output shape, approximate-probe knobs.
  join::SymmetricJoinOptions join;
  /// MAR thresholds, completeness model, control policy.
  AdaptiveOptions adaptive;
  /// Weights used by the run's cost accountant.
  StateWeights weights = StateWeights::Paper();
};

}  // namespace adaptive
}  // namespace aqp

#endif  // AQP_ADAPTIVE_JOIN_OPTIONS_H_
