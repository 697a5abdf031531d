#ifndef AQP_JOIN_HYBRID_CORE_H_
#define AQP_JOIN_HYBRID_CORE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "join/exact_index.h"
#include "join/join_types.h"
#include "join/probe.h"
#include "join/qgram_index.h"
#include "storage/tuple_store.h"

namespace aqp {
namespace join {

/// \brief The switchable symmetric join engine shared by SHJoin,
/// SSHJoin, and the adaptive operator.
///
/// The core owns, per operand: the tuple store (tuples are kept exactly
/// once, §2.3), the exact hash index, and the q-gram index. Only the
/// *live* structures — those the current mode combination probes — are
/// kept current; the others lag behind their store and are caught up at
/// switch points via watermarks, so switch cost is proportional to the
/// tuples seen since the previous switch, exactly as §2.3 prescribes.
///
/// The core is deliberately input-agnostic: callers (pipelined operator
/// wrappers, tests, benches) feed tuples through ProcessTuple() in
/// whatever order their scheduler chooses. One ProcessTuple call is one
/// "step" of the paper: the sequence of elementary operations between
/// two quiescent states.
class HybridJoinCore {
 public:
  /// Constructs the engine. The spec must already be validated.
  explicit HybridJoinCore(const JoinSpec& spec,
                          ApproxProbeOptions approx_options = {});

  /// Ingests row `row` of `batch` as one tuple read from `side` — the
  /// native columnar step: the side's store copies the payload slice
  /// column-to-column and interns the key view with the hash from the
  /// batch's key-hash lane (computed once per refill by the operator's
  /// input path or the routing exchange, and carried along by the
  /// per-shard column scatter; falls back to hashing the key bytes
  /// when the lane is absent). A NULL join-key cell is treated as the
  /// empty string — defined behavior where the tuple step rejects
  /// NULL keys outright (Tuple::AsString on a NULL cell throws).
  /// Maintains the side's live index and
  /// probes the opposite side according to `probe_mode(side)`. Appends
  /// all matches for the tuple (the step's complete output —
  /// afterwards the operator is quiescent again) to `*out` and returns
  /// how many were appended. Matched-exactly flags (§3.3) and
  /// distinct-match counters are updated. The append-style interface
  /// lets the batched executor reuse one scratch buffer for a whole
  /// batch of steps.
  size_t ProcessRowInto(Side side, const storage::ColumnBatch& batch,
                        size_t row, std::vector<JoinMatch>* out);

  /// Tuple step (tests and benches): same semantics, tuple decomposed
  /// by the store.
  size_t ProcessTupleInto(Side side, storage::Tuple tuple,
                          std::vector<JoinMatch>* out);

  /// Convenience wrapper returning a fresh vector per step (tests,
  /// tuple-at-a-time callers).
  std::vector<JoinMatch> ProcessTuple(Side side, storage::Tuple tuple) {
    std::vector<JoinMatch> out;
    ProcessTupleInto(side, std::move(tuple), &out);
    return out;
  }

  /// §3.3 variant attribution (AttributeApproxMatch) of one step's
  /// matches, evaluated against the *current* matched-exactly flags.
  StepObservables AttributeApproxMatches(
      Side read_side, const std::vector<JoinMatch>& matches) const;

  /// Current probe mode of tuples read from `side`.
  ProbeMode probe_mode(Side side) const { return mode_[Idx(side)]; }

  /// Changes how tuples read from `side` probe. Catches up the
  /// opposite side's newly live index; returns the number of tuples
  /// inserted during catch-up (0 when the mode is unchanged).
  size_t SetProbeMode(Side side, ProbeMode mode);

  /// SetProbeMode on the left, then on the right: enters a processor
  /// state. Returns the {left, right} catch-up counts (§2.3 switch cost).
  std::pair<uint64_t, uint64_t> SetProbeModes(ProbeMode left,
                                              ProbeMode right) {
    const uint64_t left_caught_up = SetProbeMode(Side::kLeft, left);
    return {left_caught_up, SetProbeMode(Side::kRight, right)};
  }

  /// Drops every tuple past the first `left_size` left and
  /// `right_size` right tuples from the stores and from all four
  /// indexes, so that the next steps and the next catch-up see exactly
  /// what a core that only ever processed those prefixes would see
  /// (same index contents, watermarks and catch-up counts). The work
  /// and pair counters keep counting the dropped steps.
  void RollbackTo(size_t left_size, size_t right_size);

  /// Reserves store capacity for the expected input cardinalities
  /// (0 = unknown); the operator wrappers pass their size hints so
  /// steady ingest never reallocates the per-tuple vectors. The q-gram
  /// indexes reserve nothing: their gram tables grow by load factor,
  /// and an exact-only run never builds them.
  void ReserveStores(size_t left_hint, size_t right_hint) {
    if (left_hint > 0) stores_[Idx(Side::kLeft)].Reserve(left_hint);
    if (right_hint > 0) stores_[Idx(Side::kRight)].Reserve(right_hint);
  }

  /// \name Introspection.
  /// @{
  const storage::TupleStore& store(Side side) const {
    return stores_[Idx(side)];
  }
  const ExactIndex& exact_index(Side side) const {
    return exact_[Idx(side)];
  }
  const QGramIndex& qgram_index(Side side) const {
    return qgram_[Idx(side)];
  }
  const JoinSpec& spec() const { return spec_; }

  /// Distinct tuples of `side` matched at least once.
  uint64_t distinct_matched(Side side) const {
    return stores_[Idx(side)].matched_any_count();
  }

  /// Total pairs emitted so far.
  uint64_t pairs_emitted() const { return pairs_emitted_; }
  /// Pairs by kind.
  uint64_t exact_pairs() const { return exact_pairs_; }
  uint64_t approximate_pairs() const { return approximate_pairs_; }

  /// Cumulative work counters of all approximate probes.
  const ApproxProbeStats& approx_probe_stats() const { return approx_stats_; }

  /// Working memory of the approximate probes (memory accounting).
  const ApproxProbeScratch& probe_scratch() const { return probe_scratch_; }

  /// Tuples inserted by all switch catch-ups so far.
  uint64_t catchup_tuples() const { return catchup_tuples_; }

  /// Rough total heap footprint (stores + all four indexes + the
  /// approximate probe's candidate table).
  size_t ApproximateMemoryUsage() const;
  /// @}

 private:
  static size_t Idx(Side side) { return static_cast<size_t>(side); }

  /// Keeps `side`'s live index (the one the opposite side probes)
  /// current with the side's store.
  void MaintainLiveIndex(Side side);

  /// Shared step body of the ProcessTupleInto variants: maintain the
  /// live index, probe, update flags/counters, append matches.
  size_t ProcessAddedTuple(Side side, storage::TupleId id,
                           std::vector<JoinMatch>* out);

  JoinSpec spec_;
  ApproxProbeOptions approx_options_;
  storage::TupleStore stores_[2];
  ExactIndex exact_[2];
  QGramIndex qgram_[2];
  ProbeMode mode_[2] = {ProbeMode::kExact, ProbeMode::kExact};
  uint64_t pairs_emitted_ = 0;
  uint64_t exact_pairs_ = 0;
  uint64_t approximate_pairs_ = 0;
  uint64_t catchup_tuples_ = 0;
  ApproxProbeStats approx_stats_;
  /// Reusable working memory for approximate probes (capacity kept
  /// across probes).
  ApproxProbeScratch probe_scratch_;
};

}  // namespace join
}  // namespace aqp

#endif  // AQP_JOIN_HYBRID_CORE_H_
