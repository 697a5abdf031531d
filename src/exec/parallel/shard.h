#ifndef AQP_EXEC_PARALLEL_SHARD_H_
#define AQP_EXEC_PARALLEL_SHARD_H_

#include <cstdint>
#include <vector>

#include "adaptive/state.h"
#include "join/hybrid_core.h"
#include "join/join_types.h"
#include "join/probe.h"
#include "storage/column_batch.h"

namespace aqp {
namespace exec {
namespace parallel {

/// \brief Bookkeeping of one input row routed to a shard. The row's
/// payload lives in the shard's per-side epoch ColumnBatch (scattered
/// there by the exchange, column slice by column slice); this record
/// carries everything else the shard needs to process it without
/// recomputing exchange work: the shard-local id it will receive in
/// its store (assigned at routing time, so routing order and store
/// order agree by construction), the row's index in the side batch,
/// and the global step sequence number. The join-key hash the exchange
/// computed to pick the shard travels in the batch's hash lane.
struct RoutedRow {
  exec::Side side = exec::Side::kLeft;
  storage::TupleId local_id = 0;
  /// Row index into the epoch's per-side ColumnBatch.
  uint32_t row = 0;
  uint64_t seq = 0;
};

/// \brief The matches of one global step, as a region of a shard's
/// flat per-epoch match buffer.
struct StepOutputs {
  uint64_t seq = 0;
  uint32_t begin = 0;
  uint32_t end = 0;
};

/// \brief One cross-shard approximate match: the JoinMatch (probe id
/// local to the probing shard, stored id local to `stored_shard`).
struct CrossMatch {
  join::JoinMatch match;
  uint32_t stored_shard = 0;
};

/// \brief One hash partition of the parallel symmetric join: its own
/// TupleStore / ExactIndex / QGramIndex pair (inside a HybridJoinCore)
/// plus the per-epoch work buffers of the two execution phases.
///
/// Partitioning is by join-key hash, so *every exact match is
/// intra-shard* (equal keys hash equally) and the shard's own step
/// loop — phase A — finds it with the exact prefix semantics of the
/// single-threaded engine: the shard processes its rows in global
/// step order, and its stores grow in that order. Approximate matches
/// may cross partitions; phase B fans each approximate probe out to
/// the other shards' q-gram indexes after the phase-A barrier, gated
/// by global sequence so a probe sees exactly the tuples the
/// single-threaded join would have indexed before it.
///
/// Tuple transport is columnar end to end: the exchange scatters
/// column slices into the shard's per-side staged ColumnBatch (no
/// Tuple object exists between child scan and shard store), and phase
/// A ingests `(key view, hash-lane hash, payload slice)` rows.
///
/// Thread contract: phase methods run on one worker at a time. During
/// phase A a shard touches only its own state. During phase B it reads
/// other shards' stores/indexes, which are frozen at the phase-A
/// barrier (gram caches included: a probing tuple's grams materialize
/// during its own phase-A probe, a stored tuple's at q-gram-index
/// insert).
class JoinShard {
 public:
  JoinShard(uint32_t index, const join::JoinSpec& spec,
            const join::ApproxProbeOptions& approx_options,
            adaptive::ProcessorState initial_state);

  /// Stamps the per-side input batches with the children's schemas
  /// (called once per Open, before any routing; the schemas must
  /// outlive the shard).
  void BindSchemas(const storage::Schema* left,
                   const storage::Schema* right);

  /// \name Staged routing.
  ///
  /// Every routed row lands in the staged tier first: StageRow touches
  /// only `staged_*` state, never `seq_`/`ordinal_` (read lock-free by
  /// phase-B cross-probes and the coordinator merge) nor the epoch
  /// batches, so the ingest task can stage the next epoch while this
  /// epoch's phases run. At the epoch barrier the coordinator calls
  /// CommitStaged — staged seq/ordinal append to the committed maps and
  /// the staged batches become the epoch's input — or DiscardStaged on
  /// a fault/finalize, which clears the staged tier and leaves
  /// committed state untouched.
  /// @{
  /// Stages row `src_row` of `src`: scatters the row's column slices
  /// (and its key-lane hash) into the staged batch of `side` and
  /// records its seq/ordinal under the shard-local id it will occupy
  /// once committed. Never runs concurrently with Commit/DiscardStaged.
  void StageRow(exec::Side side, const storage::ColumnBatch& src,
                size_t src_row, uint64_t seq, uint32_t side_ordinal);

  /// Committed + staged tuples of `side` (the local id the next staged
  /// row would receive). Used by the exchange while routing.
  size_t total_routed_count(exec::Side side) const {
    const size_t s = static_cast<size_t>(side);
    return seq_[s].size() + staged_seq_[s].size();
  }

  /// Epoch-barrier swap, staged -> epoch: the staged rows become the
  /// input of the next RunBuildPhase. The previous epoch's rows are
  /// dropped, so call it only after that epoch was merged.
  void CommitStaged();

  /// Drops the staged tier (routing fault / finalize / cancel). The
  /// committed maps and the epoch tier are untouched.
  void DiscardStaged();

  /// Clears the per-epoch output buffers before the phases run.
  void BeginEpoch();
  /// @}

  /// \name Phase runners (worker threads).
  ///
  /// Both run over the epoch rows whose global sequence is at least
  /// `from_seq` (phase A: and below `end_seq`): the whole epoch by
  /// default, or the part a state transition inside the epoch makes
  /// the shard run (again, after RollbackTo and BeginEpoch).
  /// @{
  /// Phase A: the existing symmetric-join step loop over the shard's
  /// partition — store, maintain live index, probe intra-shard, record
  /// per-step match regions.
  void RunBuildPhase(uint64_t from_seq = 0, uint64_t end_seq = UINT64_MAX);

  /// Phase B: for every epoch row probing approximately, probe every
  /// *other* shard's opposite q-gram index, keeping only stored tuples
  /// with an earlier global sequence.
  void RunCrossProbePhase(const std::vector<JoinShard*>& shards,
                          uint64_t from_seq = 0);
  /// @}

  /// Rolls the core back to the tuples that arrived before global step
  /// `seq`: every epoch row at or after it leaves the stores and the
  /// indexes, so a state applied next catches up only the prefix and
  /// the rows can be processed again in the new state. The committed
  /// seq/ordinal maps and the epoch tier are kept (the rows keep their
  /// local ids). No-op when no processed row is that recent.
  void RollbackTo(uint64_t seq);

  /// Applies `state`'s per-side probe modes, catching up the newly
  /// live structures; returns {left catch-up, right catch-up} counts
  /// exactly as HybridJoinCore::SetProbeMode reports them.
  std::pair<uint64_t, uint64_t> ApplyState(adaptive::ProcessorState state);

  /// \name Merge-side accessors (coordinator, after the barriers).
  /// @{
  const join::HybridJoinCore& core() const { return core_; }
  join::HybridJoinCore* mutable_core() { return &core_; }

  /// Tuples ever routed to this shard from `side` (== the shard-local
  /// id the next routed row of that side will receive).
  size_t routed_count(exec::Side side) const {
    return seq_[static_cast<size_t>(side)].size();
  }

  /// Global sequence / per-side ordinal of a stored tuple.
  uint64_t global_seq(exec::Side side, storage::TupleId id) const {
    return seq_[static_cast<size_t>(side)][id];
  }
  uint32_t side_ordinal(exec::Side side, storage::TupleId id) const {
    return ordinal_[static_cast<size_t>(side)][id];
  }

  const std::vector<StepOutputs>& step_outputs() const {
    return step_outputs_;
  }
  const std::vector<join::JoinMatch>& matches() const { return matches_; }
  const std::vector<StepOutputs>& cross_step_outputs() const {
    return cross_step_outputs_;
  }
  const std::vector<CrossMatch>& cross_matches() const {
    return cross_matches_;
  }

  /// Cumulative cross-probe work counters (introspection; the shard
  /// core's own stats cover intra-shard probes).
  const join::ApproxProbeStats& cross_probe_stats() const {
    return cross_stats_;
  }
  /// Phase-B probe working memory (memory accounting).
  const join::ApproxProbeScratch& cross_probe_scratch() const {
    return cross_scratch_;
  }

  uint32_t index() const { return index_; }
  /// @}

  /// Reserves store capacity for expected per-shard cardinalities.
  void ReserveStores(size_t left_hint, size_t right_hint) {
    core_.ReserveStores(left_hint, right_hint);
  }

  /// \name Memory accounting (capacity-based, like the core's).
  ///
  /// Split along the pipelined-ingest ownership boundary so budget
  /// refreshes stay race-free: the *committed* figure covers state only
  /// the coordinator/workers touch (safe at a control point even while
  /// an ingest task is in flight); the *staged* figure covers the tier
  /// the ingest task writes (only that task, or the coordinator after
  /// the task-group wait, may read it).
  /// @{
  /// Core stores/indexes + epoch tier + routing maps + phase
  /// output buffers + the phase-B probe scratch (its candidate table
  /// grows to the largest other-shard index probed).
  uint64_t CommittedMemoryUsage() const;
  /// The route-ahead staged tier only.
  uint64_t StagedMemoryUsage() const;
  /// Both (call only when no ingest task is in flight).
  uint64_t ApproximateMemoryUsage() const {
    return CommittedMemoryUsage() + StagedMemoryUsage();
  }
  /// @}

 private:
  /// First epoch row whose global sequence is at least `seq`.
  std::vector<RoutedRow>::const_iterator FirstRowAt(uint64_t seq) const;

  uint32_t index_;
  join::JoinSpec spec_;
  join::ApproxProbeOptions approx_options_;
  join::HybridJoinCore core_;

  /// The epoch currently being processed: per-side column batches plus
  /// the routing bookkeeping, in routing (= global step) order.
  storage::ColumnBatch epoch_rows_[2];
  std::vector<RoutedRow> epoch_meta_;

  /// Staged tier: rows routed for the next epoch, committed into the
  /// epoch tier (and seq_/ordinal_) only at the barrier swap. Written
  /// by whichever context routes (the ingest task while phases run, or
  /// the coordinator when nothing is in flight), swapped/cleared by the
  /// coordinator after the task-group wait — never both at once.
  storage::ColumnBatch staged_rows_[2];
  std::vector<RoutedRow> staged_meta_;
  std::vector<uint64_t> staged_seq_[2];
  std::vector<uint32_t> staged_ordinal_[2];

  /// Shard-local id -> global seq / per-side ordinal, per side.
  /// Appended at commit time; read cross-shard during phase B (frozen
  /// then) and by the coordinator merge.
  std::vector<uint64_t> seq_[2];
  std::vector<uint32_t> ordinal_[2];

  /// Phase-A outputs: per-step regions over a flat match buffer.
  std::vector<StepOutputs> step_outputs_;
  std::vector<join::JoinMatch> matches_;

  /// Phase-B outputs: per-step regions over the cross-match buffer
  /// (only steps that probed approximately have a region).
  std::vector<StepOutputs> cross_step_outputs_;
  std::vector<CrossMatch> cross_matches_;

  /// Reusable probe working memory for phase B (phase A uses the
  /// core's internal scratch).
  join::ApproxProbeScratch cross_scratch_;
  std::vector<join::JoinMatch> cross_tmp_;
  join::ApproxProbeStats cross_stats_;
};

}  // namespace parallel
}  // namespace exec
}  // namespace aqp

#endif  // AQP_EXEC_PARALLEL_SHARD_H_
