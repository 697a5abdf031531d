#include "exec/parallel/shard.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"

namespace aqp {
namespace exec {
namespace parallel {

using adaptive::LeftMode;
using adaptive::RightMode;

JoinShard::JoinShard(uint32_t index, const join::JoinSpec& spec,
                     const join::ApproxProbeOptions& approx_options,
                     adaptive::ProcessorState initial_state)
    : index_(index),
      spec_(spec),
      approx_options_(approx_options),
      core_(spec, approx_options) {
  // Empty stores: entering the initial state catches up nothing.
  ApplyState(initial_state);
}

void JoinShard::BindSchemas(const storage::Schema* left,
                            const storage::Schema* right) {
  epoch_rows_[0].Reset(left);
  epoch_rows_[1].Reset(right);
  staged_rows_[0].Reset(left);
  staged_rows_[1].Reset(right);
}

void JoinShard::StageRow(exec::Side side, const storage::ColumnBatch& src,
                         size_t src_row, uint64_t seq,
                         uint32_t side_ordinal) {
  const size_t s = static_cast<size_t>(side);
  RoutedRow meta;
  meta.side = side;
  // The id this row will hold once the staged tier commits behind
  // everything already committed.
  meta.local_id =
      static_cast<storage::TupleId>(seq_[s].size() + staged_seq_[s].size());
  meta.row = static_cast<uint32_t>(staged_rows_[s].size());
  meta.seq = seq;
  staged_seq_[s].push_back(seq);
  staged_ordinal_[s].push_back(side_ordinal);
  // Column scatter: the row's slices (and its key-lane hash) land in
  // the shard's staged batch; no Tuple object is ever constructed.
  staged_rows_[s].AppendRowFrom(src, src_row);
  staged_meta_.push_back(meta);
}

void JoinShard::CommitStaged() {
  for (size_t s = 0; s < 2; ++s) {
    // Grow the maps to powers of two. A range insert past capacity
    // doubles the current size instead, which would make the footprint
    // depend on where the epoch boundaries fall.
    const size_t need = seq_[s].size() + staged_seq_[s].size();
    if (need > seq_[s].capacity()) {
      size_t capacity = 1;
      while (capacity < need) capacity <<= 1;
      seq_[s].reserve(capacity);
      ordinal_[s].reserve(capacity);
    }
    seq_[s].insert(seq_[s].end(), staged_seq_[s].begin(),
                   staged_seq_[s].end());
    ordinal_[s].insert(ordinal_[s].end(), staged_ordinal_[s].begin(),
                       staged_ordinal_[s].end());
    // Zero-copy swap; the merged epoch's batches become the next
    // staging buffers, keeping their arenas.
    std::swap(epoch_rows_[s], staged_rows_[s]);
  }
  std::swap(epoch_meta_, staged_meta_);
  DiscardStaged();
}

void JoinShard::DiscardStaged() {
  for (size_t s = 0; s < 2; ++s) {
    staged_seq_[s].clear();
    staged_ordinal_[s].clear();
    staged_rows_[s].Clear();
  }
  staged_meta_.clear();
}

void JoinShard::BeginEpoch() {
  step_outputs_.clear();
  matches_.clear();
  cross_step_outputs_.clear();
  cross_matches_.clear();
}

std::vector<RoutedRow>::const_iterator JoinShard::FirstRowAt(
    uint64_t seq) const {
  // Rows are routed, and so stored, in global step order.
  return std::lower_bound(
      epoch_meta_.begin(), epoch_meta_.end(), seq,
      [](const RoutedRow& row, uint64_t s) { return row.seq < s; });
}

void JoinShard::RollbackTo(uint64_t seq) {
  size_t keep[2] = {core_.store(exec::Side::kLeft).size(),
                    core_.store(exec::Side::kRight).size()};
  bool cut[2] = {false, false};
  // Each side's first epoch row at or after `seq` carries that side's
  // cut: local ids are assigned in routing order.
  for (auto it = FirstRowAt(seq); it != epoch_meta_.end(); ++it) {
    const size_t s = static_cast<size_t>(it->side);
    if (cut[s]) continue;
    keep[s] = std::min<size_t>(keep[s], it->local_id);
    cut[s] = true;
    if (cut[0] && cut[1]) break;
  }
  core_.RollbackTo(keep[0], keep[1]);
}

void JoinShard::RunBuildPhase(uint64_t from_seq, uint64_t end_seq) {
  // Worker-thread context: a fired fault throws and is contained by
  // the thread pool as the task group's sticky error.
  AQP_FAILPOINT_THROW(fail::site::kShardPhaseA);
  for (auto it = FirstRowAt(from_seq);
       it != epoch_meta_.end() && it->seq < end_seq; ++it) {
    const RoutedRow& routed = *it;
    StepOutputs step;
    step.seq = routed.seq;
    step.begin = static_cast<uint32_t>(matches_.size());
    core_.ProcessRowInto(routed.side,
                         epoch_rows_[static_cast<size_t>(routed.side)],
                         routed.row, &matches_);
    step.end = static_cast<uint32_t>(matches_.size());
    step_outputs_.push_back(step);
  }
}

void JoinShard::RunCrossProbePhase(const std::vector<JoinShard*>& shards,
                                   uint64_t from_seq) {
  if (shards.size() <= 1) return;
  AQP_FAILPOINT_THROW(fail::site::kShardPhaseB);
  for (auto it = FirstRowAt(from_seq); it != epoch_meta_.end(); ++it) {
    const RoutedRow& routed = *it;
    if (core_.probe_mode(routed.side) != join::ProbeMode::kApproximate) {
      continue;
    }
    const exec::Side stored_side = exec::OtherSide(routed.side);
    const size_t stored_idx = static_cast<size_t>(stored_side);
    const storage::TupleStore& own_store = core_.store(routed.side);
    const text::GramSet& probe_grams = own_store.Grams(routed.local_id);
    // Gram-less probes match by string equality only — equal strings
    // share a hash and therefore a shard, so no cross-shard work.
    if (probe_grams.empty()) continue;
    const std::string_view probe_key = own_store.JoinKey(routed.local_id);

    StepOutputs step;
    step.seq = routed.seq;
    step.begin = static_cast<uint32_t>(cross_matches_.size());
    for (JoinShard* other : shards) {
      if (other == this) continue;
      cross_tmp_.clear();
      join::ProbeApproximateInto(
          other->core_.qgram_index(stored_side),
          other->core_.store(stored_side), probe_key, probe_grams, spec_,
          routed.side, routed.local_id, approx_options_, &cross_scratch_,
          &cross_stats_, &cross_tmp_);
      for (const join::JoinMatch& m : cross_tmp_) {
        // Sequence gate: the single-threaded join would only have
        // indexed tuples that arrived before this probe's step.
        if (other->seq_[stored_idx][m.stored_id] >= routed.seq) continue;
        cross_matches_.push_back(CrossMatch{m, other->index_});
      }
    }
    step.end = static_cast<uint32_t>(cross_matches_.size());
    if (step.end != step.begin) {
      cross_step_outputs_.push_back(step);
    }
  }
}

uint64_t JoinShard::CommittedMemoryUsage() const {
  uint64_t bytes = core_.ApproximateMemoryUsage();
  for (size_t s = 0; s < 2; ++s) {
    bytes += epoch_rows_[s].ApproximateMemoryUsage();
    bytes += seq_[s].capacity() * sizeof(uint64_t);
    bytes += ordinal_[s].capacity() * sizeof(uint32_t);
  }
  bytes += epoch_meta_.capacity() * sizeof(RoutedRow);
  bytes += step_outputs_.capacity() * sizeof(StepOutputs);
  bytes += matches_.capacity() * sizeof(join::JoinMatch);
  bytes += cross_step_outputs_.capacity() * sizeof(StepOutputs);
  bytes += cross_matches_.capacity() * sizeof(CrossMatch);
  bytes += cross_tmp_.capacity() * sizeof(join::JoinMatch);
  bytes += cross_scratch_.ApproximateMemoryUsage();
  return bytes;
}

uint64_t JoinShard::StagedMemoryUsage() const {
  uint64_t bytes = staged_meta_.capacity() * sizeof(RoutedRow);
  for (size_t s = 0; s < 2; ++s) {
    bytes += staged_rows_[s].ApproximateMemoryUsage();
    bytes += staged_seq_[s].capacity() * sizeof(uint64_t);
    bytes += staged_ordinal_[s].capacity() * sizeof(uint32_t);
  }
  return bytes;
}

std::pair<uint64_t, uint64_t> JoinShard::ApplyState(
    adaptive::ProcessorState state) {
  return core_.SetProbeModes(LeftMode(state), RightMode(state));
}

}  // namespace parallel
}  // namespace exec
}  // namespace aqp
