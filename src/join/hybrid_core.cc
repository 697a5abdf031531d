#include "join/hybrid_core.h"

#include "common/hash.h"

namespace aqp {
namespace join {

HybridJoinCore::HybridJoinCore(const JoinSpec& spec,
                               ApproxProbeOptions approx_options)
    : spec_(spec),
      approx_options_(approx_options),
      // Gram-cache mode: each store owns its tuples' gram sets, shared
      // by the side's q-gram index and every probe/verifier.
      stores_{storage::TupleStore(spec.left_column, spec.qgram),
              storage::TupleStore(spec.right_column, spec.qgram)},
      exact_{},
      qgram_{QGramIndex(spec.qgram), QGramIndex(spec.qgram)} {}

void HybridJoinCore::MaintainLiveIndex(Side side) {
  const size_t s = Idx(side);
  const size_t o = Idx(OtherSide(side));
  // The index built over `side` is probed by tuples read from the
  // *other* side, so the other side's probe mode selects which of this
  // side's structures must stay current.
  if (mode_[o] == ProbeMode::kExact) {
    exact_[s].CatchUpWith(stores_[s]);
  } else {
    qgram_[s].CatchUpWith(stores_[s]);
  }
}

size_t HybridJoinCore::ProcessRowInto(Side side,
                                      const storage::ColumnBatch& batch,
                                      size_t row,
                                      std::vector<JoinMatch>* out) {
  const size_t s = Idx(side);
  const uint64_t hash =
      batch.has_key_hashes()
          ? batch.key_hash(row)
          : Fnv1a64(batch.StringAt(stores_[s].join_column(), row));
  return ProcessAddedTuple(side, stores_[s].AddRow(batch, row, hash), out);
}

size_t HybridJoinCore::ProcessTupleInto(Side side, storage::Tuple tuple,
                                        std::vector<JoinMatch>* out) {
  const size_t s = Idx(side);
  return ProcessAddedTuple(side, stores_[s].Add(std::move(tuple)), out);
}

size_t HybridJoinCore::ProcessAddedTuple(Side side, storage::TupleId id,
                                         std::vector<JoinMatch>* out) {
  const size_t s = Idx(side);
  const size_t o = Idx(OtherSide(side));
  MaintainLiveIndex(side);

  // Every probe artifact — key view, 64-bit hash, gram set — comes
  // from the probing tuple's store, computed exactly once at Add().
  const std::string_view key = stores_[s].JoinKey(id);
  const size_t out_begin = out->size();
  size_t appended = 0;
  if (mode_[s] == ProbeMode::kExact) {
    appended = ProbeExactInto(exact_[o], key, stores_[s].KeyHash(id), side,
                              id, out);
  } else {
    appended = ProbeApproximateInto(qgram_[o], stores_[o], key,
                                    stores_[s].Grams(id), spec_, side, id,
                                    approx_options_, &probe_scratch_,
                                    &approx_stats_, out);
  }

  for (size_t i = out_begin; i < out->size(); ++i) {
    const JoinMatch& m = (*out)[i];
    if (m.kind == MatchKind::kExact) {
      stores_[s].SetMatchedExactly(id);
      stores_[o].SetMatchedExactly(m.stored_id);
      ++exact_pairs_;
    } else {
      ++approximate_pairs_;
    }
    if (stores_[s].SetMatchedAny(id)) {
      stores_[s].IncrementMatchedAnyCount();
    }
    if (stores_[o].SetMatchedAny(m.stored_id)) {
      stores_[o].IncrementMatchedAnyCount();
    }
  }
  pairs_emitted_ += appended;
  return appended;
}

StepObservables HybridJoinCore::AttributeApproxMatches(
    Side read_side, const std::vector<JoinMatch>& matches) const {
  StepObservables obs;
  const storage::TupleStore& stored = stores_[Idx(OtherSide(read_side))];
  const storage::TupleStore& read = stores_[Idx(read_side)];
  for (const JoinMatch& m : matches) {
    if (m.kind != MatchKind::kApproximate) continue;
    AttributeApproxMatch(
        read_side, [&] { return stored.MatchedExactly(m.stored_id); },
        [&] { return read.MatchedExactly(m.probe_id); }, &obs);
  }
  return obs;
}

size_t HybridJoinCore::SetProbeMode(Side side, ProbeMode mode) {
  const size_t s = Idx(side);
  if (mode_[s] == mode) return 0;
  mode_[s] = mode;
  // Tuples from `side` now probe the opposite side through a different
  // structure; bring it up to date with everything seen so far.
  const size_t o = Idx(OtherSide(side));
  size_t caught_up = 0;
  if (mode == ProbeMode::kExact) {
    caught_up = exact_[o].CatchUpWith(stores_[o]);
  } else {
    caught_up = qgram_[o].CatchUpWith(stores_[o]);
  }
  catchup_tuples_ += caught_up;
  return caught_up;
}

void HybridJoinCore::RollbackTo(size_t left_size, size_t right_size) {
  const size_t sizes[2] = {left_size, right_size};
  for (size_t s = 0; s < 2; ++s) {
    // Indexes first: they read the dropped tuples' keys and grams back
    // from the store.
    exact_[s].RollbackTo(sizes[s]);
    qgram_[s].RollbackTo(sizes[s]);
    stores_[s].Truncate(sizes[s]);
  }
}

size_t HybridJoinCore::ApproximateMemoryUsage() const {
  size_t bytes = 0;
  for (size_t i = 0; i < 2; ++i) {
    bytes += stores_[i].ApproximateMemoryUsage();
    bytes += exact_[i].ApproximateMemoryUsage();
    bytes += qgram_[i].ApproximateMemoryUsage();
  }
  bytes += probe_scratch_.ApproximateMemoryUsage();
  return bytes;
}

}  // namespace join
}  // namespace aqp
