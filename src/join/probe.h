#ifndef AQP_JOIN_PROBE_H_
#define AQP_JOIN_PROBE_H_

#include <cassert>
#include <cstdint>
#include <string_view>
#include <vector>

#include "join/exact_index.h"
#include "join/join_types.h"
#include "join/qgram_index.h"
#include "storage/tuple_store.h"
#include "text/qgram.h"

namespace aqp {
namespace join {

/// \brief Knobs for the approximate probe (ablation switches; the
/// defaults are the paper's algorithm).
struct ApproxProbeOptions {
  /// §2.2's optimization: only the first g-k+1 grams may *insert*
  /// candidates into T(t), so only those posting lists discover
  /// candidates. Sound because a tuple sharing none of the first g-k+1
  /// grams can share at most k-1 < k grams. With k >= 2 one more list
  /// is scanned that only counts (see ProbeApproximateInto). Off,
  /// every probe gram's list is scanned and discovers.
  bool insert_phase_optimization = true;
  /// Scan the rarest — shortest — posting lists ("reverse frequency
  /// order"), so T(t) stays small. Posting-list length ranks the
  /// grams, ties broken by gram key. Off, the first grams in key order
  /// are scanned instead.
  bool rare_grams_first = true;
};

/// \brief The fixed part of an approximate probe of g grams under one
/// measure and threshold: what every probe of that gram count shares.
struct ProbePlan {
  /// k, the probe-side minimum overlap (MinOverlapForThreshold);
  /// 1 <= k <= g, so g-k+1 lists discover candidates. 0 until
  /// computed.
  uint32_t min_overlap = 0;
  /// The length band (LengthBandFor) over stored gram counts: lo >= 1
  /// (posted tuples have grams), hi UINT32_MAX when unbounded (the
  /// overlap coefficient). Gram counts are 32-bit in the index's lane,
  /// so the narrowing drops no size.
  uint32_t band_lo = 0;
  uint32_t band_hi = 0;

  bool InBand(size_t size) const { return size >= band_lo && size <= band_hi; }
};

/// \brief Per-gram-count probe plans and memo of MinPairOverlap for one
/// measure and threshold.
///
/// One row per probe gram count g: its ProbePlan, computed the first
/// time the row is selected, and the required overlaps of g against
/// each stored gram count, starting at the band's lower end. The
/// overlaps are filled lazily, only up to the largest stored size
/// asked for: never to the band's upper end, which is unbounded for
/// kOverlap. Inside the band every pair has a required overlap (the
/// band admits exactly the sizes whose full overlap reaches the
/// threshold), so no infeasible value is ever stored.
class PairOverlapMemo {
 public:
  /// Selects the row for probes of `probe_size` (>= 1) grams and
  /// returns its plan. A measure or threshold other than the previous
  /// call's clears every row.
  ProbePlan Select(text::SimilarityMeasure measure, double threshold,
                   size_t probe_size);

  /// MinPairOverlap(measure, probe_size, stored_size, threshold) for the
  /// selected row. `stored_size` must lie in the row's length band.
  size_t Required(size_t stored_size) {
    Row& row = rows_[probe_size_];
    assert(row.plan.InBand(stored_size) && "Required takes an in-band size");
    const size_t at = stored_size - row.plan.band_lo;
    if (at >= row.required.size()) Fill(&row, stored_size);
    return row.required[at];
  }

  /// Heap bytes held (capacity-based).
  size_t ApproximateMemoryUsage() const;

 private:
  struct Row {
    ProbePlan plan;
    /// required[i] is the required overlap at stored size
    /// plan.band_lo + i.
    std::vector<uint32_t> required;
  };

  /// Extends `row` (the selected one) to cover `stored_size`.
  void Fill(Row* row, size_t stored_size) const;

  std::vector<Row> rows_;
  text::SimilarityMeasure measure_ = text::SimilarityMeasure::kJaccard;
  double threshold_ = 0.0;
  bool keyed_ = false;
  size_t probe_size_ = 0;
};

/// \brief Reusable per-probe working memory.
///
/// Holds the probe's rank keys and posting lists (24 bytes per probe
/// gram at most), the plans and pair-overlap memo (keyed by the spec's
/// measure and threshold, cleared when either changes, so one scratch
/// may serve specs in turn) and T(t), the candidate table. T(t)
/// is dense: one slot per TupleId of the probed index, holding a
/// generation stamp and the number of scanned posting lists the tuple
/// appeared in. A slot belongs to the current probe iff it carries the
/// current stamp, so opening a probe takes a fresh stamp instead of
/// clearing anything. The table only ever grows, to the largest id
/// range probed — 8 bytes per indexed tuple. Reusing one scratch
/// across indexes of different sizes is fine (phase B probes three
/// other shards' indexes with one). After a ProbeApproximateInto call
/// the front of `ranks` holds the probe's selection, which a caller may
/// copy and hand to ProbeSelectedApproximateInto to probe another
/// index with the same lists. Owned by one single-threaded prober
/// (e.g. a HybridJoinCore).
struct ApproxProbeScratch {
  /// One T(t) slot.
  struct Slot {
    /// Generation stamp; 0 is never a live stamp.
    uint32_t stamp = 0;
    /// Scanned posting lists holding the tuple.
    uint32_t count = 0;
  };

  /// One rank key per probe gram: (posting-list length << 32) |
  /// position in the gram set. Gram sets are sorted by key, so
  /// ordering the ranks ranks the grams by (length, key). The probe
  /// moves the `selected` smallest to the front, the largest of them
  /// last, the rest in no particular order.
  std::vector<uint64_t> ranks;
  /// The number of lists the last ProbeApproximateInto call selected
  /// and scanned: the low halves of ranks[0, selected) are their
  /// positions in the gram set. 0 after a gram-less probe.
  size_t selected = 0;
  /// The posting list of each probe gram, by position in the gram set
  /// (null for a gram the index has never seen).
  std::vector<const std::vector<storage::TupleId>*> lists;
  /// The selected posting lists in scan order: the discovery lists,
  /// then the count-only list if there is one.
  std::vector<const std::vector<storage::TupleId>*> scan;
  /// The current probe's candidates that reached verification, in the
  /// order their counts reached the verification count.
  std::vector<storage::TupleId> candidates;
  /// T(t), indexed by TupleId.
  std::vector<Slot> table;
  /// Probe plans and required overlaps of (probe, stored) gram-count
  /// pairs.
  PairOverlapMemo pair_overlaps;
  /// The current probe's stamp.
  uint32_t stamp = 0;

  /// Opens a probe of the ids below `limit`: empties `candidates`,
  /// grows the table to cover every such id, and takes a fresh stamp.
  /// When the stamp wraps, the table is zeroed so no stale slot can
  /// alias it.
  void BeginProbe(size_t limit);

  /// True iff `id` is in the current probe's T(t).
  bool Contains(storage::TupleId id) const {
    return table[id].stamp == stamp;
  }
  /// Adds `id` to the current probe's T(t) with `count`.
  void Add(storage::TupleId id, uint32_t count) {
    table[id] = Slot{stamp, count};
  }
  /// Count of a tuple in the current probe's T(t) (Contains(id)).
  uint32_t& Count(storage::TupleId id) { return table[id].count; }
  uint32_t Count(storage::TupleId id) const { return table[id].count; }

  /// Heap bytes held (capacity-based, like the indexes' figures),
  /// the memo included.
  size_t ApproximateMemoryUsage() const;
};

/// \brief Work counters for one approximate probe, feeding the Table 1
/// cost model.
struct ApproxProbeStats {
  uint64_t grams = 0;                ///< |q(t)| of the probe
  uint64_t postings_scanned = 0;     ///< Σ posting-list lengths touched
  uint64_t candidates = 0;           ///< distinct tuples seen in ℓ
                                     ///< scanned lists (ℓ = 2 with a
                                     ///< count-only list, else 1) whose
                                     ///< gram count lies in the length
                                     ///< band
  uint64_t verified = 0;             ///< candidates whose overlap with
                                     ///< the probe reached the pair's
                                     ///< required minimum
  uint64_t matches = 0;              ///< pairs passing the threshold
                                     ///< (cross probes read only tuples
                                     ///< that arrived before the probe,
                                     ///< so none is dropped later)

  void MergeFrom(const ApproxProbeStats& other);
};

/// \brief Probes the exact index with a join-attribute value whose
/// 64-bit hash is already known (the probing tuple's store cached it
/// at Add time — the hot path never re-hashes).
///
/// Appends one JoinMatch (kind kExact, similarity 1.0) per stored tuple
/// whose attribute equals `key` to `*out`; returns the number appended.
/// The append-style interface lets the batched executor reuse one match
/// buffer across a whole batch instead of allocating per probe.
size_t ProbeExactInto(const ExactIndex& index, std::string_view key,
                      uint64_t key_hash, Side probe_side,
                      storage::TupleId probe_id, std::vector<JoinMatch>* out);

/// Hashing overload for callers without a cached key hash.
inline size_t ProbeExactInto(const ExactIndex& index, std::string_view key,
                             Side probe_side, storage::TupleId probe_id,
                             std::vector<JoinMatch>* out) {
  return ProbeExactInto(index, key, Fnv1a64(key), probe_side, probe_id, out);
}

/// Convenience wrapper returning a fresh vector (tests, one-off code).
std::vector<JoinMatch> ProbeExact(const ExactIndex& index,
                                  std::string_view key, Side probe_side,
                                  storage::TupleId probe_id);

/// \brief Probes the q-gram index with a probe tuple's join-attribute
/// value — the SSHJoin NEXT() kernel (§2.2).
///
/// A prefix-only probe. k is the probe-side minimum overlap, and only
/// the g-k+1 rarest posting lists *discover* candidates (§2.2 — a
/// tuple missing all of them shares at most k-1 grams). With k >= 2
/// the probe keeps one more step of the paper's counting walk: it
/// selects the g-k+2 rarest lists, and the longest of them is scanned
/// last and only counts — it raises the T(t) counts of tuples already
/// found, never adds one. A match shares at least k grams, so it
/// misses at most g-k of the probe's grams: it lies in at least 2 of
/// the g-k+2 selected lists, and in at least 1 of their g-k+1
/// discovery lists. So only tuples whose count reaches ℓ = 2 are
/// verified (the ℓ-prefix scheme of Wang, Li and Feng, "Can we beat
/// the prefix filtering?", SIGMOD 2012); a tuple enters the verify
/// list when its count first reaches ℓ. With k = 1 or without
/// `insert_phase_optimization`, ℓ = 1 and every scanned list
/// discovers.
///
/// The probe *selects* its lists (std::nth_element over packed
/// (length, position) rank keys, linear in g) rather than sorting all
/// g grams: the order in which the discovery lists are scanned cannot
/// matter, since each tuple's T(t) count is a sum over them and the
/// matches are sorted by stored id at the end. k and the length band
/// depend only on g, the measure and the threshold, so they come from
/// the scratch's per-gram-count ProbePlan. Of the verify list, tuples
/// whose gram count is outside the length band are dropped, as are
/// those whose scanned-list hits plus the unscanned lists cannot reach
/// the pair's required overlap (MinPairOverlap). Each survivor is
/// verified by a sorted-merge intersection of the two gram sets that
/// gives up as soon as the remaining grams cannot lift the overlap to
/// that minimum. The similarity comes from the full overlap through
/// SetSimilarityFromOverlap. The result is exactly the set of stored
/// tuples with sim(probe, stored) >= spec.sim_threshold; matches whose
/// strings are bytewise equal are flagged kExact (similarity 1.0), the
/// rest kApproximate. Soundness rests on the probe side alone, so the
/// index posts every gram and no global gram order is needed. The
/// ablation knobs in `options` change which lists are scanned, never
/// the result.
///
/// `probe_grams` is the probe key's gram set — for stored probing
/// tuples it comes straight from the store's gram cache, so neither
/// side of the verification re-runs gram extraction. `store` supplies
/// candidate strings for the equality check; `scratch` makes the probe
/// allocation-free in steady state (null = a probe-local scratch,
/// whose candidate table costs O(index size) per call) and keeps the
/// selection in its `ranks`; `stats` may be null. Matches are appended
/// to `*out` (sorted by stored id within the appended region); returns
/// the number appended.
size_t ProbeApproximateInto(const QGramIndex& index,
                            const storage::TupleStore& store,
                            std::string_view probe_key,
                            const text::GramSet& probe_grams,
                            const JoinSpec& spec, Side probe_side,
                            storage::TupleId probe_id,
                            const ApproxProbeOptions& options,
                            ApproxProbeScratch* scratch,
                            ApproxProbeStats* stats,
                            std::vector<JoinMatch>* out);

/// \brief The same kernel over a selection made by an earlier
/// ProbeApproximateInto call with the same probe gram set, spec and
/// options, and restricted to the stored tuples with ids below
/// `id_limit`.
///
/// `selected` holds `selected_count` gram-set positions, the low halves
/// of that call's ranks[0, scratch.selected), count-only list last.
/// Any g-k+1 lists are a sound discovery set, so the selection stays
/// valid against any index; only the selected grams are looked up and
/// nothing is ranked. Posting lists are in id order, so each scan
/// stops at the first id at or past `id_limit`, and T(t) covers only
/// the ids below it. Phase B uses this to probe another shard with the
/// lists the tuple's own-shard probe chose, cut at its sequence gate.
/// `probe_grams` must be non-empty and `scratch` non-null; the rest is
/// as in ProbeApproximateInto, whose scan-and-verify body this shares.
size_t ProbeSelectedApproximateInto(
    const QGramIndex& index, const storage::TupleStore& store,
    std::string_view probe_key, const text::GramSet& probe_grams,
    const JoinSpec& spec, Side probe_side, storage::TupleId probe_id,
    const ApproxProbeOptions& options, const uint32_t* selected,
    size_t selected_count, storage::TupleId id_limit,
    ApproxProbeScratch* scratch, ApproxProbeStats* stats,
    std::vector<JoinMatch>* out);

/// Extracting overload for callers without cached probe grams.
size_t ProbeApproximateInto(const QGramIndex& index,
                            const storage::TupleStore& store,
                            std::string_view probe_key, const JoinSpec& spec,
                            Side probe_side, storage::TupleId probe_id,
                            const ApproxProbeOptions& options,
                            ApproxProbeStats* stats,
                            std::vector<JoinMatch>* out);

/// Convenience wrapper returning a fresh vector (tests, one-off code).
std::vector<JoinMatch> ProbeApproximate(const QGramIndex& index,
                                        const storage::TupleStore& store,
                                        std::string_view probe_key,
                                        const JoinSpec& spec, Side probe_side,
                                        storage::TupleId probe_id,
                                        const ApproxProbeOptions& options,
                                        ApproxProbeStats* stats);

}  // namespace join
}  // namespace aqp

#endif  // AQP_JOIN_PROBE_H_
