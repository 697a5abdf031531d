#ifndef AQP_JOIN_QGRAM_INDEX_H_
#define AQP_JOIN_QGRAM_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "join/filter.h"
#include "storage/tuple_store.h"
#include "text/qgram.h"
#include "text/similarity.h"

namespace aqp {
namespace join {

/// \brief One entry of a payload posting list (filtered layout): the
/// tuple plus the two per-tuple facts the length and positional
/// filters prune on, so the probe never dereferences a store row to
/// decide a skip.
struct GramPosting {
  storage::TupleId id = 0;
  /// Gram-set size g_s of the stored tuple (length filter).
  uint32_t gram_count = 0;
  /// 0-based index of this gram in the tuple's globally ordered gram
  /// list (positional filter).
  uint32_t position = 0;
};

/// \brief SSHJoin's per-operand structure: q-gram → tuples containing
/// it (Fig. 3, right).
///
/// The posting list length of a gram is its *frequency* — the quantity
/// SSHJoin's probe uses to order grams rarest-first (§2.2). Per-tuple
/// gram sets are served by the TupleStore's gram cache when the store
/// has one with matching options (the engine's stores always do), so
/// the index, the candidate verifier, and switch catch-up all share
/// one extraction per tuple. Stores without a compatible cache fall
/// back to a local copy (tests, ad-hoc tooling).
///
/// Two posting layouts exist:
///  - *plain* (no filters): every gram of every tuple is posted as a
///    bare TupleId — the paper's structure, unchanged;
///  - *payload* (any filter on): postings carry GramPosting entries,
///    and with prefix filtering each tuple is posted only under its
///    g-k+1 prefix grams in the filter's fixed global gram order,
///    shrinking both posting lists and index memory. Probe-side
///    counting stays sound via the prefix-overlap argument (see
///    join/filter.h).
///
/// Like ExactIndex, the structure lags its TupleStore and is advanced
/// by CatchUpWith(). The store bound by the first CatchUpWith() call
/// must be the one all later calls pass (checked by assert).
class QGramIndex {
 public:
  /// Plain layout: every gram posted, bare TupleId postings.
  explicit QGramIndex(text::QGramOptions options) : options_(options) {}

  /// Filter-aware layout: when `filter.any()`, postings carry payload
  /// entries; with `filter.prefix` only the g-k+1 prefix grams (under
  /// `filter.gram_order`, measure and threshold fixing k per tuple)
  /// are posted. With no filter enabled this is the plain layout.
  QGramIndex(text::QGramOptions options, ApproxFilterOptions filter,
             text::SimilarityMeasure measure, double sim_threshold)
      : options_(options),
        filter_(std::move(filter)),
        measure_(measure),
        sim_threshold_(sim_threshold) {}

  /// Indexes store tuples [watermark, store.size()); returns how many
  /// tuples were inserted.
  size_t CatchUpWith(const storage::TupleStore& store);

  /// Un-indexes tuples [n, watermark()), newest first, leaving the
  /// index exactly as if it had only caught up to `n`: same posting
  /// lists, same distinct grams, same frequencies. Must run before the
  /// bound store drops those tuples (their gram sets are read back).
  /// No-op when n >= watermark().
  void RollbackTo(size_t n);

  /// Posting list of a gram (tuples whose join attribute contains it),
  /// or nullptr if the gram is unknown. Plain layout only.
  const std::vector<storage::TupleId>* Postings(text::GramKey key) const;

  /// Payload posting list of a gram, or nullptr if the gram is
  /// unknown. Payload layout only.
  const std::vector<GramPosting>* PayloadPostings(text::GramKey key) const;

  /// True iff the index stores payload postings (some filter enabled).
  bool payload_mode() const { return filter_.any(); }

  /// The filter configuration this index was built for.
  const ApproxFilterOptions& filter() const { return filter_; }

  /// Frequency of a gram: number of posting entries for it. With
  /// prefix filtering this counts *posted* (prefix) occurrences, which
  /// is what probe cost accounting observes.
  size_t Frequency(text::GramKey key) const;

  /// Gram-set size of an indexed tuple (id < watermark()).
  size_t GramSetSize(storage::TupleId id) const {
    return GramSetOf(id).size();
  }

  /// Gram set of an indexed tuple — the store's cached set when the
  /// bound store serves it, otherwise the local fallback copy.
  const text::GramSet& GramSetOf(storage::TupleId id) const {
    return store_backed_ ? store_->Grams(id) : local_gram_sets_[id];
  }

  /// Indexed tuples whose join attribute produced no grams (empty
  /// strings when padding is off); they can only match each other.
  const std::vector<storage::TupleId>& empty_gram_tuples() const {
    return empty_gram_tuples_;
  }

  /// Number of store tuples indexed so far.
  size_t watermark() const { return watermark_; }

  /// Number of distinct grams in the index.
  size_t distinct_grams() const {
    return payload_mode() ? payload_postings_.size() : postings_.size();
  }

  /// Average posting-list length B_ap (Table 1's cost parameter).
  double AveragePostingLength() const;

  /// Extraction options.
  const text::QGramOptions& options() const { return options_; }

  /// Reserves hash-table capacity for the expected tuple count (the
  /// store's size hint), so steady catch-up does not rehash the
  /// posting map. Distinct grams saturate well below the tuple count
  /// on natural text, so the reservation is capped.
  void Reserve(size_t expected_tuples);

  /// Rough heap footprint in bytes (§2.3: n · (|jA|+q-1) · p), covering
  /// whichever posting layout is active — payload entries included.
  /// Gram sets served by the store's cache are accounted there, not
  /// here.
  size_t ApproximateMemoryUsage() const;

 private:
  /// Payload layout: fills order_scratch_ with `set`'s grams under the
  /// global gram order and returns how many of them are posted.
  size_t OrderPostedGrams(const text::GramSet& set);

  text::QGramOptions options_;
  ApproxFilterOptions filter_;
  text::SimilarityMeasure measure_ = text::SimilarityMeasure::kJaccard;
  double sim_threshold_ = 0.85;
  /// Plain layout postings (filter_.any() == false).
  std::unordered_map<text::GramKey, std::vector<storage::TupleId>> postings_;
  /// Payload layout postings (filter_.any() == true).
  std::unordered_map<text::GramKey, std::vector<GramPosting>>
      payload_postings_;
  /// Scratch for ordering a tuple's grams during payload catch-up.
  std::vector<std::pair<uint64_t, text::GramKey>> order_scratch_;
  /// Bound store (set by the first CatchUpWith); store_backed_ records
  /// whether its gram cache serves this index's options.
  const storage::TupleStore* store_ = nullptr;
  bool store_backed_ = false;
  /// Fallback gram sets for stores without a compatible cache.
  std::vector<text::GramSet> local_gram_sets_;
  std::vector<storage::TupleId> empty_gram_tuples_;
  size_t watermark_ = 0;
  size_t total_postings_ = 0;
};

}  // namespace join
}  // namespace aqp

#endif  // AQP_JOIN_QGRAM_INDEX_H_
