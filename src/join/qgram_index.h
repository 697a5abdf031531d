#ifndef AQP_JOIN_QGRAM_INDEX_H_
#define AQP_JOIN_QGRAM_INDEX_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "storage/tuple_store.h"
#include "text/qgram.h"

namespace aqp {
namespace join {

/// \brief SSHJoin's per-operand structure: q-gram → tuples containing
/// it (Fig. 3, right).
///
/// The posting list length of a gram is its *frequency* — the quantity
/// SSHJoin's probe uses to pick its rarest grams (§2.2). Per-tuple
/// gram sets are served by the TupleStore's gram cache when the store
/// has one with matching options (the engine's stores always do), so
/// the index, the candidate verifier, and switch catch-up all share
/// one extraction per tuple. Stores without a compatible cache fall
/// back to a local copy (tests, ad-hoc tooling). Gram-set *sizes* live
/// in a dense per-tuple lane of the index itself, so the probe's band
/// check and count prune never touch a gram set.
///
/// Postings live in a flat open-addressing gram table (PostingTable
/// below) that grows by load factor only. There is no size-hint
/// reservation, so an index that is never caught up (an exact-only
/// query) holds no table at all.
///
/// Like ExactIndex, the structure lags its TupleStore and is advanced
/// by CatchUpWith(). The store bound by the first CatchUpWith() call
/// must be the one all later calls pass (checked by assert).
class QGramIndex {
 public:
  /// An empty index posting every gram of every tuple it catches up.
  explicit QGramIndex(text::QGramOptions options) : options_(options) {}

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
  /// or nullptr if no indexed tuple has the gram.
  const std::vector<storage::TupleId>* Postings(text::GramKey key) const;

  /// Frequency of a gram: number of indexed tuples containing it.
  size_t Frequency(text::GramKey key) const;

  /// Gram-set size of an indexed tuple (id < watermark()), read from
  /// the gram-count lane.
  size_t GramSetSize(storage::TupleId id) const { return gram_counts_[id]; }

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

  /// Number of distinct grams with at least one posting.
  size_t distinct_grams() const { return postings_.live_lists(); }

  /// Average posting-list length B_ap (Table 1's cost parameter).
  double AveragePostingLength() const;

  /// Extraction options.
  const text::QGramOptions& options() const { return options_; }

  /// Rough heap footprint in bytes (§2.3: n · (|jA|+q-1) · p): the
  /// slot array, the posting lists and the gram-count lane. Gram sets
  /// served by the store's cache are accounted there, not here.
  size_t ApproximateMemoryUsage() const;

 private:
  /// \brief The flat gram → posting-list table.
  ///
  /// A power-of-two array of 32-bit slots, probed linearly from a
  /// multiplicative hash of the 64-bit gram key, holds list indices; the
  /// lists, each stored with its gram, sit in one dense vector in
  /// first-posting order, so a hit reads the slot and then the list it
  /// needs anyway. The slot array doubles when the list count would
  /// pass 3/4 of it. A list emptied by PopBack() keeps its slot and
  /// index but reads as absent.
  class PostingTable {
   public:
    /// The gram's postings, or nullptr if it has none.
    const std::vector<storage::TupleId>* Find(text::GramKey key) const;
    /// Appends `id` to the gram's list, creating the list if new.
    void Append(text::GramKey key, storage::TupleId id);
    /// Removes the last posting of the gram's (non-empty) list.
    void PopBack(text::GramKey key);
    /// Grams with at least one posting.
    size_t live_lists() const { return live_lists_; }
    /// Heap bytes: slots, list headers and posting capacity.
    size_t ApproximateMemoryUsage() const;

   private:
    static constexpr uint32_t kFree = std::numeric_limits<uint32_t>::max();
    struct List {
      text::GramKey key = 0;
      std::vector<storage::TupleId> postings;
    };
    /// Slot holding `key`'s list, or the free slot where it would go
    /// (slots_ must be non-empty).
    size_t SlotOf(text::GramKey key) const;
    /// Index of `key`'s list, or kFree if the gram was never posted.
    uint32_t ListOf(text::GramKey key) const;
    /// Doubles the slot array (allocates the first one) and reinserts
    /// every list.
    void Grow();

    std::vector<uint32_t> slots_;
    /// 64 - log2(slots_.size()): the hash keeps the product's top bits.
    int shift_ = 64;
    std::vector<List> lists_;
    size_t live_lists_ = 0;
  };

  text::QGramOptions options_;
  PostingTable postings_;
  /// Gram-set size of each indexed tuple, by TupleId.
  std::vector<uint32_t> gram_counts_;
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
