#include "join/qgram_index.h"

#include <algorithm>
#include <cassert>

namespace aqp {
namespace join {

namespace {

/// First reservation of a posting vector. Posting lists grow one tuple
/// at a time during catch-up; reserving a few slots up front removes
/// the 1→2→4 reallocation churn every new gram would otherwise pay.
constexpr size_t kInitialPostingCapacity = 4;

/// log2 of the first gram table's slot count.
constexpr int kInitialSlotBits = 6;

/// Fibonacci hashing multiplier (2^64 / golden ratio). The top bits of
/// key * kHashMultiplier depend on every bit of the key, so packed gram
/// keys, which fill only their low 8·q bits, spread over the whole
/// table.
constexpr uint64_t kHashMultiplier = 0x9E3779B97F4A7C15ull;

/// Makes room for `n` elements in `v`, growing its capacity by a
/// quarter at a time (or straight to `n`, for a bulk catch-up). Index
/// memory is charged by capacity, and doubling would leave up to half
/// of the gram-count lane or the list vector idle.
template <typename T>
void ReserveForAppend(std::vector<T>* v, size_t n) {
  if (n > v->capacity()) {
    v->reserve(std::max(n, v->capacity() + v->capacity() / 4 + 1));
  }
}

}  // namespace

size_t QGramIndex::CatchUpWith(const storage::TupleStore& store) {
  assert((store_ == nullptr || store_ == &store) &&
         "QGramIndex is bound to one TupleStore");
  if (store_ == nullptr) {
    store_ = &store;
    store_backed_ =
        store.gram_cache_enabled() && store.gram_options() == options_;
  }
  const size_t target = store.size();
  size_t inserted = 0;
  if (!store_backed_) local_gram_sets_.reserve(target);
  ReserveForAppend(&gram_counts_, target);
  for (size_t i = watermark_; i < target; ++i) {
    const auto id = static_cast<storage::TupleId>(i);
    if (!store_backed_) {
      local_gram_sets_.push_back(
          text::GramSet::Of(store.JoinKey(id), options_));
    }
    const text::GramSet& set = GramSetOf(id);
    gram_counts_.push_back(static_cast<uint32_t>(set.size()));
    if (set.empty()) {
      empty_gram_tuples_.push_back(id);
    } else {
      for (text::GramKey key : set.grams()) {
        postings_.Append(key, id);
        ++total_postings_;
      }
    }
    ++inserted;
  }
  watermark_ = target;
  return inserted;
}

void QGramIndex::RollbackTo(size_t n) {
  if (n >= watermark_) return;
  // Postings are appended in id order, so the newest tuple's entries
  // are the tails of its grams' lists.
  for (size_t i = watermark_; i-- > n;) {
    const auto id = static_cast<storage::TupleId>(i);
    const text::GramSet& set = GramSetOf(id);
    if (set.empty()) {
      assert(empty_gram_tuples_.back() == id);
      empty_gram_tuples_.pop_back();
    } else {
      for (text::GramKey key : set.grams()) {
        assert(postings_.Find(key) != nullptr &&
               postings_.Find(key)->back() == id);
        postings_.PopBack(key);
        --total_postings_;
      }
    }
  }
  if (!store_backed_) local_gram_sets_.resize(n);
  gram_counts_.resize(n);
  watermark_ = n;
}

const std::vector<storage::TupleId>* QGramIndex::Postings(
    text::GramKey key) const {
  return postings_.Find(key);
}

size_t QGramIndex::Frequency(text::GramKey key) const {
  const std::vector<storage::TupleId>* postings = postings_.Find(key);
  return postings == nullptr ? 0 : postings->size();
}

double QGramIndex::AveragePostingLength() const {
  const size_t distinct = distinct_grams();
  if (distinct == 0) return 0.0;
  return static_cast<double>(total_postings_) /
         static_cast<double>(distinct);
}

size_t QGramIndex::ApproximateMemoryUsage() const {
  size_t bytes = postings_.ApproximateMemoryUsage();
  bytes += gram_counts_.capacity() * sizeof(uint32_t);
  for (const text::GramSet& set : local_gram_sets_) {
    bytes += set.grams().capacity() * sizeof(text::GramKey) + sizeof(set);
  }
  bytes += empty_gram_tuples_.capacity() * sizeof(storage::TupleId);
  return bytes;
}

size_t QGramIndex::PostingTable::SlotOf(text::GramKey key) const {
  const size_t mask = slots_.size() - 1;
  // The load factor stays at or below 3/4, so a free slot ends every
  // probe sequence.
  for (size_t i = (key * kHashMultiplier) >> shift_;; i = (i + 1) & mask) {
    const uint32_t list = slots_[i];
    if (list == kFree || lists_[list].key == key) return i;
  }
}

uint32_t QGramIndex::PostingTable::ListOf(text::GramKey key) const {
  return slots_.empty() ? kFree : slots_[SlotOf(key)];
}

const std::vector<storage::TupleId>* QGramIndex::PostingTable::Find(
    text::GramKey key) const {
  const uint32_t list = ListOf(key);
  if (list == kFree || lists_[list].postings.empty()) return nullptr;
  return &lists_[list].postings;
}

void QGramIndex::PostingTable::Append(text::GramKey key,
                                       storage::TupleId id) {
  uint32_t list = ListOf(key);
  if (list == kFree) {
    if ((lists_.size() + 1) * 4 > slots_.size() * 3) Grow();
    list = static_cast<uint32_t>(lists_.size());
    slots_[SlotOf(key)] = list;
    ReserveForAppend(&lists_, lists_.size() + 1);
    lists_.push_back(List{key, {}});
  }
  std::vector<storage::TupleId>& postings = lists_[list].postings;
  if (postings.empty()) {
    ++live_lists_;
    if (postings.capacity() == 0) postings.reserve(kInitialPostingCapacity);
  }
  postings.push_back(id);
}

void QGramIndex::PostingTable::PopBack(text::GramKey key) {
  std::vector<storage::TupleId>& postings = lists_[ListOf(key)].postings;
  postings.pop_back();
  if (postings.empty()) --live_lists_;
}

void QGramIndex::PostingTable::Grow() {
  shift_ = slots_.empty() ? 64 - kInitialSlotBits : shift_ - 1;
  slots_.assign(size_t{1} << (64 - shift_), kFree);
  for (size_t list = 0; list < lists_.size(); ++list) {
    slots_[SlotOf(lists_[list].key)] = static_cast<uint32_t>(list);
  }
}

size_t QGramIndex::PostingTable::ApproximateMemoryUsage() const {
  size_t bytes =
      slots_.capacity() * sizeof(uint32_t) + lists_.capacity() * sizeof(List);
  for (const List& list : lists_) {
    bytes += list.postings.capacity() * sizeof(storage::TupleId);
  }
  return bytes;
}

}  // namespace join
}  // namespace aqp
