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

/// Reserve() cap: distinct grams saturate around the alphabet^q corpus
/// vocabulary, far below million-row tuple counts — reserving one
/// bucket per expected tuple beyond this would only waste bucket
/// array memory.
constexpr size_t kMaxReservedBuckets = size_t{1} << 20;

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
  const bool payload = payload_mode();
  for (size_t i = watermark_; i < target; ++i) {
    const auto id = static_cast<storage::TupleId>(i);
    if (!store_backed_) {
      local_gram_sets_.push_back(
          text::GramSet::Of(store.JoinKey(id), options_));
    }
    const text::GramSet& set = GramSetOf(id);
    if (set.empty()) {
      empty_gram_tuples_.push_back(id);
    } else if (!payload) {
      for (text::GramKey key : set.grams()) {
        std::vector<storage::TupleId>& postings = postings_[key];
        if (postings.capacity() == 0) {
          postings.reserve(kInitialPostingCapacity);
        }
        postings.push_back(id);
        ++total_postings_;
      }
    } else {
      // Payload layout: post the first g-k+1 grams in the global gram
      // order (all g without prefix filtering), each carrying the
      // tuple's gram count and the gram's position in the ordered list.
      const size_t g = set.size();
      const size_t posted = OrderPostedGrams(set);
      for (size_t j = 0; j < posted; ++j) {
        std::vector<GramPosting>& postings =
            payload_postings_[order_scratch_[j].second];
        if (postings.capacity() == 0) {
          postings.reserve(kInitialPostingCapacity);
        }
        postings.push_back(GramPosting{id, static_cast<uint32_t>(g),
                                       static_cast<uint32_t>(j)});
        ++total_postings_;
      }
    }
    ++inserted;
  }
  watermark_ = target;
  return inserted;
}

size_t QGramIndex::OrderPostedGrams(const text::GramSet& set) {
  const text::GramOrder* order = filter_.gram_order.get();
  const size_t g = set.size();
  order_scratch_.clear();
  order_scratch_.reserve(g);
  for (text::GramKey key : set.grams()) {
    order_scratch_.emplace_back(order ? order->FrequencyOf(key) : 0, key);
  }
  // grams() is already key-sorted, so with no sampled order this sort
  // is a no-op pass; with one it ranks rarest first.
  std::sort(order_scratch_.begin(), order_scratch_.end());
  return filter_.prefix ? PrefixLengthFor(measure_, g, sim_threshold_) : g;
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
    } else if (!payload_mode()) {
      for (text::GramKey key : set.grams()) {
        auto it = postings_.find(key);
        assert(it != postings_.end() && it->second.back() == id);
        it->second.pop_back();
        if (it->second.empty()) postings_.erase(it);
        --total_postings_;
      }
    } else {
      const size_t posted = OrderPostedGrams(set);
      for (size_t j = 0; j < posted; ++j) {
        auto it = payload_postings_.find(order_scratch_[j].second);
        assert(it != payload_postings_.end() && it->second.back().id == id);
        it->second.pop_back();
        if (it->second.empty()) payload_postings_.erase(it);
        --total_postings_;
      }
    }
  }
  if (!store_backed_) local_gram_sets_.resize(n);
  watermark_ = n;
}

const std::vector<storage::TupleId>* QGramIndex::Postings(
    text::GramKey key) const {
  assert(!payload_mode() && "plain postings unavailable in payload mode");
  auto it = postings_.find(key);
  return it == postings_.end() ? nullptr : &it->second;
}

const std::vector<GramPosting>* QGramIndex::PayloadPostings(
    text::GramKey key) const {
  assert(payload_mode() && "payload postings require an enabled filter");
  auto it = payload_postings_.find(key);
  return it == payload_postings_.end() ? nullptr : &it->second;
}

size_t QGramIndex::Frequency(text::GramKey key) const {
  if (payload_mode()) {
    auto it = payload_postings_.find(key);
    return it == payload_postings_.end() ? 0 : it->second.size();
  }
  auto it = postings_.find(key);
  return it == postings_.end() ? 0 : it->second.size();
}

double QGramIndex::AveragePostingLength() const {
  const size_t distinct = distinct_grams();
  if (distinct == 0) return 0.0;
  return static_cast<double>(total_postings_) /
         static_cast<double>(distinct);
}

void QGramIndex::Reserve(size_t expected_tuples) {
  const size_t buckets = std::min(expected_tuples, kMaxReservedBuckets);
  if (buckets == 0) return;
  if (payload_mode()) {
    payload_postings_.reserve(buckets);
  } else {
    postings_.reserve(buckets);
  }
}

size_t QGramIndex::ApproximateMemoryUsage() const {
  size_t bytes = 0;
  for (const auto& [key, postings] : postings_) {
    bytes += sizeof(key);
    bytes += postings.capacity() * sizeof(storage::TupleId) +
             sizeof(postings);
  }
  for (const auto& [key, postings] : payload_postings_) {
    bytes += sizeof(key);
    bytes += postings.capacity() * sizeof(GramPosting) + sizeof(postings);
  }
  // Bucket arrays: reserved capacity is real memory even before any
  // posting lands in it.
  bytes += postings_.bucket_count() * sizeof(void*);
  bytes += payload_postings_.bucket_count() * sizeof(void*);
  for (const text::GramSet& set : local_gram_sets_) {
    bytes += set.grams().capacity() * sizeof(text::GramKey) + sizeof(set);
  }
  bytes += empty_gram_tuples_.capacity() * sizeof(storage::TupleId);
  return bytes;
}

}  // namespace join
}  // namespace aqp
