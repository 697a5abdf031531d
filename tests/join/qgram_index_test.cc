#include "join/qgram_index.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "storage/tuple_store.h"

namespace aqp {
namespace join {
namespace {

using storage::Tuple;
using storage::TupleStore;
using storage::Value;

text::QGramOptions Q3() {
  text::QGramOptions o;
  o.q = 3;
  return o;
}

TEST(QGramIndexTest, PostingsContainInsertingTuples) {
  TupleStore store(0);
  store.Add(Tuple{Value("SANTA")});
  store.Add(Tuple{Value("SANTO")});
  QGramIndex index(Q3());
  EXPECT_EQ(index.CatchUpWith(store), 2u);

  // Shared gram "SAN" should list both tuples.
  const auto grams = text::ExtractGramSequence("SANTA", Q3());
  const auto* postings = index.Postings(grams[2]);  // "SAN"
  ASSERT_NE(postings, nullptr);
  EXPECT_EQ(postings->size(), 2u);
  EXPECT_EQ(index.Frequency(grams[2]), 2u);
}

TEST(QGramIndexTest, PostingsAreDeduplicatedPerTuple) {
  TupleStore store(0);
  store.Add(Tuple{Value("AAAAAA")});  // "AAA" occurs many times
  QGramIndex index(Q3());
  index.CatchUpWith(store);
  const auto set = text::GramSet::Of("AAAAAA", Q3());
  for (text::GramKey key : set.grams()) {
    const auto* postings = index.Postings(key);
    ASSERT_NE(postings, nullptr);
    EXPECT_EQ(postings->size(), 1u) << "gram duplicated in posting list";
  }
}

TEST(QGramIndexTest, GramSetSizesStored) {
  TupleStore store(0);
  store.Add(Tuple{Value("SANTA")});
  QGramIndex index(Q3());
  index.CatchUpWith(store);
  const auto set = text::GramSet::Of("SANTA", Q3());
  EXPECT_EQ(index.GramSetSize(0), set.size());
  EXPECT_EQ(index.GramSetOf(0), set);
}

TEST(QGramIndexTest, UnknownGramHasZeroFrequency) {
  QGramIndex index(Q3());
  EXPECT_EQ(index.Frequency(0xFFFFFFFFull), 0u);
  EXPECT_EQ(index.Postings(0xFFFFFFFFull), nullptr);
}

TEST(QGramIndexTest, IncrementalCatchUpMatchesFreshBuild) {
  TupleStore store(0);
  const std::vector<std::string> values = {"SANTA CRISTINA", "MONTE BIANCO",
                                           "VILLA ROSSA", "SANTA LUCIA",
                                           "BORGO SAN LORENZO"};
  QGramIndex incremental(Q3());
  for (const std::string& v : values) {
    store.Add(Tuple{Value(v)});
    incremental.CatchUpWith(store);  // catch up one at a time
  }
  QGramIndex fresh(Q3());
  fresh.CatchUpWith(store);  // all at once

  EXPECT_EQ(incremental.watermark(), fresh.watermark());
  EXPECT_EQ(incremental.distinct_grams(), fresh.distinct_grams());
  for (size_t i = 0; i < values.size(); ++i) {
    const auto id = static_cast<storage::TupleId>(i);
    EXPECT_EQ(incremental.GramSetOf(id), fresh.GramSetOf(id));
    for (text::GramKey key : fresh.GramSetOf(id).grams()) {
      ASSERT_NE(incremental.Postings(key), nullptr);
      EXPECT_EQ(*incremental.Postings(key), *fresh.Postings(key));
    }
  }
}

TEST(QGramIndexTest, EmptyGramTuplesTracked) {
  text::QGramOptions unpadded = Q3();
  unpadded.pad = false;
  TupleStore store(0);
  store.Add(Tuple{Value("AB")});  // shorter than q: no grams
  store.Add(Tuple{Value("ABCDEF")});
  QGramIndex index(unpadded);
  index.CatchUpWith(store);
  ASSERT_EQ(index.empty_gram_tuples().size(), 1u);
  EXPECT_EQ(index.empty_gram_tuples()[0], 0u);
}

TEST(QGramIndexTest, AveragePostingLength) {
  TupleStore store(0);
  store.Add(Tuple{Value("ABC")});
  QGramIndex index(Q3());
  index.CatchUpWith(store);
  // One tuple: every posting list has length 1.
  EXPECT_DOUBLE_EQ(index.AveragePostingLength(), 1.0);
}

TEST(QGramIndexTest, SpaceGrowsWithGramCount) {
  // §2.3: q-gram index space is ~(|jA|+q-1) pointers per tuple versus
  // one for the exact table.
  TupleStore store(0);
  for (int i = 0; i < 20; ++i) {
    store.Add(Tuple{Value("LOCATION STRING NUMBER " + std::to_string(i))});
  }
  QGramIndex index(Q3());
  index.CatchUpWith(store);
  EXPECT_GT(index.ApproximateMemoryUsage(),
            20u * 20u * sizeof(storage::TupleId));
}

TEST(QGramIndexTest, StoreBackedGramSetsServedFromStoreCache) {
  // A store with a matching gram cache serves the per-tuple sets; the
  // index keeps no copy, and both sides see the identical object.
  TupleStore store(0, Q3());
  store.Add(Tuple{Value("SANTA CRISTINA")});
  store.Add(Tuple{Value("MONTE BIANCO")});
  QGramIndex index(Q3());
  index.CatchUpWith(store);
  for (storage::TupleId id = 0; id < 2; ++id) {
    EXPECT_EQ(&index.GramSetOf(id), &store.Grams(id)) << "tuple " << id;
    EXPECT_EQ(index.GramSetSize(id), store.Grams(id).size());
  }
}

TEST(QGramIndexTest, StoreBackedMemoryNotDoubleCounted) {
  // §2.3 space accounting with the arena-backed layout: gram sets
  // cached in the store are charged to the store, not the index, so
  // the same workload yields a smaller index + a larger store, never
  // both holding a copy.
  const auto fill = [](TupleStore* store) {
    for (int i = 0; i < 20; ++i) {
      store->Add(
          Tuple{Value("LOCATION STRING NUMBER " + std::to_string(i))});
    }
  };
  TupleStore cached_store(0, Q3());
  fill(&cached_store);
  QGramIndex cached_index(Q3());
  cached_index.CatchUpWith(cached_store);

  TupleStore plain_store(0);
  fill(&plain_store);
  QGramIndex local_index(Q3());
  local_index.CatchUpWith(plain_store);

  // Identical index structure either way...
  EXPECT_EQ(cached_index.distinct_grams(), local_index.distinct_grams());
  EXPECT_EQ(cached_index.watermark(), local_index.watermark());
  // ...but the gram-set bytes move from the index to the store.
  EXPECT_LT(cached_index.ApproximateMemoryUsage(),
            local_index.ApproximateMemoryUsage());
  EXPECT_GT(cached_store.ApproximateMemoryUsage(),
            plain_store.ApproximateMemoryUsage());
  // Postings alone still dominate the exact table's one-pointer-per-
  // tuple budget (§2.3's space trade-off stays visible).
  EXPECT_GT(cached_index.ApproximateMemoryUsage(),
            20u * 20u * sizeof(storage::TupleId));
}

/// Every gram of `values` (ids in insertion order) mapped to the ids
/// whose gram set holds it — the reference the flat table must equal.
std::map<text::GramKey, std::vector<storage::TupleId>> ReferencePostings(
    const std::vector<std::string>& values, const text::QGramOptions& q) {
  std::map<text::GramKey, std::vector<storage::TupleId>> reference;
  for (size_t i = 0; i < values.size(); ++i) {
    const text::GramSet set = text::GramSet::Of(values[i], q);
    for (text::GramKey key : set.grams()) {
      reference[key].push_back(static_cast<storage::TupleId>(i));
    }
  }
  return reference;
}

TEST(QGramIndexTest, GrowthAcrossRehashesKeepsEveryListInIdOrder) {
  // Thousands of distinct grams, caught up in uneven steps: the slot
  // array doubles many times while lists are being appended to.
  std::vector<std::string> values;
  for (int i = 0; i < 600; ++i) {
    values.push_back("ROW " + std::to_string(i * 7919) + " VIA " +
                     std::to_string(i % 37) + std::string(1, 'A' + i % 26));
  }
  TupleStore store(0);
  QGramIndex index(Q3());
  size_t added = 0;
  for (size_t step = 1; added < values.size(); step = step * 2 + 1) {
    for (size_t i = 0; i < step && added < values.size(); ++i) {
      store.Add(Tuple{Value(values[added++])});
    }
    index.CatchUpWith(store);
  }
  const auto reference = ReferencePostings(values, Q3());
  ASSERT_GT(reference.size(), 1000u);
  EXPECT_EQ(index.distinct_grams(), reference.size());
  for (const auto& [key, ids] : reference) {
    const auto* postings = index.Postings(key);
    ASSERT_NE(postings, nullptr) << "gram " << key;
    EXPECT_EQ(*postings, ids) << "gram " << key;
    EXPECT_EQ(index.Frequency(key), ids.size());
  }
}

TEST(QGramIndexTest, KeysDifferingOnlyInHighOrLowBitsStayDistinct) {
  // q = 8 packs a whole unpadded 8-byte string into one 64-bit key, the
  // first byte in the top bits: these keys differ only in their top
  // byte (or, for the second family, only in their bottom byte).
  text::QGramOptions q8;
  q8.q = 8;
  q8.pad = false;
  std::vector<std::string> values;
  for (int c = 1; c < 256; ++c) {
    values.push_back(std::string(1, static_cast<char>(c)) + "BCDEFGH");
  }
  for (int c = 1; c < 256; ++c) {
    if (c == 'H') continue;  // "ABCDEFGH" is in the first family
    values.push_back("ABCDEFG" + std::string(1, static_cast<char>(c)));
  }
  TupleStore store(0);
  for (const std::string& v : values) store.Add(Tuple{Value(v)});
  QGramIndex index(q8);
  index.CatchUpWith(store);
  EXPECT_EQ(index.distinct_grams(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const text::GramSet set = text::GramSet::Of(values[i], q8);
    ASSERT_EQ(set.size(), 1u);
    const auto* postings = index.Postings(set.grams()[0]);
    ASSERT_NE(postings, nullptr) << "value " << i;
    EXPECT_EQ(*postings, std::vector<storage::TupleId>{
                             static_cast<storage::TupleId>(i)});
  }
}

/// Frequency of every gram of `values` in `index`, keyed by gram.
std::map<text::GramKey, size_t> Frequencies(
    const QGramIndex& index, const std::vector<std::string>& values) {
  std::map<text::GramKey, size_t> out;
  for (const std::string& v : values) {
    const text::GramSet set = text::GramSet::Of(v, Q3());
    for (text::GramKey key : set.grams()) out[key] = index.Frequency(key);
  }
  return out;
}

TEST(QGramIndexTest, RollbackEmptiedListReadsAsAbsent) {
  TupleStore store(0);
  store.Add(Tuple{Value("SANTA CRISTINA")});
  store.Add(Tuple{Value("MONTE BIANCO")});
  QGramIndex index(Q3());
  index.CatchUpWith(store);
  index.RollbackTo(1);

  TupleStore prefix_store(0);
  prefix_store.Add(Tuple{Value("SANTA CRISTINA")});
  QGramIndex fresh(Q3());
  fresh.CatchUpWith(prefix_store);

  // "ONT" occurs only in the rolled-back tuple: its list is empty now.
  const text::GramKey only_dropped =
      text::ExtractGramSequence("ONT", Q3())[2];
  EXPECT_EQ(index.Frequency(only_dropped), 0u);
  EXPECT_EQ(index.Postings(only_dropped), nullptr);
  EXPECT_EQ(index.watermark(), 1u);
  EXPECT_EQ(index.distinct_grams(), fresh.distinct_grams());
  EXPECT_DOUBLE_EQ(index.AveragePostingLength(),
                   fresh.AveragePostingLength());
  EXPECT_EQ(Frequencies(index, {"SANTA CRISTINA", "MONTE BIANCO"}),
            Frequencies(fresh, {"SANTA CRISTINA", "MONTE BIANCO"}));
}

TEST(QGramIndexTest, RollbackThenReinsertEqualsFreshBuild) {
  const std::vector<std::string> first = {
      "SANTA CRISTINA", "MONTE BIANCO", "VILLA ROSSA", "SANTA LUCIA",
      "BORGO SAN LORENZO", "CASTEL NUOVO"};
  const std::vector<std::string> second = {"SANTA MARIA", "VALLE VERDE",
                                           "MONTE ROSA"};
  TupleStore store(0);
  QGramIndex index(Q3());
  for (const std::string& v : first) store.Add(Tuple{Value(v)});
  index.CatchUpWith(store);
  index.RollbackTo(2);
  store.Truncate(2);
  for (const std::string& v : second) store.Add(Tuple{Value(v)});
  index.CatchUpWith(store);

  std::vector<std::string> final_values(first.begin(), first.begin() + 2);
  final_values.insert(final_values.end(), second.begin(), second.end());
  TupleStore fresh_store(0);
  for (const std::string& v : final_values) {
    fresh_store.Add(Tuple{Value(v)});
  }
  QGramIndex fresh(Q3());
  fresh.CatchUpWith(fresh_store);

  EXPECT_EQ(index.watermark(), fresh.watermark());
  EXPECT_EQ(index.distinct_grams(), fresh.distinct_grams());
  EXPECT_DOUBLE_EQ(index.AveragePostingLength(),
                   fresh.AveragePostingLength());
  std::vector<std::string> every_value = first;
  every_value.insert(every_value.end(), second.begin(), second.end());
  for (const std::string& v : every_value) {
    const text::GramSet set = text::GramSet::Of(v, Q3());
    for (text::GramKey key : set.grams()) {
      EXPECT_EQ(index.Frequency(key), fresh.Frequency(key));
      const auto* a = index.Postings(key);
      const auto* b = fresh.Postings(key);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a != nullptr) EXPECT_EQ(*a, *b);
    }
  }
  for (storage::TupleId id = 0; id < fresh.watermark(); ++id) {
    EXPECT_EQ(index.GramSetSize(id), fresh.GramSetSize(id));
  }
}

TEST(QGramIndexTest, MemoryCountsSlotsListsAndGramCountLane) {
  // Four copies each of 709 distinct unpadded 8-byte strings: one gram
  // per tuple, so every list holds exactly four postings. The bound
  // below takes each part at its least possible size, so it holds
  // under any growth policy; with these counts it is tight enough that
  // a figure leaving out the slots, the list headers or the lane falls
  // under it.
  text::QGramOptions q8;
  q8.q = 8;
  q8.pad = false;
  constexpr size_t kDistinct = 709;
  constexpr size_t kCopies = 4;
  TupleStore store(0, q8);  // gram sets charged to the store
  for (size_t copy = 0; copy < kCopies; ++copy) {
    for (size_t i = 0; i < kDistinct; ++i) {
      std::string value = "K0000000";
      for (size_t at = 7, rest = i; rest > 0; --at, rest /= 10) {
        value[at] = static_cast<char>('0' + rest % 10);
      }
      store.Add(Tuple{Value(value)});
    }
  }
  QGramIndex index(q8);
  index.CatchUpWith(store);
  ASSERT_EQ(index.distinct_grams(), kDistinct);
  const size_t tuples = kDistinct * kCopies;
  // Slots stay at most 3/4 full; each list holds its gram and a vector
  // header; each posting is one id; each tuple has one lane entry.
  const size_t floor =
      (kDistinct * 4 + 2) / 3 * sizeof(uint32_t) +
      kDistinct *
          (sizeof(text::GramKey) + sizeof(std::vector<storage::TupleId>)) +
      tuples * sizeof(storage::TupleId) + tuples * sizeof(uint32_t);
  EXPECT_GE(index.ApproximateMemoryUsage(), floor);

  // Gram-less tuples post nothing, yet each takes a lane entry.
  text::QGramOptions unpadded = Q3();
  unpadded.pad = false;
  TupleStore short_store(0, unpadded);
  for (int i = 0; i < 1024; ++i) short_store.Add(Tuple{Value("AB")});
  QGramIndex empty_grams(unpadded);
  empty_grams.CatchUpWith(short_store);
  EXPECT_EQ(empty_grams.distinct_grams(), 0u);
  EXPECT_GE(empty_grams.ApproximateMemoryUsage(),
            1024 * (sizeof(uint32_t) + sizeof(storage::TupleId)));
}

}  // namespace
}  // namespace join
}  // namespace aqp
