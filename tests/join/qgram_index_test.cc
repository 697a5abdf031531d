#include "join/qgram_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "join/filter.h"
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

ApproxFilterOptions AllFilters() {
  ApproxFilterOptions f;
  f.length = f.prefix = f.positional = true;
  return f;
}

TEST(QGramIndexPayloadTest, PostingsCarryCountAndPosition) {
  TupleStore store(0);
  const std::string value = "SANTA CRISTINA VALGARDENA";
  store.Add(Tuple{Value(value)});
  QGramIndex index(Q3(), AllFilters(), text::SimilarityMeasure::kJaccard,
                   0.85);
  index.CatchUpWith(store);

  // Reconstruct the expected order: default gram order = ascending key.
  const auto set = text::GramSet::Of(value, Q3());
  std::vector<text::GramKey> ordered(set.grams().begin(), set.grams().end());
  std::sort(ordered.begin(), ordered.end());
  const size_t g = ordered.size();
  const size_t prefix =
      PrefixLengthFor(text::SimilarityMeasure::kJaccard, g, 0.85);
  ASSERT_LT(prefix, g);

  for (size_t j = 0; j < g; ++j) {
    const auto* postings = index.PayloadPostings(ordered[j]);
    if (j < prefix) {
      ASSERT_NE(postings, nullptr) << "prefix gram " << j << " not posted";
      ASSERT_EQ(postings->size(), 1u);
      EXPECT_EQ((*postings)[0].id, 0u);
      EXPECT_EQ((*postings)[0].gram_count, g);
      EXPECT_EQ((*postings)[0].position, j);
      EXPECT_EQ(index.Frequency(ordered[j]), 1u);
    } else {
      // Non-prefix grams of the only tuple must not be posted at all.
      EXPECT_EQ(postings, nullptr) << "non-prefix gram " << j << " posted";
    }
  }
}

TEST(QGramIndexPayloadTest, WithoutPrefixAllGramsPosted) {
  TupleStore store(0);
  const std::string value = "MONTE BIANCO SUPERIORE";
  store.Add(Tuple{Value(value)});
  ApproxFilterOptions length_only;
  length_only.length = true;
  QGramIndex index(Q3(), length_only, text::SimilarityMeasure::kJaccard,
                   0.85);
  index.CatchUpWith(store);
  EXPECT_TRUE(index.payload_mode());
  const auto set = text::GramSet::Of(value, Q3());
  for (text::GramKey key : set.grams()) {
    const auto* postings = index.PayloadPostings(key);
    ASSERT_NE(postings, nullptr);
    ASSERT_EQ(postings->size(), 1u);
    EXPECT_EQ((*postings)[0].gram_count, set.size());
  }
  EXPECT_EQ(index.distinct_grams(), set.size());
}

TEST(QGramIndexPayloadTest, IncrementalCatchUpMatchesFreshBuild) {
  const std::vector<std::string> values = {"SANTA CRISTINA", "MONTE BIANCO",
                                           "VILLA ROSSA", "SANTA LUCIA",
                                           "BORGO SAN LORENZO"};
  TupleStore store(0);
  QGramIndex incremental(Q3(), AllFilters(),
                         text::SimilarityMeasure::kJaccard, 0.85);
  for (const std::string& v : values) {
    store.Add(Tuple{Value(v)});
    incremental.CatchUpWith(store);
  }
  QGramIndex fresh(Q3(), AllFilters(), text::SimilarityMeasure::kJaccard,
                   0.85);
  fresh.CatchUpWith(store);

  EXPECT_EQ(incremental.watermark(), fresh.watermark());
  EXPECT_EQ(incremental.distinct_grams(), fresh.distinct_grams());
  for (size_t i = 0; i < values.size(); ++i) {
    // Named: a range-for over a temporary's member would dangle.
    const text::GramSet grams = text::GramSet::Of(values[i], Q3());
    for (text::GramKey key : grams.grams()) {
      const auto* a = incremental.PayloadPostings(key);
      const auto* b = fresh.PayloadPostings(key);
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a == nullptr) continue;
      ASSERT_EQ(a->size(), b->size());
      for (size_t j = 0; j < a->size(); ++j) {
        EXPECT_EQ((*a)[j].id, (*b)[j].id);
        EXPECT_EQ((*a)[j].gram_count, (*b)[j].gram_count);
        EXPECT_EQ((*a)[j].position, (*b)[j].position);
      }
    }
  }
}

TEST(QGramIndexPayloadTest, UnknownGramHasNoPayloadPostings) {
  QGramIndex index(Q3(), AllFilters(), text::SimilarityMeasure::kJaccard,
                   0.85);
  EXPECT_EQ(index.PayloadPostings(0xFFFFFFFFull), nullptr);
  EXPECT_EQ(index.Frequency(0xFFFFFFFFull), 0u);
}

TEST(QGramIndexPayloadTest, PrefixIndexingShrinksMemory) {
  const auto fill = [](TupleStore* store) {
    for (int i = 0; i < 50; ++i) {
      store->Add(
          Tuple{Value("LOCATION STRING NUMBER " + std::to_string(i))});
    }
  };
  ApproxFilterOptions length_only;
  length_only.length = true;
  TupleStore full_store(0);
  fill(&full_store);
  QGramIndex full(Q3(), length_only, text::SimilarityMeasure::kJaccard,
                  0.85);
  full.CatchUpWith(full_store);

  TupleStore prefix_store(0);
  fill(&prefix_store);
  QGramIndex prefixed(Q3(), AllFilters(),
                      text::SimilarityMeasure::kJaccard, 0.85);
  prefixed.CatchUpWith(prefix_store);

  // Both payload layouts account their postings; prefix posting drops
  // ~θ of the entries, which must show up in the memory estimate.
  EXPECT_GT(full.ApproximateMemoryUsage(), 0u);
  EXPECT_LT(prefixed.ApproximateMemoryUsage(),
            full.ApproximateMemoryUsage());
}

TEST(QGramIndexTest, ReservePreallocatesBuckets) {
  TupleStore store(0);
  QGramIndex index(Q3());
  index.Reserve(5000);
  const size_t reserved_footprint = index.ApproximateMemoryUsage();
  store.Add(Tuple{Value("SANTA CRISTINA VALGARDENA")});
  index.CatchUpWith(store);
  // The bucket array was charged up front; indexing one tuple must not
  // have rehashed below it, and lookups behave normally.
  EXPECT_GE(index.ApproximateMemoryUsage(), reserved_footprint);
  const auto set = text::GramSet::Of("SANTA CRISTINA VALGARDENA", Q3());
  for (text::GramKey key : set.grams()) {
    EXPECT_EQ(index.Frequency(key), 1u);
  }
}

}  // namespace
}  // namespace join
}  // namespace aqp
