#include "join/probe.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "join/brute_force.h"
#include "join/filter.h"
#include "storage/relation.h"
#include "text/similarity.h"

namespace aqp {
namespace join {
namespace {

using storage::Tuple;
using storage::TupleId;
using storage::TupleStore;
using storage::Value;

JoinSpec Spec(double threshold = 0.8) {
  JoinSpec spec;
  spec.left_column = 0;
  spec.right_column = 0;
  spec.sim_threshold = threshold;
  return spec;
}

struct Fixture {
  TupleStore store{0};
  ExactIndex exact;
  QGramIndex qgrams{text::QGramOptions{}};

  void Add(const std::string& s) {
    store.Add(Tuple{Value(s)});
    exact.CatchUpWith(store);
    qgrams.CatchUpWith(store);
  }
};

TEST(ProbeExactTest, FindsEqualStrings) {
  Fixture f;
  f.Add("SANTA CRISTINA VALGARDENA IN COLLE");
  f.Add("MONTE BIANCO SUPERIORE DEL FRIULI");
  f.Add("SANTA CRISTINA VALGARDENA IN COLLE");
  const auto matches = ProbeExact(
      f.exact, "SANTA CRISTINA VALGARDENA IN COLLE", exec::Side::kLeft, 99);
  ASSERT_EQ(matches.size(), 2u);
  for (const JoinMatch& m : matches) {
    EXPECT_EQ(m.kind, MatchKind::kExact);
    EXPECT_DOUBLE_EQ(m.similarity, 1.0);
    EXPECT_EQ(m.probe_id, 99u);
    EXPECT_EQ(m.probe_side, exec::Side::kLeft);
  }
}

TEST(ProbeExactTest, MissYieldsEmpty) {
  Fixture f;
  f.Add("SOMETHING");
  EXPECT_TRUE(ProbeExact(f.exact, "ELSE", exec::Side::kRight, 0).empty());
}

TEST(ProbeApproximateTest, FindsVariantAboveThreshold) {
  Fixture f;
  const std::string original = "TAA BZ SANTA CRISTINA VALGARDENA TERME";
  f.Add(original);
  std::string variant = original;
  variant[12] = 'x';
  ApproxProbeStats stats;
  const auto matches =
      ProbeApproximate(f.qgrams, f.store, variant, Spec(0.8),
                       exec::Side::kLeft, 7, ApproxProbeOptions{}, &stats);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].stored_id, 0u);
  EXPECT_EQ(matches[0].kind, MatchKind::kApproximate);
  EXPECT_GE(matches[0].similarity, 0.8);
  EXPECT_LT(matches[0].similarity, 1.0);
  EXPECT_GT(stats.grams, 0u);
  EXPECT_GE(stats.candidates, 1u);
  EXPECT_EQ(stats.matches, 1u);
}

TEST(ProbeApproximateTest, EqualStringFlaggedExact) {
  Fixture f;
  const std::string s = "MONTE ROSA SUPERIORE DEGLI ULIVI";
  f.Add(s);
  const auto matches =
      ProbeApproximate(f.qgrams, f.store, s, Spec(0.8), exec::Side::kRight,
                       3, ApproxProbeOptions{}, nullptr);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].kind, MatchKind::kExact);
  EXPECT_DOUBLE_EQ(matches[0].similarity, 1.0);
}

TEST(ProbeApproximateTest, DissimilarStringRejected) {
  Fixture f;
  f.Add("TAA BZ SANTA CRISTINA VALGARDENA");
  const auto matches = ProbeApproximate(
      f.qgrams, f.store, "PUG BA COMPLETELY DIFFERENT PLACE", Spec(0.8),
      exec::Side::kLeft, 0, ApproxProbeOptions{}, nullptr);
  EXPECT_TRUE(matches.empty());
}

TEST(ProbeApproximateTest, ThresholdIsInclusiveBoundary) {
  Fixture f;
  f.Add("ABCD");
  // q(ABCD) vs q(ABCE), padded q=3: sets of 6 grams each, overlap 4
  // (\1\1A, \1AB, ABC + one of the distinct tails...). Compute the true
  // Jaccard and assert behaviour exactly at it.
  const text::GramSet a =
      text::GramSet::Of("ABCD", text::QGramOptions{});
  const text::GramSet b =
      text::GramSet::Of("ABCE", text::QGramOptions{});
  const double sim = text::Jaccard(a, b);
  auto at = ProbeApproximate(f.qgrams, f.store, "ABCE", Spec(sim),
                             exec::Side::kLeft, 0, ApproxProbeOptions{},
                             nullptr);
  EXPECT_EQ(at.size(), 1u);
  auto above = ProbeApproximate(f.qgrams, f.store, "ABCE", Spec(sim + 1e-9),
                                exec::Side::kLeft, 0, ApproxProbeOptions{},
                                nullptr);
  EXPECT_TRUE(above.empty());
}

TEST(ProbeApproximateTest, OptimizationOnAndOffAgree) {
  Fixture f;
  const std::vector<std::string> pool = {
      "TAA BZ SANTA CRISTINA VALGARDENA", "TAA BZ SANTA CRISTINx VALGARDENA",
      "LOM MI VILLA BORGHESE SUL NAVIGLIO", "VEN VE CASTEL NUOVO DEL MONTE",
      "TAA BZ SANTA CRISTINA VALGARDENo", "PIE TO MONTE VERDE SUPERIORE"};
  for (const auto& s : pool) f.Add(s);
  for (double threshold : {0.5, 0.7, 0.85, 0.95}) {
    for (const auto& probe : pool) {
      ApproxProbeOptions with;
      ApproxProbeOptions without;
      without.insert_phase_optimization = false;
      without.rare_grams_first = false;
      auto a = ProbeApproximate(f.qgrams, f.store, probe, Spec(threshold),
                                exec::Side::kLeft, 0, with, nullptr);
      auto b = ProbeApproximate(f.qgrams, f.store, probe, Spec(threshold),
                                exec::Side::kLeft, 0, without, nullptr);
      ASSERT_EQ(a.size(), b.size()) << probe << " @ " << threshold;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].stored_id, b[i].stored_id);
        EXPECT_DOUBLE_EQ(a[i].similarity, b[i].similarity);
      }
    }
  }
}

TEST(ProbeApproximateTest, EmptyProbeMatchesOnlyEmptyStored) {
  text::QGramOptions unpadded;
  unpadded.pad = false;
  JoinSpec spec = Spec(0.8);
  spec.qgram = unpadded;
  TupleStore store(0);
  QGramIndex index(unpadded);
  store.Add(Tuple{Value("AB")});  // gram-less
  store.Add(Tuple{Value("ABCDEF")});
  index.CatchUpWith(store);
  auto matches = ProbeApproximate(index, store, "AB", spec, exec::Side::kLeft,
                                  9, ApproxProbeOptions{}, nullptr);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].stored_id, 0u);
  EXPECT_EQ(matches[0].kind, MatchKind::kExact);
  auto misses = ProbeApproximate(index, store, "XY", spec, exec::Side::kLeft,
                                 9, ApproxProbeOptions{}, nullptr);
  EXPECT_TRUE(misses.empty());
}

TEST(ProbeApproximateTest, ResultsSortedByStoredId) {
  Fixture f;
  f.Add("SANTA CRISTINA VALGARDENA AAA");
  f.Add("SANTA CRISTINA VALGARDENA BBB");
  f.Add("SANTA CRISTINA VALGARDENA CCC");
  auto matches = ProbeApproximate(
      f.qgrams, f.store, "SANTA CRISTINA VALGARDENA ABC", Spec(0.6),
      exec::Side::kLeft, 0, ApproxProbeOptions{}, nullptr);
  ASSERT_GE(matches.size(), 2u);
  EXPECT_TRUE(std::is_sorted(matches.begin(), matches.end(),
                             [](const JoinMatch& a, const JoinMatch& b) {
                               return a.stored_id < b.stored_id;
                             }));
}

// --- Kernel equivalence against the brute-force oracle ------------------

/// A seeded corpus over a small alphabet, so strings share many grams:
/// base strings of assorted lengths, one- to three-edit variants of
/// them, and a few strings too short for unpadded grams.
std::vector<std::string> RandomCorpus(uint32_t seed, size_t bases) {
  std::mt19937 rng(seed);
  const std::string alphabet = "ABCDE ";
  std::uniform_int_distribution<size_t> pick(0, alphabet.size() - 1);
  const auto letter = [&] { return alphabet[pick(rng)]; };
  std::vector<std::string> corpus = {"", "A", "AB", "ABC"};
  std::vector<std::string> roots;
  for (size_t b = 0; b < bases; ++b) {
    const size_t length = std::uniform_int_distribution<size_t>(3, 40)(rng);
    std::string s;
    for (size_t i = 0; i < length; ++i) s += letter();
    roots.push_back(s);
    corpus.push_back(s);
  }
  for (const std::string& root : roots) {
    for (int variant = 0; variant < 2; ++variant) {
      std::string s = root;
      const int edits = std::uniform_int_distribution<int>(1, 3)(rng);
      for (int e = 0; e < edits && !s.empty(); ++e) {
        const size_t at =
            std::uniform_int_distribution<size_t>(0, s.size() - 1)(rng);
        switch (std::uniform_int_distribution<int>(0, 2)(rng)) {
          case 0:
            s[at] = letter();
            break;
          case 1:
            s.insert(s.begin() + static_cast<ptrdiff_t>(at), letter());
            break;
          default:
            s.erase(s.begin() + static_cast<ptrdiff_t>(at));
            break;
        }
      }
      corpus.push_back(s);
    }
  }
  return corpus;
}

storage::Relation OneColumn(const std::vector<std::string>& values) {
  storage::Relation r(storage::Schema({{"s", storage::ValueType::kString}}));
  for (const auto& v : values) {
    EXPECT_TRUE(r.Append(Tuple{Value(v)}).ok());
  }
  return r;
}

/// A gram-cached store + plain index over `values` (the engine's
/// layout).
struct IndexedSide {
  TupleStore store;
  QGramIndex qgrams;

  IndexedSide(const std::vector<std::string>& values,
              const text::QGramOptions& options)
      : store(0, options), qgrams(options) {
    for (const auto& v : values) store.Add(Tuple{Value(v)});
    qgrams.CatchUpWith(store);
  }
};

/// Probes every `probes` string into `side` through one scratch and
/// checks the result against BruteForceSimilarityJoin: same stored ids
/// in order, bitwise-equal similarities, kExact exactly for equal
/// strings. Returns the summed stats.
ApproxProbeStats ExpectMatchesBruteForce(
    const std::vector<std::string>& probes,
    const std::vector<std::string>& stored, const IndexedSide& side,
    const JoinSpec& spec, const ApproxProbeOptions& options,
    ApproxProbeScratch* scratch, const std::string& context) {
  const auto pairs =
      BruteForceSimilarityJoin(OneColumn(probes), OneColumn(stored), spec);
  ApproxProbeStats stats;
  std::vector<JoinMatch> out;
  size_t next_pair = 0;
  for (size_t p = 0; p < probes.size(); ++p) {
    out.clear();
    ProbeApproximateInto(side.qgrams, side.store, probes[p],
                         text::GramSet::Of(probes[p], spec.qgram), spec,
                         exec::Side::kLeft, static_cast<TupleId>(p), options,
                         scratch, &stats, &out);
    std::vector<BrutePair> want;
    while (next_pair < pairs.size() && pairs[next_pair].left_row == p) {
      want.push_back(pairs[next_pair++]);
    }
    EXPECT_EQ(out.size(), want.size())
        << context << " probe=\"" << probes[p] << "\"";
    if (out.size() != want.size()) continue;
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].stored_id, want[i].right_row) << context;
      EXPECT_EQ(out[i].similarity, want[i].similarity)
          << context << " probe=\"" << probes[p] << "\"";
      const bool equal = probes[p] == stored[want[i].right_row];
      EXPECT_EQ(out[i].kind,
                equal ? MatchKind::kExact : MatchKind::kApproximate)
          << context;
    }
  }
  EXPECT_EQ(next_pair, pairs.size()) << context;
  EXPECT_LE(stats.verified, stats.candidates) << context;
  EXPECT_EQ(stats.matches, pairs.size()) << context;
  return stats;
}

TEST(ProbeEquivalenceTest, RandomizedCorpusMatchesBruteForce) {
  const std::vector<std::string> stored = RandomCorpus(11, 40);
  std::vector<std::string> probes = RandomCorpus(12, 20);
  // Verbatim copies of stored strings exercise the kExact flag.
  probes.insert(probes.end(), stored.begin() + 4, stored.begin() + 10);
  const text::SimilarityMeasure measures[] = {
      text::SimilarityMeasure::kJaccard, text::SimilarityMeasure::kDice,
      text::SimilarityMeasure::kCosine, text::SimilarityMeasure::kOverlap};
  for (bool pad : {true, false}) {
    text::QGramOptions options;
    options.pad = pad;
    const IndexedSide side(stored, options);
    for (text::SimilarityMeasure measure : measures) {
      for (double threshold : {0.5, 0.7, 0.85, 0.95}) {
        for (bool prefix_scan : {true, false}) {
          JoinSpec spec = Spec(threshold);
          spec.measure = measure;
          spec.qgram = options;
          ApproxProbeOptions probe_options;
          probe_options.insert_phase_optimization = prefix_scan;
          const std::string context =
              std::string(text::SimilarityMeasureName(measure)) + " theta=" +
              std::to_string(threshold) + " pad=" + std::to_string(pad) +
              " prefix_scan=" + std::to_string(prefix_scan);
          ApproxProbeScratch scratch;
          ExpectMatchesBruteForce(probes, stored, side, spec, probe_options,
                                  &scratch, context);
        }
      }
    }
  }
}

TEST(ProbeEquivalenceTest, PrefixScanTouchesFewerPostings) {
  const std::vector<std::string> stored = RandomCorpus(21, 60);
  const std::vector<std::string> probes = RandomCorpus(22, 20);
  const IndexedSide side(stored, text::QGramOptions{});
  ApproxProbeOptions every_list;
  every_list.insert_phase_optimization = false;
  ApproxProbeScratch scratch;
  const ApproxProbeStats prefix =
      ExpectMatchesBruteForce(probes, stored, side, Spec(0.85),
                              ApproxProbeOptions{}, &scratch, "prefix");
  const ApproxProbeStats full =
      ExpectMatchesBruteForce(probes, stored, side, Spec(0.85), every_list,
                              &scratch, "full");
  EXPECT_LT(prefix.postings_scanned, full.postings_scanned);
  EXPECT_LE(prefix.candidates, full.candidates);
  EXPECT_EQ(prefix.matches, full.matches);
}

TEST(ProbeScratchTest, ReusedAcrossIndexesOfDifferentSizes) {
  // Phase B's pattern: one scratch probes several shards' indexes in
  // turn, small after large and large after small.
  const std::vector<std::string> large = RandomCorpus(31, 80);
  const std::vector<std::string> small(large.begin(), large.begin() + 9);
  const std::vector<std::string> medium = RandomCorpus(32, 30);
  const std::vector<std::string> probes = RandomCorpus(33, 15);
  const text::QGramOptions options;
  const IndexedSide large_side(large, options);
  const IndexedSide small_side(small, options);
  const IndexedSide medium_side(medium, options);
  ApproxProbeScratch scratch;
  for (int round = 0; round < 2; ++round) {
    ExpectMatchesBruteForce(probes, small, small_side, Spec(0.7),
                            ApproxProbeOptions{}, &scratch, "small");
    ExpectMatchesBruteForce(probes, large, large_side, Spec(0.7),
                            ApproxProbeOptions{}, &scratch, "large");
    ExpectMatchesBruteForce(probes, medium, medium_side, Spec(0.7),
                            ApproxProbeOptions{}, &scratch, "medium");
  }
  EXPECT_GE(scratch.table.size(), large.size());
}

TEST(ProbeScratchTest, StampWrapClearsTable) {
  const std::vector<std::string> stored = RandomCorpus(41, 30);
  const std::vector<std::string> probes = RandomCorpus(42, 10);
  const IndexedSide side(stored, text::QGramOptions{});
  ApproxProbeScratch scratch;
  // Stamp every slot with 1, the first live stamp after a wrap. A wrap
  // that did not clear the table would see those slots as candidates
  // already found and drop matches.
  scratch.BeginProbe(stored.size());
  ASSERT_EQ(scratch.stamp, 1u);
  for (TupleId id = 0; id < stored.size(); ++id) scratch.Add(id, 1);
  scratch.stamp = std::numeric_limits<uint32_t>::max() - 2;
  ExpectMatchesBruteForce(probes, stored, side, Spec(0.5),
                          ApproxProbeOptions{}, &scratch, "wrap");
  EXPECT_LT(scratch.stamp, probes.size() + 1);
}

TEST(ProbeEquivalenceTest, NoFeasibleOverlapRejectsCandidate) {
  // With every list scanned, a far shorter tuple sharing some of the
  // probe's grams reaches T(t), yet even a full overlap cannot reach
  // the threshold: MinPairOverlap is nullopt. The length band, which
  // admits exactly the sizes whose full overlap passes, must drop it
  // before the verifier asks for its required overlap.
  const std::string probe = "SANTA CRISTINA VALGARDENA TERME";
  const std::vector<std::string> stored = {"SANTA", probe, "SANTA CRISTINx"};
  const text::QGramOptions options;
  const size_t g = text::GramSet::Of(probe, options).size();
  const size_t short_size = text::GramSet::Of("SANTA", options).size();
  ASSERT_FALSE(
      MinPairOverlap(text::SimilarityMeasure::kJaccard, g, short_size, 0.85)
          .has_value());
  EXPECT_FALSE(LengthBandFor(text::SimilarityMeasure::kJaccard, g, 0.85)
                   .Contains(short_size));
  Fixture fixture;
  for (const auto& s : stored) fixture.Add(s);
  ApproxProbeOptions every_list;
  every_list.insert_phase_optimization = false;
  ApproxProbeStats stats;
  const auto matches =
      ProbeApproximate(fixture.qgrams, fixture.store, probe, Spec(0.85),
                       exec::Side::kLeft, 0, every_list, &stats);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].stored_id, 1u);
  EXPECT_EQ(matches[0].kind, MatchKind::kExact);
  // All three stored tuples were scanned; only the probe's copy is in
  // the band.
  EXPECT_GT(stats.postings_scanned, g);
  EXPECT_EQ(stats.candidates, 1u);
  EXPECT_EQ(stats.verified, 1u);
}

void ExpectSameStats(const ApproxProbeStats& a, const ApproxProbeStats& b,
                     const std::string& context) {
  EXPECT_EQ(a.grams, b.grams) << context;
  EXPECT_EQ(a.postings_scanned, b.postings_scanned) << context;
  EXPECT_EQ(a.candidates, b.candidates) << context;
  EXPECT_EQ(a.verified, b.verified) << context;
  EXPECT_EQ(a.matches, b.matches) << context;
}

TEST(ProbeScratchTest, PairOverlapMemoServesSpecsInTurn) {
  // One scratch probes under four specs in turn, twice over; the memo
  // is keyed by measure and threshold, so every probe must see exactly
  // what a fresh scratch sees. Two specs share a measure and differ
  // only in their threshold.
  const std::vector<std::string> stored = RandomCorpus(51, 50);
  std::vector<std::string> probes = RandomCorpus(52, 15);
  probes.insert(probes.end(), stored.begin() + 4, stored.begin() + 8);
  JoinSpec jaccard = Spec(0.85);
  JoinSpec cosine = Spec(0.6);
  cosine.measure = text::SimilarityMeasure::kCosine;
  JoinSpec overlap = Spec(0.9);
  overlap.measure = text::SimilarityMeasure::kOverlap;
  const JoinSpec jaccard_low = Spec(0.7);
  const std::vector<std::pair<std::string, JoinSpec>> specs = {
      {"jaccard 0.85", jaccard},
      {"cosine 0.6", cosine},
      {"overlap 0.9", overlap},
      {"jaccard 0.7", jaccard_low}};
  const IndexedSide side(stored, text::QGramOptions{});
  ApproxProbeScratch shared;
  for (int round = 0; round < 2; ++round) {
    for (size_t s = 0; s < specs.size(); ++s) {
      const JoinSpec& spec = specs[s].second;
      for (size_t p = 0; p < probes.size(); ++p) {
        const std::string context = specs[s].first + " round " +
                                    std::to_string(round) + " probe=\"" +
                                    probes[p] + "\"";
        const text::GramSet grams = text::GramSet::Of(probes[p], spec.qgram);
        ApproxProbeScratch fresh;
        ApproxProbeStats want_stats;
        ApproxProbeStats got_stats;
        std::vector<JoinMatch> want;
        std::vector<JoinMatch> got;
        ProbeApproximateInto(side.qgrams, side.store, probes[p], grams, spec,
                             exec::Side::kLeft, static_cast<TupleId>(p),
                             ApproxProbeOptions{}, &fresh, &want_stats,
                             &want);
        ProbeApproximateInto(side.qgrams, side.store, probes[p], grams, spec,
                             exec::Side::kLeft, static_cast<TupleId>(p),
                             ApproxProbeOptions{}, &shared, &got_stats, &got);
        ASSERT_EQ(got.size(), want.size()) << context;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].stored_id, want[i].stored_id) << context;
          EXPECT_EQ(got[i].similarity, want[i].similarity) << context;
          EXPECT_EQ(got[i].kind, want[i].kind) << context;
        }
        ExpectSameStats(got_stats, want_stats, context);
      }
    }
  }
}

TEST(ProbeScratchTest, PairOverlapMemoGrowsWithCandidateSizesNotBand) {
  // Overlap coefficient: every length band is unbounded above. A long
  // string (g >= 500) is both a probe and a candidate of short probes;
  // the memo must stay proportional to the gram counts it was asked
  // about.
  std::mt19937 rng(61);
  std::uniform_int_distribution<int> letter('A', 'Z');
  std::string long_value;
  for (int i = 0; i < 600; ++i) {
    long_value += static_cast<char>(letter(rng));
  }
  std::vector<std::string> stored = RandomCorpus(62, 20);
  stored.push_back(long_value);
  stored.push_back(long_value.substr(0, 24));
  const std::vector<std::string> probes = {
      long_value, long_value.substr(0, 12), long_value.substr(0, 24),
      long_value.substr(100, 40), "ABCDE ABCDE"};
  JoinSpec spec = Spec(0.9);
  spec.measure = text::SimilarityMeasure::kOverlap;
  const IndexedSide side(stored, spec.qgram);
  size_t max_grams = 0;
  for (const std::string& v : stored) {
    max_grams = std::max(max_grams, text::GramSet::Of(v, spec.qgram).size());
  }
  ASSERT_GE(max_grams, 500u);
  ApproxProbeScratch scratch;
  ExpectMatchesBruteForce(probes, stored, side, spec, ApproxProbeOptions{},
                          &scratch, "overlap 0.9");
  // One row per probe gram count up to the largest, each row at most
  // the largest candidate gram count long (with slack for growth).
  const size_t memo = scratch.pair_overlaps.ApproximateMemoryUsage();
  EXPECT_GT(memo, 0u);
  EXPECT_LE(memo, (max_grams + 1) * 64 +
                      probes.size() * 2 * (max_grams + 1) * sizeof(uint32_t));
  // The scratch's reported footprint includes the memo.
  EXPECT_GE(scratch.ApproximateMemoryUsage(),
            memo + scratch.table.capacity() *
                       sizeof(ApproxProbeScratch::Slot));
}

// --- Rarest-list selection ---------------------------------------------

/// What a probe must scan, computed without the kernel: the probe's
/// grams sorted by (QGramIndex::Frequency, key) — or left in key order
/// — and the first g-k+1 of them (all g without the prefix scan)
/// taken, with the in-band tuples their lists hold.
struct ExpectedScan {
  uint64_t postings = 0;
  uint64_t candidates = 0;
  /// The last scanned gram ties on frequency with the first skipped
  /// one, so the key decides which list is scanned.
  bool boundary_tie = false;
};

ExpectedScan ScanBySort(const QGramIndex& index, const text::GramSet& grams,
                        const JoinSpec& spec,
                        const ApproxProbeOptions& options) {
  std::vector<text::GramKey> order = grams.grams();
  if (options.rare_grams_first) {
    std::sort(order.begin(), order.end(),
              [&](text::GramKey a, text::GramKey b) {
                const size_t fa = index.Frequency(a);
                const size_t fb = index.Frequency(b);
                return fa != fb ? fa < fb : a < b;
              });
  }
  const size_t g = order.size();
  const size_t k =
      text::MinOverlapForThreshold(spec.measure, g, spec.sim_threshold);
  const size_t scan_end = options.insert_phase_optimization ? g - k + 1 : g;
  ExpectedScan want;
  std::set<TupleId> found;
  for (size_t i = 0; i < scan_end; ++i) {
    want.postings += index.Frequency(order[i]);
    if (const auto* postings = index.Postings(order[i])) {
      found.insert(postings->begin(), postings->end());
    }
  }
  const GramCountBand band = LengthBandFor(spec.measure, g, spec.sim_threshold);
  for (TupleId id : found) {
    if (band.Contains(index.GramSetSize(id))) ++want.candidates;
  }
  if (scan_end < g) {
    want.boundary_tie = index.Frequency(order[scan_end - 1]) ==
                        index.Frequency(order[scan_end]);
  }
  return want;
}

TEST(ProbeSelectionTest, ScansExactlyTheListsAFullRarestFirstSortWould) {
  // Repeated strings give many grams equal posting lengths, so ties
  // fall on the boundary between the scanned and the skipped lists.
  std::vector<std::string> stored = RandomCorpus(71, 30);
  for (int copy = 0; copy < 3; ++copy) {
    stored.push_back("SANTA CRISTINA VALGARDENA");
    stored.push_back("SANTA MARIA DEL MONTE");
    if (copy < 2) stored.push_back("MONTE CRISTINA DEL SANTO");
  }
  std::vector<std::string> probes = RandomCorpus(72, 15);
  probes.insert(probes.end(),
                {"SANTA CRISTINA VALGARDENA", "SANTA MARIA DEL MONTx",
                 "SANTA CRISTINA DEL MONTE", "MONTE CRISTINA DEL SANTx"});
  const IndexedSide side(stored, text::QGramOptions{});
  const text::SimilarityMeasure measures[] = {
      text::SimilarityMeasure::kJaccard, text::SimilarityMeasure::kDice,
      text::SimilarityMeasure::kCosine, text::SimilarityMeasure::kOverlap};
  ApproxProbeOptions rarest;
  ApproxProbeOptions key_order;
  key_order.rare_grams_first = false;
  ApproxProbeOptions every_list;
  every_list.insert_phase_optimization = false;
  const std::pair<std::string, ApproxProbeOptions> variants[] = {
      {"rarest", rarest}, {"key order", key_order}, {"every list", every_list}};
  size_t boundary_ties = 0;
  ApproxProbeScratch scratch;
  for (text::SimilarityMeasure measure : measures) {
    // At 1.0, k = g for all but the overlap coefficient: one list.
    for (double threshold : {0.5, 0.7, 0.85, 0.95, 1.0}) {
      JoinSpec spec = Spec(threshold);
      spec.measure = measure;
      for (const auto& [name, options] : variants) {
        for (size_t p = 0; p < probes.size(); ++p) {
          const std::string context =
              std::string(text::SimilarityMeasureName(measure)) + " theta=" +
              std::to_string(threshold) + " " + name + " probe=\"" +
              probes[p] + "\"";
          const text::GramSet grams = text::GramSet::Of(probes[p], spec.qgram);
          ApproxProbeStats stats;
          std::vector<JoinMatch> out;
          ProbeApproximateInto(side.qgrams, side.store, probes[p], grams, spec,
                               exec::Side::kLeft, static_cast<TupleId>(p),
                               options, &scratch, &stats, &out);
          const ExpectedScan want =
              ScanBySort(side.qgrams, grams, spec, options);
          EXPECT_EQ(stats.postings_scanned, want.postings) << context;
          EXPECT_EQ(stats.candidates, want.candidates) << context;
          if (options.rare_grams_first && want.boundary_tie) ++boundary_ties;
        }
      }
    }
  }
  EXPECT_GT(boundary_ties, 0u);
}

TEST(ProbeSelectionTest, MinOverlapLiesBetweenOneAndProbeSize) {
  // The probe scans g-k+1 lists, which needs 1 <= k <= g: there is no
  // probe with k > g, even for thresholds outside [0, 1], which the
  // bound clamps. The overlap coefficient's k = 1 scans every list.
  const text::SimilarityMeasure measures[] = {
      text::SimilarityMeasure::kJaccard, text::SimilarityMeasure::kDice,
      text::SimilarityMeasure::kCosine, text::SimilarityMeasure::kOverlap};
  for (text::SimilarityMeasure measure : measures) {
    SCOPED_TRACE(text::SimilarityMeasureName(measure));
    for (double threshold : {-0.5, 0.0, 0.3, 0.5, 0.85, 0.99, 1.0, 1.5}) {
      for (size_t g = 1; g <= 300; ++g) {
        const size_t k = text::MinOverlapForThreshold(measure, g, threshold);
        EXPECT_GE(k, 1u) << "theta=" << threshold << " g=" << g;
        EXPECT_LE(k, g) << "theta=" << threshold << " g=" << g;
      }
    }
    EXPECT_EQ(text::MinOverlapForThreshold(measure, 40, 1.0),
              measure == text::SimilarityMeasure::kOverlap ? 1u : 40u);
  }
}

TEST(ProbeStatsTest, MergeAccumulates) {
  ApproxProbeStats a;
  a.grams = 5;
  a.matches = 1;
  ApproxProbeStats b;
  b.grams = 7;
  b.candidates = 3;
  a.MergeFrom(b);
  EXPECT_EQ(a.grams, 12u);
  EXPECT_EQ(a.candidates, 3u);
  EXPECT_EQ(a.matches, 1u);
}

}  // namespace
}  // namespace join
}  // namespace aqp
