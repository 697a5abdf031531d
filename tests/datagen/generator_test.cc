#include "datagen/generator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <unordered_set>

#include "common/hash.h"
#include "text/similarity.h"

namespace aqp {
namespace datagen {
namespace {

TestCaseOptions SmallOptions() {
  TestCaseOptions options;
  options.atlas.size = 300;
  options.accidents.size = 600;
  options.variant_rate = 0.10;
  options.seed = 99;
  return options;
}

TEST(GeneratorTest, ChildVariantRateIsExact) {
  for (PerturbationPattern pattern : kAllPatterns) {
    TestCaseOptions options = SmallOptions();
    options.pattern = pattern;
    auto tc = GenerateTestCase(options);
    ASSERT_TRUE(tc.ok()) << tc.status().ToString();
    EXPECT_EQ(tc->ChildVariantCount(), 60u) << options.Label();
    EXPECT_EQ(tc->ParentVariantCount(), 0u);
  }
}

TEST(GeneratorTest, BothTablesPerturbedWhenRequested) {
  TestCaseOptions options = SmallOptions();
  options.perturb_parent = true;
  auto tc = GenerateTestCase(options);
  ASSERT_TRUE(tc.ok());
  EXPECT_EQ(tc->ChildVariantCount(), 60u);
  EXPECT_EQ(tc->ParentVariantCount(), 30u);
}

TEST(GeneratorTest, VariantsNeverMatchAnyParentExactly) {
  TestCaseOptions options = SmallOptions();
  options.perturb_parent = true;
  auto tc = GenerateTestCase(options);
  ASSERT_TRUE(tc.ok());
  std::unordered_set<std::string> parent_locations;
  for (size_t r = 0; r < tc->parent.size(); ++r) {
    parent_locations.emplace(tc->parent.StringAt(kAtlasLocationColumn, r));
  }
  for (size_t i = 0; i < tc->child.size(); ++i) {
    if (!tc->child_is_variant[i]) continue;
    const std::string_view loc =
        tc->child.StringAt(kAccidentsLocationColumn, i);
    EXPECT_EQ(parent_locations.count(std::string(loc)), 0u) << loc;
  }
}

TEST(GeneratorTest, VariantsHaveEditDistanceOneFromTruth) {
  TestCaseOptions options = SmallOptions();
  auto tc = GenerateTestCase(options);
  ASSERT_TRUE(tc.ok());
  for (size_t i = 0; i < tc->child.size(); ++i) {
    const std::string_view loc =
        tc->child.StringAt(kAccidentsLocationColumn, i);
    // Truth string: the (unperturbed, child-only case) parent value.
    const std::string_view truth =
        tc->parent.StringAt(kAtlasLocationColumn, tc->child_true_parent[i]);
    if (tc->child_is_variant[i]) {
      EXPECT_EQ(text::Levenshtein(loc, truth), 1u);
    } else {
      EXPECT_EQ(loc, truth);
    }
  }
}

TEST(GeneratorTest, VariantsPassPaperSimilarityThreshold) {
  // θ_sim = 0.85 must accept every injected variant (the paper tunes
  // θ_sim so the all-approximate run reaches the expected size).
  TestCaseOptions options = SmallOptions();
  auto tc = GenerateTestCase(options);
  ASSERT_TRUE(tc.ok());
  text::QGramOptions q3;
  for (size_t i = 0; i < tc->child.size(); ++i) {
    if (!tc->child_is_variant[i]) continue;
    const std::string_view loc =
        tc->child.StringAt(kAccidentsLocationColumn, i);
    const std::string_view truth =
        tc->parent.StringAt(kAtlasLocationColumn, tc->child_true_parent[i]);
    const double sim = text::Jaccard(text::GramSet::Of(loc, q3),
                                     text::GramSet::Of(truth, q3));
    EXPECT_GE(sim, 0.85) << loc << " vs " << truth;
  }
}

TEST(GeneratorTest, CleanPairCountConsistent) {
  TestCaseOptions options = SmallOptions();
  options.perturb_parent = true;
  auto tc = GenerateTestCase(options);
  ASSERT_TRUE(tc.ok());
  size_t clean = 0;
  for (size_t i = 0; i < tc->child.size(); ++i) {
    if (!tc->child_is_variant[i] &&
        !tc->parent_is_variant[tc->child_true_parent[i]]) {
      ++clean;
    }
  }
  EXPECT_EQ(tc->CleanPairCount(), clean);
  EXPECT_LT(tc->CleanPairCount(), tc->child.size());
}

TEST(GeneratorTest, VariantPositionsFollowPattern) {
  TestCaseOptions options = SmallOptions();
  options.pattern = PerturbationPattern::kFewHighIntensityRegions;
  auto tc = GenerateTestCase(options);
  ASSERT_TRUE(tc.ok());
  for (size_t i = 0; i < tc->child.size(); ++i) {
    if (tc->child_is_variant[i]) {
      EXPECT_GT(tc->child_pattern.IntensityAt(i), 0.0)
          << "variant outside any perturbation region at row " << i;
    }
  }
}

TEST(GeneratorTest, DeterministicUnderSeed) {
  TestCaseOptions options = SmallOptions();
  auto a = GenerateTestCase(options);
  auto b = GenerateTestCase(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->child_is_variant, b->child_is_variant);
  for (size_t i = 0; i < a->child.size(); ++i) {
    EXPECT_EQ(a->child.row(i), b->child.row(i));
  }
}

/// Hashes every cell of both tables (type-tagged, NULLs included) and
/// the ground truth, so any change to the generated bytes shows.
uint64_t CaseDigest(const TestCase& tc) {
  uint64_t h = 0;
  for (const storage::Relation* table : {&tc.parent, &tc.child}) {
    h = HashCombine(h, table->size());
    for (const storage::Tuple& row : table->rows()) {
      for (size_t c = 0; c < row.size(); ++c) {
        const storage::Value& v = row.at(c);
        h = HashCombine(h, static_cast<uint64_t>(v.type()));
        switch (v.type()) {
          case storage::ValueType::kInt64:
            h = HashCombine(h, static_cast<uint64_t>(v.AsInt64()));
            break;
          case storage::ValueType::kDouble: {
            const double d = v.AsDouble();
            uint64_t bits = 0;
            std::memcpy(&bits, &d, sizeof(bits));
            h = HashCombine(h, bits);
            break;
          }
          case storage::ValueType::kString:
            h = HashCombine(h, Fnv1a64(v.AsStringView()));
            break;
          default:
            break;
        }
      }
    }
  }
  for (size_t parent : tc.child_true_parent) h = HashCombine(h, parent);
  for (uint8_t v : tc.child_is_variant) h = HashCombine(h, v);
  for (uint8_t v : tc.parent_is_variant) h = HashCombine(h, v);
  return h;
}

// Pins the generated bytes of the benchmark's inputs: the eight paper
// cases at paper scale and the clean 250k-row feed, all at seed 7. A
// change to how datagen builds its tables must reproduce them exactly.
TEST(GeneratorTest, PaperScaleCasesAreByteStable) {
  TestCaseOptions base;
  base.atlas.size = 8082;
  base.accidents.size = 10000;
  base.variant_rate = 0.10;
  base.seed = 7;
  std::vector<uint64_t> digests;
  for (const TestCaseOptions& options : PaperTestMatrix(base)) {
    auto tc = GenerateTestCase(options);
    ASSERT_TRUE(tc.ok()) << tc.status().ToString();
    digests.push_back(CaseDigest(*tc));
  }
  // PaperTestMatrix order: each pattern's /child case, then its /both.
  ASSERT_EQ(digests.size(), 8u);
  EXPECT_EQ(digests[0], 882317258225139915ULL);
  EXPECT_EQ(digests[1], 16737389288181902808ULL);
  EXPECT_EQ(digests[2], 5596170586282881510ULL);
  EXPECT_EQ(digests[3], 14818544482307989118ULL);
  EXPECT_EQ(digests[4], 8351126527608588883ULL);
  EXPECT_EQ(digests[5], 8257747647749523124ULL);
  EXPECT_EQ(digests[6], 12910467944651173998ULL);
  EXPECT_EQ(digests[7], 12642203338097034068ULL);
}

TEST(GeneratorTest, FeedCaseIsByteStable) {
  TestCaseOptions options;
  options.atlas.size = 8082;
  options.accidents.size = 250000;
  options.variant_rate = 0.0;
  options.seed = 7;
  auto tc = GenerateTestCase(options);
  ASSERT_TRUE(tc.ok()) << tc.status().ToString();
  EXPECT_EQ(CaseDigest(*tc), 5611217182583867522ULL);
}

TEST(GeneratorTest, PaperTestMatrixHasEightCases) {
  const auto cases = PaperTestMatrix(SmallOptions());
  ASSERT_EQ(cases.size(), 8u);
  std::unordered_set<std::string> labels;
  for (const TestCaseOptions& c : cases) labels.insert(c.Label());
  EXPECT_EQ(labels.size(), 8u);
  EXPECT_EQ(labels.count("uniform/child"), 1u);
  EXPECT_EQ(labels.count("many_high/both"), 1u);
}

TEST(GeneratorTest, LabelFormat) {
  TestCaseOptions options = SmallOptions();
  options.pattern = PerturbationPattern::kLowIntensityRegions;
  options.perturb_parent = true;
  EXPECT_EQ(options.Label(), "low_intensity/both");
}

}  // namespace
}  // namespace datagen
}  // namespace aqp
