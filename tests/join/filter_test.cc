// Unit tests for the approximate probe's gram-count bounds. The bounds
// must be *exactly* as permissive as the verifier: each one is probed
// at its boundary value (the |g_s - g_p| = g - k edge) and
// cross-checked against the similarity function the verifier
// evaluates.

#include "join/filter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "text/similarity.h"

namespace aqp {
namespace join {
namespace {

using text::SimilarityMeasure;

constexpr SimilarityMeasure kAllMeasures[] = {
    SimilarityMeasure::kJaccard, SimilarityMeasure::kDice,
    SimilarityMeasure::kCosine, SimilarityMeasure::kOverlap};

TEST(LengthFilterTest, BandEdgesAtExactBoundary) {
  // Jaccard, g = 40, θ = 0.85: k = ceil(0.85·40) = 34. The lower band
  // edge sits at |g_s - g_p| = g - k exactly: g_s = k passes (best
  // case 34/40 = 0.85), g_s = k - 1 fails.
  const size_t g = 40;
  const double theta = 0.85;
  const size_t k =
      text::MinOverlapForThreshold(SimilarityMeasure::kJaccard, g, theta);
  ASSERT_EQ(k, 34u);
  EXPECT_TRUE(LengthCompatible(SimilarityMeasure::kJaccard, g, k, theta));
  EXPECT_FALSE(
      LengthCompatible(SimilarityMeasure::kJaccard, g, k - 1, theta));
  const GramCountBand band =
      LengthBandFor(SimilarityMeasure::kJaccard, g, theta);
  EXPECT_EQ(band.lo, k);
  EXPECT_EQ(g - band.lo, g - k);  // the |g_s - g_p| = g - k edge
  // Upper edge: 40/47 ≈ 0.851 passes, 40/48 ≈ 0.833 fails. Note 47 >
  // g + (g - k): the verifier-derived band is *wider* than the naive
  // symmetric |g_s - g_p| <= g - k band — binding to the similarity
  // function is what keeps the filter exact instead of lossy.
  EXPECT_EQ(band.hi, 47u);
  EXPECT_TRUE(band.Contains(47));
  EXPECT_FALSE(band.Contains(48));
}

TEST(LengthFilterTest, BandAgreesWithVerifierForAllMeasures) {
  for (SimilarityMeasure measure : kAllMeasures) {
    for (size_t g : {1u, 2u, 5u, 17u, 40u, 120u}) {
      for (double theta : {0.5, 0.85, 0.95, 1.0}) {
        const GramCountBand band = LengthBandFor(measure, g, theta);
        // Every size up to well past the band must agree with the
        // verifier's best-case decision.
        const size_t scan_to =
            band.hi == std::numeric_limits<size_t>::max()
                ? 4 * g + 8
                : band.hi + 8;
        for (size_t s = 1; s <= scan_to; ++s) {
          const bool feasible = LengthCompatible(measure, g, s, theta);
          EXPECT_EQ(band.Contains(s), feasible)
              << "measure=" << text::SimilarityMeasureName(measure)
              << " g=" << g << " theta=" << theta << " s=" << s;
          // The probe verifier asserts that an in-band pair has a
          // required overlap of at least 1.
          if (band.Contains(s)) {
            EXPECT_GE(MinPairOverlap(measure, g, s, theta).value_or(0), 1u)
                << "measure=" << text::SimilarityMeasureName(measure)
                << " g=" << g << " theta=" << theta << " s=" << s;
          }
        }
      }
    }
  }
}

TEST(LengthFilterTest, OverlapCoefficientBandIsUnboundedAbove) {
  const GramCountBand band =
      LengthBandFor(SimilarityMeasure::kOverlap, 10, 0.85);
  EXPECT_EQ(band.lo, 1u);
  EXPECT_EQ(band.hi, std::numeric_limits<size_t>::max());
}

TEST(LengthFilterTest, EmptyProbeBandContainsNothing) {
  const GramCountBand band =
      LengthBandFor(SimilarityMeasure::kJaccard, 0, 0.85);
  EXPECT_FALSE(band.Contains(0));
  EXPECT_FALSE(band.Contains(1));
}

TEST(MinPairOverlapTest, SmallestPassingOverlap) {
  for (SimilarityMeasure measure : kAllMeasures) {
    for (size_t a : {3u, 10u, 40u}) {
      for (size_t b : {3u, 12u, 40u}) {
        for (double theta : {0.5, 0.85, 1.0}) {
          const auto required = MinPairOverlap(measure, a, b, theta);
          const size_t max_overlap = std::min(a, b);
          if (!required.has_value()) {
            EXPECT_LT(text::SetSimilarityFromOverlap(measure, a, b,
                                                     max_overlap),
                      theta);
            continue;
          }
          EXPECT_GE(text::SetSimilarityFromOverlap(measure, a, b, *required),
                    theta);
          if (*required > 0) {
            EXPECT_LT(text::SetSimilarityFromOverlap(measure, a, b,
                                                     *required - 1),
                      theta);
          }
        }
      }
    }
  }
}

TEST(MinPairOverlapTest, InfeasiblePairIsNullopt) {
  // Jaccard of a 10-set and a 40-set is at most 10/40 = 0.25.
  EXPECT_FALSE(
      MinPairOverlap(SimilarityMeasure::kJaccard, 10, 40, 0.85).has_value());
}

}  // namespace
}  // namespace aqp
}  // namespace join
