#include "join/filter.h"

#include <algorithm>
#include <limits>

namespace aqp {
namespace join {

bool LengthCompatible(text::SimilarityMeasure measure, size_t probe_size,
                      size_t stored_size, double threshold) {
  const size_t best_overlap = std::min(probe_size, stored_size);
  return text::SetSimilarityFromOverlap(measure, probe_size, stored_size,
                                        best_overlap) >= threshold;
}

GramCountBand LengthBandFor(text::SimilarityMeasure measure,
                            size_t probe_size, double threshold) {
  GramCountBand band;
  if (probe_size == 0) {
    // A gram-less probe matches only gram-less tuples (handled outside
    // the posting walk); postings never contain size-0 tuples, so the
    // band over posting entries is empty.
    band.lo = 1;
    band.hi = 0;
    return band;
  }
  // Smallest feasible size in [1, probe_size]: best-case similarity is
  // nondecreasing in the stored size on this range.
  size_t lo = 1;
  size_t hi = probe_size;
  if (!LengthCompatible(measure, probe_size, probe_size, threshold)) {
    // Even an identical-size tuple cannot reach the threshold; the
    // band is empty (Contains() is false for every size).
    band.lo = 1;
    band.hi = 0;
    return band;
  }
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (LengthCompatible(measure, probe_size, mid, threshold)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  band.lo = lo;
  // Largest feasible size >= probe_size: best-case similarity is
  // nonincreasing there — except for the overlap coefficient, which
  // stays 1 for every superset and has no upper bound.
  if (measure == text::SimilarityMeasure::kOverlap) {
    band.hi = std::numeric_limits<size_t>::max();
    return band;
  }
  size_t beyond = probe_size;  // last size known compatible
  size_t step = 1;
  while (LengthCompatible(measure, probe_size, beyond + step, threshold)) {
    beyond += step;
    step *= 2;
  }
  lo = beyond;
  hi = beyond + step;  // first size known incompatible is within (lo, hi]
  while (lo + 1 < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (LengthCompatible(measure, probe_size, mid, threshold)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  band.hi = lo;
  return band;
}

std::optional<size_t> MinPairOverlap(text::SimilarityMeasure measure,
                                     size_t probe_size, size_t stored_size,
                                     double threshold) {
  const size_t max_overlap = std::min(probe_size, stored_size);
  if (text::SetSimilarityFromOverlap(measure, probe_size, stored_size,
                                     max_overlap) < threshold) {
    return std::nullopt;
  }
  // Similarity is nondecreasing in the overlap for all four
  // coefficients; find the smallest passing value.
  size_t lo = max_overlap == 0 ? 0 : 1;
  size_t hi = max_overlap;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (text::SetSimilarityFromOverlap(measure, probe_size, stored_size,
                                       mid) >= threshold) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace join
}  // namespace aqp
