#ifndef AQP_JOIN_FILTER_H_
#define AQP_JOIN_FILTER_H_

#include <cstddef>
#include <optional>

#include "text/similarity.h"

namespace aqp {
namespace join {

// The gram-count bounds SSHJoin's approximate probe prunes on.
//
// Every bound is *exact*: a pruned pair provably cannot reach the
// similarity threshold, so pruning changes how many candidates are
// verified, never the match set. Each bound is evaluated through the
// same SetSimilarityFromOverlap the verifier uses, so no hand-derived
// closed form can drift from the verifier's floating-point rounding:
//
//  - LengthBandFor: the stored gram counts that can reach the
//    threshold against a probe at all (the best case, overlap = the
//    smaller size); candidates outside the band are dropped before
//    any other check;
//  - MinPairOverlap: the smallest overlap that reaches the threshold
//    for one (probe, stored) gram-count pair; a candidate whose
//    counted overlap cannot reach it is dropped before its gram set
//    is merged.

/// \brief Inclusive stored-side gram-count band [lo, hi] that can
/// possibly reach the threshold against a probe with `probe_size`
/// grams. `hi` is SIZE_MAX when unbounded (the overlap coefficient).
struct GramCountBand {
  size_t lo = 0;
  size_t hi = 0;

  bool Contains(size_t size) const { return size >= lo && size <= hi; }
};

/// \brief True iff a stored tuple with `stored_size` grams can reach
/// `threshold` against a probe with `probe_size` grams in the best
/// case (overlap = min of the sizes).
bool LengthCompatible(text::SimilarityMeasure measure, size_t probe_size,
                      size_t stored_size, double threshold);

/// The length band for one probe, by binary search over
/// LengthCompatible (best-case similarity is unimodal in the stored
/// size: nondecreasing up to probe_size, nonincreasing after).
GramCountBand LengthBandFor(text::SimilarityMeasure measure,
                            size_t probe_size, double threshold);

/// \brief Smallest overlap o with sim(probe_size, stored_size, o) >=
/// threshold, or nullopt when even full overlap falls short. Binary
/// search over SetSimilarityFromOverlap (monotone in o), again so the
/// bound can never disagree with the verifier. A pair inside the
/// probe's length band is never nullopt: the band admits exactly the
/// sizes whose full overlap passes.
std::optional<size_t> MinPairOverlap(text::SimilarityMeasure measure,
                                     size_t probe_size, size_t stored_size,
                                     double threshold);

}  // namespace join
}  // namespace aqp

#endif  // AQP_JOIN_FILTER_H_
