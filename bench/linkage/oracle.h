// Output oracles of the linkage benchmark. Each is computed from the
// generated inputs and the query results alone, independently of the
// engine's own counters, so a wrong answer cannot pass as a fast one.

#ifndef AQP_BENCH_LINKAGE_ORACLE_H_
#define AQP_BENCH_LINKAGE_ORACLE_H_

#include <cstdint>
#include <vector>

#include "datagen/generator.h"
#include "storage/relation.h"

namespace aqp {
namespace linkbench {

/// Pairs of byte-equal join keys, counted by a plain hash join over the
/// case's rows: what an all-exact query must return.
uint64_t HashJoinPairCount(const datagen::TestCase& tc);

/// True iff every pair of `inner` is also in `outer` (as sets).
bool PairSetIncluded(std::vector<uint64_t> inner, std::vector<uint64_t> outer);

/// True iff every result row's two locations have q-gram Jaccard
/// similarity of at least `threshold`, recomputed from the strings.
bool PairsMeetThreshold(const storage::Relation& result, double threshold,
                        int q);

/// True iff the pairs match every child exactly once, each to the
/// parent row the generator drew it from.
bool EachChildMatchesItsParent(const std::vector<uint64_t>& pairs,
                               const std::vector<size_t>& true_parent);

/// Distinct children (accidents) among the pairs.
uint64_t DistinctChildren(const std::vector<uint64_t>& pairs);

}  // namespace linkbench
}  // namespace aqp

#endif  // AQP_BENCH_LINKAGE_ORACLE_H_
