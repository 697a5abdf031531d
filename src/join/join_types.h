#ifndef AQP_JOIN_JOIN_TYPES_H_
#define AQP_JOIN_JOIN_TYPES_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "exec/operator.h"
#include "storage/schema.h"
#include "storage/tuple_store.h"
#include "text/qgram.h"
#include "text/similarity.h"

namespace aqp {
namespace join {

using exec::Side;
using storage::TupleId;

/// \brief Static description of a record-linkage join.
struct JoinSpec {
  /// Join-attribute column in each input (must be a string column).
  size_t left_column = 0;
  size_t right_column = 0;

  /// q-gram extraction parameters (q = 3 in the paper).
  text::QGramOptions qgram;

  /// Set-similarity coefficient; the paper uses the Jaccard
  /// coefficient.
  text::SimilarityMeasure measure = text::SimilarityMeasure::kJaccard;

  /// Similarity threshold θ_sim; a pair is an (approximate) match iff
  /// sim >= sim_threshold. The paper tunes this to 0.85.
  double sim_threshold = 0.85;

  /// Join column for a given side.
  size_t column(Side side) const {
    return side == Side::kLeft ? left_column : right_column;
  }

  /// Validates the parameter combination.
  Status Validate() const;

  /// Validates that the columns exist in the given schemas and are
  /// string-typed.
  Status ValidateAgainstSchemas(const storage::Schema& left,
                                const storage::Schema& right) const;
};

/// \brief Whether a match was found by exact equality or by the
/// similarity predicate only.
enum class MatchKind { kExact, kApproximate };

/// "exact" / "approximate".
const char* MatchKindName(MatchKind kind);

/// \brief One matching pair produced by a probe.
struct JoinMatch {
  /// The side the probing tuple was read from.
  Side probe_side = Side::kLeft;
  /// Id of the probing tuple in its side's store.
  TupleId probe_id = 0;
  /// Id of the stored tuple it matched (on the opposite side).
  TupleId stored_id = 0;
  /// Similarity of the pair (1.0 for exact matches).
  double similarity = 1.0;
  /// Exact or approximate.
  MatchKind kind = MatchKind::kExact;

  /// Id of the pair's left-side tuple.
  TupleId left_id() const {
    return probe_side == Side::kLeft ? probe_id : stored_id;
  }
  /// Id of the pair's right-side tuple.
  TupleId right_id() const {
    return probe_side == Side::kRight ? probe_id : stored_id;
  }
};

/// \brief How tuples read from one input are matched against the other.
///
/// The state names of the paper's four-state machine (§3.4) are the
/// per-side probe modes: in `lap/rex`, tuples read from the left probe
/// the right via the q-gram index (approximate) while tuples read from
/// the right probe the left via the exact hash table.
enum class ProbeMode { kExact, kApproximate };

/// "exact" / "approximate".
const char* ProbeModeName(ProbeMode mode);

/// \brief Per-step observables captured at step time.
///
/// The matched-exactly flags of both inputs evolve as later steps
/// process, so the §3.3 variant attribution cannot be recomputed after
/// a whole batch of steps has run — each engine snapshots it right
/// after each step and hands the monitor complete batches.
struct StepObservables {
  /// Approximate matches attributed to each input (indexed by Side).
  /// The attribution already folded in which side the step read from,
  /// so the record carries only what the monitor consumes.
  uint32_t approx_attributed[2] = {0, 0};
};

/// §3.3 variant attribution of one approximate match, judged by the
/// matched-exactly flags of its two tuples at the end of the step: if
/// the stored tuple has matched exactly, the reading input is blamed;
/// else if the probing tuple has, the stored input is; with no
/// evidence either way, both are. Adds the blame to `obs`. The flags
/// are read through the two predicates, in that order and only as far
/// as the rule needs. Every engine attributes through this function.
template <typename StoredMatchedExactly, typename ProbeMatchedExactly>
void AttributeApproxMatch(Side read_side,
                          StoredMatchedExactly stored_matched_exactly,
                          ProbeMatchedExactly probe_matched_exactly,
                          StepObservables* obs) {
  const size_t read = static_cast<size_t>(read_side);
  const size_t stored = static_cast<size_t>(exec::OtherSide(read_side));
  if (stored_matched_exactly()) {
    ++obs->approx_attributed[read];
  } else if (probe_matched_exactly()) {
    ++obs->approx_attributed[stored];
  } else {
    ++obs->approx_attributed[read];
    ++obs->approx_attributed[stored];
  }
}

/// Output schema of a join: left fields then right fields (right-side
/// duplicates suffixed "_r"), optionally followed by a "sim" double
/// column carrying the match similarity.
storage::Schema JoinOutputSchema(const storage::Schema& left,
                                 const storage::Schema& right,
                                 bool with_similarity);

}  // namespace join
}  // namespace aqp

#endif  // AQP_JOIN_JOIN_TYPES_H_
