#ifndef AQP_JOIN_MATCH_BATCH_H_
#define AQP_JOIN_MATCH_BATCH_H_

#include <cstddef>
#include <vector>

#include "join/join_types.h"
#include "storage/column_batch.h"

namespace aqp {
namespace join {

/// A join output reference: which side probed, and the ids of the
/// pair's tuples in their stores (JoinMatch carries exactly that plus
/// the similarity/kind payload the sink may want to materialize).
using MatchRef = JoinMatch;

/// \brief A capacity-bounded batch of match references — the unit of
/// exchange of the late-materialized join output protocol.
///
/// The symmetric join's hot path emits MatchRefs instead of
/// concatenated Tuples; output cells are only written when a consumer
/// actually needs them (SymmetricJoin::MaterializeInto into a
/// ColumnBatch). Counting drains never materialize at all.
///
/// Like ColumnBatch, capacity is a soft contract: Append past capacity
/// degrades to growth instead of corruption.
class MatchBatch {
 public:
  explicit MatchBatch(
      size_t capacity = storage::ColumnBatch::kDefaultCapacity) {
    Reset(capacity);
  }

  /// Clears the refs and (re)reserves capacity. A capacity of 0 keeps
  /// the previous one.
  void Reset(size_t capacity = 0) {
    refs_.clear();
    if (capacity > 0) capacity_ = capacity;
    refs_.reserve(capacity_);
  }

  size_t capacity() const { return capacity_; }
  size_t size() const { return refs_.size(); }
  bool empty() const { return refs_.empty(); }
  bool full() const { return refs_.size() >= capacity_; }

  void Append(const MatchRef& ref) { refs_.push_back(ref); }

  const MatchRef& operator[](size_t i) const { return refs_[i]; }

  /// Drops all refs, keeping capacity.
  void Clear() { refs_.clear(); }

  const std::vector<MatchRef>& refs() const { return refs_; }

  std::vector<MatchRef>::const_iterator begin() const {
    return refs_.begin();
  }
  std::vector<MatchRef>::const_iterator end() const { return refs_.end(); }

 private:
  std::vector<MatchRef> refs_;
  size_t capacity_ = storage::ColumnBatch::kDefaultCapacity;
};

}  // namespace join
}  // namespace aqp

#endif  // AQP_JOIN_MATCH_BATCH_H_
