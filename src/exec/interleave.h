#ifndef AQP_EXEC_INTERLEAVE_H_
#define AQP_EXEC_INTERLEAVE_H_

#include <cstdint>
#include <optional>

#include "exec/operator.h"

namespace aqp {
namespace exec {

/// \brief How a symmetric binary operator alternates between its
/// inputs.
///
/// The paper's symmetric joins scan "each of the tables in turn, one
/// tuple at a time" (§2.2) — strict alternation, the default here. The
/// proportional policy reads the larger input more often so both are
/// exhausted at about the same time — an ablation knob outside the
/// paper, measured by BM_AdaptiveJoin_InterleavePolicy in
/// bench/bench_join_micro.cc.
enum class InterleavePolicy {
  /// L, R, L, R, ... then drain the survivor.
  kAlternate,
  /// Reads sides in proportion to their expected sizes.
  kProportional,
  /// Exhausts the left input before reading the right.
  kLeftFirst,
  /// Exhausts the right input before reading the left.
  kRightFirst,
};

/// Canonical name ("alternate", ...).
const char* InterleavePolicyName(InterleavePolicy policy);

/// \brief Strategy object deciding which input to read next.
class InterleaveScheduler {
 public:
  /// `left_hint`/`right_hint` are expected input cardinalities; only
  /// the proportional policy uses them (0 means unknown and falls back
  /// to alternation).
  InterleaveScheduler(InterleavePolicy policy, uint64_t left_hint,
                      uint64_t right_hint);

  /// Picks the side to read next given which inputs are exhausted;
  /// nullopt when both are. Inline: the batched engine calls this once
  /// per tuple, so an out-of-line call would tax every step.
  std::optional<Side> NextSide(bool left_exhausted, bool right_exhausted) {
    if (left_exhausted && right_exhausted) return std::nullopt;
    if (left_exhausted) return Side::kRight;
    if (right_exhausted) return Side::kLeft;
    return Preferred();
  }

  /// Informs the scheduler that one tuple was read from `side`.
  void OnRead(Side side) {
    last_ = side;
    if (side == Side::kLeft) {
      ++left_reads_;
    } else {
      ++right_reads_;
    }
  }

  /// Tuples read so far from `side`.
  uint64_t reads(Side side) const {
    return side == Side::kLeft ? left_reads_ : right_reads_;
  }

 private:
  Side Preferred() const {
    switch (policy_) {
      case InterleavePolicy::kAlternate:
        return OtherSide(last_);
      case InterleavePolicy::kProportional: {
        if (left_hint_ == 0 || right_hint_ == 0) return OtherSide(last_);
        // Pick the side that is furthest behind its proportional share.
        // Compare left_reads/left_hint vs right_reads/right_hint
        // without division.
        const unsigned __int128 lhs =
            static_cast<unsigned __int128>(left_reads_) * right_hint_;
        const unsigned __int128 rhs =
            static_cast<unsigned __int128>(right_reads_) * left_hint_;
        if (lhs == rhs) return OtherSide(last_);
        return lhs < rhs ? Side::kLeft : Side::kRight;
      }
      case InterleavePolicy::kLeftFirst:
        return Side::kLeft;
      case InterleavePolicy::kRightFirst:
        return Side::kRight;
    }
    return Side::kLeft;
  }

  InterleavePolicy policy_;
  uint64_t left_hint_;
  uint64_t right_hint_;
  uint64_t left_reads_ = 0;
  uint64_t right_reads_ = 0;
  Side last_ = Side::kRight;  // so the first alternation read is left
};

}  // namespace exec
}  // namespace aqp

#endif  // AQP_EXEC_INTERLEAVE_H_
