#ifndef AQP_JOIN_SSHJOIN_H_
#define AQP_JOIN_SSHJOIN_H_

#include "join/symmetric_join.h"

namespace aqp {
namespace join {

/// \brief SSHJoin — the pipelined symmetric *set* hash join (§2.2), a
/// re-implementation of Chaudhuri et al.'s SSJoin primitive as a
/// symmetric, streaming operator.
///
/// Each operand maintains a q-gram inverted index; a probe computes the
/// probe string's gram set, selects its g-k+1 rarest posting lists and
/// scans only those, building the candidate set T(t) with shared-gram
/// counters, drops candidates outside the
/// probe's gram-count band or whose counter cannot reach the pair's
/// required overlap, and verifies the rest against the similarity
/// threshold by gram-set intersection (join/probe.h). This is the
/// all-approximate baseline of the paper's evaluation (result size `R`,
/// cost `C`).
class SSHJoin : public SymmetricJoin {
 public:
  SSHJoin(exec::Operator* left, exec::Operator* right,
          SymmetricJoinOptions options)
      : SymmetricJoin(left, right, std::move(options),
                      ProbeMode::kApproximate, ProbeMode::kApproximate,
                      "SSHJoin") {}
};

}  // namespace join
}  // namespace aqp

#endif  // AQP_JOIN_SSHJOIN_H_
