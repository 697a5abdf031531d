#ifndef AQP_EXEC_SINK_H_
#define AQP_EXEC_SINK_H_

#include <functional>

#include "exec/operator.h"

namespace aqp {
namespace exec {

/// \brief Per-tuple callback sink.
///
/// Drains an operator, invoking `visitor` for every tuple. The visitor
/// returns false to stop early (e.g. a time budget expired — the
/// "progressive" consumption mode the paper's mashup scenario implies).
struct DrainOptions {
  /// Stop after this many tuples (0 = unlimited).
  size_t limit = 0;
  /// Rows pulled per NextColumnBatch() call. Deliberately smaller than the
  /// bulk-drain default: an early-stopping visitor discards at most
  /// batch_size - 1 already-produced tuples, so a modest batch bounds
  /// the overshoot of progressive consumption while still amortizing
  /// the per-call overhead.
  size_t batch_size = 64;
};

/// Drains `op` into `visitor`. Returns the number of tuples delivered.
Result<size_t> Drain(Operator* op,
                     const std::function<bool(const storage::Tuple&)>& visitor,
                     const DrainOptions& options = {});

}  // namespace exec
}  // namespace aqp

#endif  // AQP_EXEC_SINK_H_
