#ifndef AQP_EXEC_OPERATOR_H_
#define AQP_EXEC_OPERATOR_H_

#include <string>

#include "common/result.h"
#include "common/status.h"
#include "storage/column_batch.h"
#include "storage/relation.h"
#include "storage/schema.h"

namespace aqp {
namespace exec {

/// \brief Which input of a binary operator.
enum class Side { kLeft = 0, kRight = 1 };

/// The opposite input.
inline Side OtherSide(Side side) {
  return side == Side::kLeft ? Side::kRight : Side::kLeft;
}

/// "left" / "right".
const char* SideName(Side side);

/// \brief Pipelined, vectorized iterator-model operator (OPEN / NEXT /
/// CLOSE after Graefe, where NEXT delivers a columnar batch).
///
/// NextColumnBatch() is the one pull method: it refills a caller-owned
/// columnar ColumnBatch with up to `capacity()` rows per call, moving
/// *columns* (typed vectors + a string arena) instead of rows of
/// variants. Row payloads are built only by sinks that need them
/// (CollectAll, Drain).
///
/// The adaptive framework (after Eurviriyanukul et al., cited as [11]
/// in the paper) replaces physical operators only at *quiescent*
/// states: states where the last input tuple consumed has been joined
/// with every match it has, so no partial per-tuple state would be lost
/// by a swap. Batch boundaries are quiescent by construction — every
/// tuple the operator consumed to produce a batch has been fully
/// processed, and all of its output is in the batch or an internal
/// spill buffer — so adaptation may safely fire between batches.
/// Operators advertise this through `quiescent()`: it is true right
/// after Open() and whenever no produced-but-undelivered output is
/// buffered; it is false while spilled output of an earlier step still
/// waits for a later NextColumnBatch() call.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Prepares the operator; must be called exactly once before
  /// NextColumnBatch(). Join operators are single-use: an Open() after
  /// a successful Open() returns FailedPrecondition, even after
  /// Close() — build a fresh operator to run a join again. An Open()
  /// that failed may be retried.
  virtual Status Open() = 0;

  /// Refills `out` (cleared and schema-stamped first) with up to
  /// out->capacity() output rows in columnar form. An empty batch after
  /// an OK return signals end-of-stream. On error the partial batch is
  /// discarded and the error returned: a failing call delivers no rows.
  virtual Status NextColumnBatch(storage::ColumnBatch* out) = 0;

  /// Releases resources; no NextColumnBatch() may follow.
  virtual Status Close() = 0;

  /// Schema of the rows produced by NextColumnBatch().
  virtual const storage::Schema& output_schema() const = 0;

  /// True iff the operator is in a quiescent state (§2.1).
  virtual bool quiescent() const { return true; }

  /// Operator name for diagnostics ("SHJoin", "RelationScan", ...).
  virtual std::string name() const = 0;
};

/// \brief Scope guard pairing a successful child Open() with a Close()
/// on error exits.
///
/// A composite operator that opens several children must not leave the
/// already-opened ones open when a later child's Open() (or any later
/// validation) fails: the composite's own open_ flag stays false, so
/// its Close() refuses to run and the children leak their open state.
/// Construct one guard right after each successful child Open(); call
/// Dismiss() on all of them once the composite's Open() can no longer
/// fail. The Close() status is intentionally dropped — the triggering
/// error is the one the caller must see.
class OpenGuard {
 public:
  explicit OpenGuard(Operator* op) : op_(op) {}
  ~OpenGuard() {
    if (op_ != nullptr) (void)op_->Close();
  }
  OpenGuard(const OpenGuard&) = delete;
  OpenGuard& operator=(const OpenGuard&) = delete;

  /// Defuses the guard: the open succeeded end to end.
  void Dismiss() { op_ = nullptr; }

 private:
  Operator* op_;
};

/// \brief Optional capability of late-materializing operators: advance
/// execution and count output rows without constructing any row
/// payloads.
///
/// Operators whose output is naturally a set of *references* (e.g. the
/// symmetric join's match refs into its tuple stores) implement this
/// alongside Operator. Counting drains detect it via dynamic_cast and
/// skip row materialization entirely; the produced row count, the
/// production order, and all quiescent-point/adaptation behavior must
/// be identical to what NextColumnBatch() would have driven.
class UnmaterializedCounter {
 public:
  virtual ~UnmaterializedCounter() = default;

  /// Produces and discards up to `max_rows` output rows, returning the
  /// number produced; 0 signals end-of-stream.
  virtual Result<size_t> AdvanceUnmaterialized(size_t max_rows) = 0;
};

/// \brief Knobs of the batched drain helpers.
struct ExecOptions {
  /// Rows pulled per NextColumnBatch() call.
  size_t batch_size = storage::ColumnBatch::kDefaultCapacity;
};

/// Drains `op` (Open/NextColumnBatch*/Close) into a materialized
/// relation. The pipeline moves columns end to end: each pulled batch
/// is appended whole to the columnar relation, and no row payload is
/// constructed.
Result<storage::Relation> CollectAll(Operator* op,
                                     const ExecOptions& options = {});

/// Drains `op`, returning only the number of tuples produced. When the
/// operator is an UnmaterializedCounter, no output row is ever
/// materialized.
Result<size_t> CountAll(Operator* op, const ExecOptions& options = {});

}  // namespace exec
}  // namespace aqp

#endif  // AQP_EXEC_OPERATOR_H_
