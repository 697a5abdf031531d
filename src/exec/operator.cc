#include "exec/operator.h"

#include <utility>

#include "common/macros.h"

namespace aqp {
namespace exec {

const char* SideName(Side side) {
  return side == Side::kLeft ? "left" : "right";
}

Result<storage::Relation> CollectAll(Operator* op, const ExecOptions& options) {
  AQP_RETURN_IF_ERROR(op->Open());
  storage::Relation out(op->output_schema());
  storage::ColumnBatch batch(&op->output_schema(), options.batch_size);
  while (true) {
    Status s = op->NextColumnBatch(&batch);
    if (!s.ok()) {
      // Best-effort close; the original error wins.
      (void)op->Close();
      return s;
    }
    if (batch.empty()) break;
    // The next pull re-stamps the moved-from batch.
    out.AppendBatch(std::move(batch));
  }
  AQP_RETURN_IF_ERROR(op->Close());
  return out;
}

Result<size_t> CountAll(Operator* op, const ExecOptions& options) {
  AQP_RETURN_IF_ERROR(op->Open());
  size_t count = 0;
  // Late-materializing operators count without ever constructing a row
  // (drive pattern and batch sizes identical to the NextColumnBatch
  // loop, so adaptation traces do not depend on which drain ran).
  if (auto* unmaterialized = dynamic_cast<UnmaterializedCounter*>(op)) {
    while (true) {
      auto produced = unmaterialized->AdvanceUnmaterialized(
          options.batch_size == 0 ? storage::ColumnBatch::kDefaultCapacity
                                  : options.batch_size);
      if (!produced.ok()) {
        (void)op->Close();
        return produced.status();
      }
      if (*produced == 0) break;
      count += *produced;
    }
    AQP_RETURN_IF_ERROR(op->Close());
    return count;
  }
  storage::ColumnBatch batch(&op->output_schema(), options.batch_size);
  while (true) {
    Status s = op->NextColumnBatch(&batch);
    if (!s.ok()) {
      (void)op->Close();
      return s;
    }
    if (batch.empty()) break;
    count += batch.size();
  }
  AQP_RETURN_IF_ERROR(op->Close());
  return count;
}

}  // namespace exec
}  // namespace aqp
