#include "exec/scan.h"

#include <algorithm>

#include "common/failpoint.h"

namespace aqp {
namespace exec {

Status RelationScan::Open() {
  if (open_) return Status::FailedPrecondition("RelationScan already open");
  open_ = true;
  position_ = 0;
  return Status::OK();
}

Status RelationScan::NextColumnBatch(storage::ColumnBatch* out) {
  if (!open_) return Status::FailedPrecondition("RelationScan not open");
  AQP_FAILPOINT(fail::site::kScanNext);
  out->Reset(&relation_->schema());
  const size_t end =
      std::min(relation_->size(), position_ + out->capacity());
  // Unchecked row access: position_ < end <= size() by construction,
  // and this copy feeds every join's input path. Cells go straight
  // into the column vectors — no Tuple/Value construction — with one
  // type dispatch per column for the whole range.
  const std::vector<storage::Tuple>& rows = relation_->rows();
  out->AppendTupleRows(rows.data() + position_, end - position_);
  position_ = end;
  return Status::OK();
}

Status RelationScan::Close() {
  if (!open_) return Status::FailedPrecondition("RelationScan not open");
  open_ = false;
  return Status::OK();
}

}  // namespace exec
}  // namespace aqp
