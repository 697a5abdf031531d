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
  // This copy feeds every join's input path: column ranges go
  // straight from the relation's batches into the output columns, with
  // one type dispatch per column per range and no Tuple/Value built.
  relation_->CopyRows(position_, end - position_, out);
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
