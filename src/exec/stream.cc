#include "exec/stream.h"

namespace aqp {
namespace exec {

Status GeneratorSource::Open() {
  if (open_) return Status::FailedPrecondition("GeneratorSource already open");
  open_ = true;
  done_ = false;
  return Status::OK();
}

Status GeneratorSource::NextColumnBatch(storage::ColumnBatch* out) {
  if (!open_) return Status::FailedPrecondition("GeneratorSource not open");
  out->Reset(&schema_);
  while (!out->full() && !done_) {
    std::optional<storage::Tuple> t = generator_();
    if (!t.has_value()) {
      done_ = true;
      break;
    }
    out->AppendTupleRow(*t);
  }
  return Status::OK();
}

Status GeneratorSource::Close() {
  if (!open_) return Status::FailedPrecondition("GeneratorSource not open");
  open_ = false;
  return Status::OK();
}

}  // namespace exec
}  // namespace aqp
