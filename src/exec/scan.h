#ifndef AQP_EXEC_SCAN_H_
#define AQP_EXEC_SCAN_H_

#include <string>

#include "exec/operator.h"
#include "storage/relation.h"

namespace aqp {
namespace exec {

/// \brief Sequential scan over a materialized relation.
///
/// Non-owning: the relation must outlive the scan. Scans are always
/// quiescent (they hold no cross-call per-tuple state).
///
/// Column ranges are copied straight from the relation's batches into
/// the output batch, so no Tuple (one `vector<Value>` plus one heap
/// string per row on this schema) ever exists on the scan→join hot
/// path.
class RelationScan : public Operator {
 public:
  /// Scans `relation` front to back.
  explicit RelationScan(const storage::Relation* relation)
      : relation_(relation) {}

  Status Open() override;
  Status NextColumnBatch(storage::ColumnBatch* out) override;
  Status Close() override;
  const storage::Schema& output_schema() const override {
    return relation_->schema();
  }
  std::string name() const override { return "RelationScan"; }

  /// Tuples produced so far.
  size_t position() const { return position_; }

 private:
  const storage::Relation* relation_;
  size_t position_ = 0;
  bool open_ = false;
};

}  // namespace exec
}  // namespace aqp

#endif  // AQP_EXEC_SCAN_H_
