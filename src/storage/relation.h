#ifndef AQP_STORAGE_RELATION_H_
#define AQP_STORAGE_RELATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/column_batch.h"
#include "storage/schema.h"
#include "storage/tuple.h"

namespace aqp {
namespace storage {

/// \brief An in-memory table: a schema plus a chain of ColumnBatches.
///
/// Relations are the materialized endpoints of the system — generator
/// output, scan input, and collected join results. Producers append
/// cells (TailForAppend) or whole batches (AppendBatch); consumers read
/// typed cells or copy column ranges (CopyRows). A Tuple is built only
/// for a consumer that asks through row() or rows().
///
/// The schema is owned through a shared pointer that every batch
/// borrows, so copies and moves keep the batches' schema pointers
/// valid. A batch filled here holds at most kDefaultCapacity rows and
/// kArenaSoftLimit string bytes, far under its 32-bit offset bound.
class Relation {
 public:
  static constexpr size_t kArenaSoftLimit = size_t{1} << 30;

  /// Read-only range over the rows (range-for); each dereference
  /// builds the row as a Tuple.
  struct RowRange {
    struct iterator {
      const Relation* relation;
      size_t row;
      Tuple operator*() const { return relation->row(row); }
      iterator& operator++() {
        ++row;
        return *this;
      }
      bool operator!=(const iterator& other) const {
        return row != other.row;
      }
    };
    iterator begin() const { return {relation, 0}; }
    iterator end() const { return {relation, relation->size()}; }

    const Relation* relation;
  };

  Relation() : Relation(Schema()) {}
  explicit Relation(Schema schema)
      : schema_(std::make_shared<const Schema>(std::move(schema))) {}

  /// The relation's schema.
  const Schema& schema() const { return *schema_; }

  /// Number of rows.
  size_t size() const {
    return batches_.empty() ? 0 : starts_.back() + batches_.back().size();
  }
  bool empty() const { return size() == 0; }

  /// \name Typed cell access (column, row), as on ColumnBatch. Views
  /// returned by StringAt stay valid until the relation is mutated.
  /// @{
  bool IsNull(size_t col, size_t row) const {
    const ColumnBatch& batch = BatchOf(&row);
    return batch.IsNull(col, row);
  }
  int64_t Int64At(size_t col, size_t row) const {
    const ColumnBatch& batch = BatchOf(&row);
    return batch.Int64At(col, row);
  }
  double DoubleAt(size_t col, size_t row) const {
    const ColumnBatch& batch = BatchOf(&row);
    return batch.DoubleAt(col, row);
  }
  std::string_view StringAt(size_t col, size_t row) const {
    const ColumnBatch& batch = BatchOf(&row);
    return batch.StringAt(col, row);
  }
  /// @}

  /// Row `i` built as a Tuple (bounds-checked; throws
  /// std::out_of_range). Returned by value: bind it before holding a
  /// reference into its cells.
  Tuple row(size_t i) const;
  /// Every row, each built as a Tuple when dereferenced.
  RowRange rows() const { return RowRange{this}; }

  /// The batches, in row order.
  const std::vector<ColumnBatch>& batches() const { return batches_; }

  /// Appends a row after validating it against the schema.
  Status Append(const Tuple& tuple);

  /// The batch the next row goes into, opening a new one when the last
  /// is full: append one cell per column to it, then CommitRow().
  ColumnBatch* TailForAppend();

  /// Appends a batch's rows; its layout must match the schema. A large
  /// batch (at least a quarter of ColumnBatch::kDefaultCapacity rows)
  /// is moved in whole, re-pointed at this relation's schema, and
  /// `batch` is left empty. A smaller one is copied into the last
  /// batch and left intact, so tiny batches do not multiply batches.
  void AppendBatch(ColumnBatch&& batch);

  /// Appends rows [begin, begin + count) to `out`, whose layout must
  /// match, copying column ranges batch by batch.
  void CopyRows(size_t begin, size_t count, ColumnBatch* out) const;

  /// Returns the distinct values of a string column, in first-seen
  /// order.
  std::vector<std::string> DistinctStrings(size_t column) const;

  /// Renders the first `limit` rows as an aligned table (debugging).
  std::string ToString(size_t limit = 10) const;

 private:
  /// The batch holding row `*row` (< size()); rebases `*row` to an
  /// index into that batch.
  const ColumnBatch& BatchOf(size_t* row) const;

  std::shared_ptr<const Schema> schema_;
  std::vector<ColumnBatch> batches_;
  /// First row of each batch.
  std::vector<size_t> starts_;
};

}  // namespace storage
}  // namespace aqp

#endif  // AQP_STORAGE_RELATION_H_
