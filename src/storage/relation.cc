#include "storage/relation.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "common/macros.h"
#include "common/table_printer.h"

namespace aqp {
namespace storage {

Tuple Relation::row(size_t i) const {
  if (i >= size()) throw std::out_of_range("Relation::row");
  const ColumnBatch& batch = BatchOf(&i);
  return batch.MaterializeRow(i);
}

Status Relation::Append(const Tuple& tuple) {
  AQP_RETURN_IF_ERROR(tuple.ValidateAgainst(*schema_));
  TailForAppend()->AppendTupleRow(tuple);
  return Status::OK();
}

ColumnBatch* Relation::TailForAppend() {
  if (batches_.empty() ||
      batches_.back().size() >= ColumnBatch::kDefaultCapacity ||
      batches_.back().arena_.size() >= kArenaSoftLimit) {
    starts_.push_back(size());
    batches_.emplace_back(schema_.get());
  }
  return &batches_.back();
}

void Relation::AppendBatch(ColumnBatch&& batch) {
  if (batch.size() >= ColumnBatch::kDefaultCapacity / 4) {
    assert(batch.num_columns() == schema_->num_fields() &&
           "appended batch has another layout");
    batch.schema_ = schema_.get();
    starts_.push_back(size());
    batches_.push_back(std::move(batch));
    batch.Clear();
    return;
  }
  for (size_t row = 0; row < batch.size(); ++row) {
    TailForAppend()->AppendRowFrom(batch, row);
  }
}

void Relation::CopyRows(size_t begin, size_t count, ColumnBatch* out) const {
  assert(begin + count <= size() && "row range past the relation's end");
  while (count > 0) {
    size_t offset = begin;
    const ColumnBatch& batch = BatchOf(&offset);
    const size_t take = std::min(count, batch.size() - offset);
    out->AppendRows(batch, offset, take);
    begin += take;
    count -= take;
  }
}

const ColumnBatch& Relation::BatchOf(size_t* row) const {
  const size_t b = static_cast<size_t>(
      std::upper_bound(starts_.begin(), starts_.end(), *row) -
      starts_.begin() - 1);
  *row -= starts_[b];
  return batches_[b];
}

std::vector<std::string> Relation::DistinctStrings(size_t column) const {
  std::vector<std::string> out;
  std::unordered_set<std::string_view> seen;
  seen.reserve(size());
  for (const ColumnBatch& batch : batches_) {
    for (size_t row = 0; row < batch.size(); ++row) {
      const std::string_view s = batch.StringAt(column, row);
      if (seen.insert(s).second) out.emplace_back(s);
    }
  }
  return out;
}

std::string Relation::ToString(size_t limit) const {
  std::vector<std::string> headers;
  for (const Field& f : schema_->fields()) headers.push_back(f.name);
  TablePrinter printer(headers);
  for (size_t i = 0; i < size() && i < limit; ++i) {
    std::vector<std::string> cells;
    const Tuple tuple = row(i);
    for (const Value& v : tuple.values()) cells.push_back(v.ToString());
    printer.AddRow(std::move(cells));
  }
  std::ostringstream os;
  printer.Print(os);
  if (size() > limit) {
    os << "... (" << size() - limit << " more rows)\n";
  }
  return os.str();
}

}  // namespace storage
}  // namespace aqp
