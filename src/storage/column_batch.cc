#include "storage/column_batch.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/hash.h"

namespace aqp {
namespace storage {

void ColumnBatch::DieArenaOverflow() {
  std::fprintf(stderr,
               "ColumnBatch: string arena exceeds the 4 GiB addressed by "
               "its 32-bit offsets (batch far beyond intended capacity)\n");
  std::abort();
}

void ColumnBatch::Reset(const Schema* schema, size_t capacity) {
  if (capacity > 0) capacity_ = capacity;
  if (schema == schema_ && schema != nullptr &&
      columns_.size() == schema->num_fields()) {
    // Steady-state refill: same layout, keep every allocation.
    Clear();
    return;
  }
  schema_ = schema;
  columns_.clear();
  arena_.clear();
  key_hashes_.clear();
  num_rows_ = 0;
  committed_arena_ = 0;
  if (schema_ == nullptr) return;
  columns_.resize(schema_->num_fields());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].type = schema_->field(i).type;
    columns_[i].nulls.reserve(capacity_);
    switch (columns_[i].type) {
      case ValueType::kInt64:
        columns_[i].i64.reserve(capacity_);
        break;
      case ValueType::kDouble:
        columns_[i].f64.reserve(capacity_);
        break;
      default:
        columns_[i].offset.reserve(capacity_);
        columns_[i].len.reserve(capacity_);
        break;
    }
  }
}

void ColumnBatch::Clear() {
  for (Column& c : columns_) {
    c.nulls.clear();
    c.i64.clear();
    c.f64.clear();
    c.offset.clear();
    c.len.clear();
  }
  arena_.clear();
  key_hashes_.clear();
  num_rows_ = 0;
  committed_arena_ = 0;
}

void ColumnBatch::AbandonRow() {
  // A cell append always grows the null lane and the matching value
  // lane together, so any column whose null lane is ahead of the
  // committed row count holds exactly the in-flight row's cell.
  for (Column& c : columns_) {
    if (c.nulls.size() <= num_rows_) continue;
    c.nulls.resize(num_rows_);
    switch (c.type) {
      case ValueType::kInt64:
        c.i64.resize(num_rows_);
        break;
      case ValueType::kDouble:
        c.f64.resize(num_rows_);
        break;
      default:
        c.offset.resize(num_rows_);
        c.len.resize(num_rows_);
        break;
    }
  }
  arena_.resize(committed_arena_);
}

void ColumnBatch::AppendTupleRow(const Tuple& tuple) {
  assert(tuple.size() == columns_.size() &&
         "tuple arity does not match batch schema");
  for (size_t col = 0; col < columns_.size(); ++col) {
    const Value& v = tuple[col];
    if (v.is_null()) {
      AppendNull(col);
      continue;
    }
    switch (columns_[col].type) {
      case ValueType::kInt64:
        AppendInt64(col, v.AsInt64());
        break;
      case ValueType::kDouble:
        AppendDouble(col, v.AsDouble());
        break;
      default:
        AppendString(col, v.AsStringView());
        break;
    }
  }
  CommitRow();
}

void ColumnBatch::AppendRows(const ColumnBatch& src, size_t begin,
                             size_t count) {
  assert(src.num_columns() == num_columns() &&
         "range copy between different layouts");
  const size_t end = begin + count;
  for (size_t col = 0; col < columns_.size(); ++col) {
    const Column& from = src.columns_[col];
    Column& to = columns_[col];
    to.nulls.insert(to.nulls.end(), from.nulls.begin() + begin,
                    from.nulls.begin() + end);
    switch (to.type) {
      case ValueType::kInt64:
        to.i64.insert(to.i64.end(), from.i64.begin() + begin,
                      from.i64.begin() + end);
        break;
      case ValueType::kDouble:
        to.f64.insert(to.f64.end(), from.f64.begin() + begin,
                      from.f64.begin() + end);
        break;
      default:
        for (size_t row = begin; row < end; ++row) {
          const uint32_t len = from.len[row];
          if (arena_.size() + len > UINT32_MAX) DieArenaOverflow();
          to.offset.push_back(static_cast<uint32_t>(arena_.size()));
          to.len.push_back(len);
          const char* bytes = src.arena_.data() + from.offset[row];
          arena_.insert(arena_.end(), bytes, bytes + len);
        }
        break;
    }
  }
  num_rows_ += count;
  committed_arena_ = arena_.size();
}

void ColumnBatch::AppendRowFrom(const ColumnBatch& src, size_t row) {
  assert(src.num_columns() == num_columns() &&
         "column scatter between different layouts");
  for (size_t col = 0; col < columns_.size(); ++col) {
    AppendCellFrom(src, col, row);
  }
  if (!src.key_hashes_.empty()) {
    key_hashes_.push_back(src.key_hashes_[row]);
  }
  CommitRow();
}

void ColumnBatch::AppendCellFrom(const ColumnBatch& src, size_t col,
                                 size_t row) {
  if (src.IsNull(col, row)) {
    AppendNull(col);
    return;
  }
  switch (columns_[col].type) {
    case ValueType::kInt64:
      AppendInt64(col, src.Int64At(col, row));
      break;
    case ValueType::kDouble:
      AppendDouble(col, src.DoubleAt(col, row));
      break;
    default:
      AppendString(col, src.StringAt(col, row));
      break;
  }
}

Tuple ColumnBatch::MaterializeRow(size_t row) const {
  std::vector<Value> values;
  values.reserve(columns_.size());
  for (size_t col = 0; col < columns_.size(); ++col) {
    if (IsNull(col, row)) {
      values.emplace_back();
    } else if (columns_[col].type == ValueType::kInt64) {
      values.emplace_back(Int64At(col, row));
    } else if (columns_[col].type == ValueType::kDouble) {
      values.emplace_back(DoubleAt(col, row));
    } else {
      values.emplace_back(std::string(StringAt(col, row)));
    }
  }
  return Tuple(std::move(values));
}

void ColumnBatch::ComputeKeyHashes(size_t col) {
  key_hashes_.clear();
  key_hashes_.reserve(num_rows_);
  const Column& c = columns_[col];
  assert(c.type == ValueType::kString && "join-key column must be string");
  for (size_t row = 0; row < num_rows_; ++row) {
    key_hashes_.push_back(Fnv1a64(
        std::string_view(arena_.data() + c.offset[row], c.len[row])));
  }
}

uint64_t ColumnBatch::ApproximateMemoryUsage() const {
  uint64_t bytes = arena_.capacity();
  bytes += key_hashes_.capacity() * sizeof(uint64_t);
  bytes += columns_.capacity() * sizeof(Column);
  for (const Column& c : columns_) {
    bytes += c.nulls.capacity() * sizeof(uint8_t);
    bytes += c.i64.capacity() * sizeof(int64_t);
    bytes += c.f64.capacity() * sizeof(double);
    bytes += c.offset.capacity() * sizeof(uint32_t);
    bytes += c.len.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

Status ColumnBatch::Validate() const {
  if (schema_ == nullptr) {
    return Status::FailedPrecondition("ColumnBatch has no schema");
  }
  if (columns_.size() != schema_->num_fields()) {
    return Status::Internal("column count does not match schema");
  }
  for (size_t col = 0; col < columns_.size(); ++col) {
    const Column& c = columns_[col];
    if (c.nulls.size() != num_rows_) {
      return Status::Internal("column " + std::to_string(col) +
                              " null lane misaligned");
    }
    size_t lane = 0;
    switch (c.type) {
      case ValueType::kInt64:
        lane = c.i64.size();
        break;
      case ValueType::kDouble:
        lane = c.f64.size();
        break;
      default:
        lane = c.offset.size();
        if (c.len.size() != lane) {
          return Status::Internal("column " + std::to_string(col) +
                                  " string lanes misaligned");
        }
        break;
    }
    if (lane != num_rows_) {
      return Status::Internal("column " + std::to_string(col) +
                              " value lane misaligned");
    }
  }
  if (!key_hashes_.empty() && key_hashes_.size() != num_rows_) {
    return Status::Internal("key-hash lane misaligned");
  }
  return Status::OK();
}

std::string ColumnBatch::ToString(size_t limit) const {
  std::ostringstream os;
  os << "ColumnBatch(" << num_rows_ << "/" << capacity_ << ")";
  const size_t shown = limit == 0 ? num_rows_ : std::min(limit, num_rows_);
  for (size_t row = 0; row < shown; ++row) {
    os << "\n  " << MaterializeRow(row).ToString();
  }
  if (shown < num_rows_) {
    os << "\n  ... " << (num_rows_ - shown) << " more";
  }
  return os.str();
}

}  // namespace storage
}  // namespace aqp
