#include "storage/tuple_store.h"

#include <algorithm>
#include <numeric>

#include "common/failpoint.h"
#include "common/hash.h"

namespace aqp {
namespace storage {

void TupleStore::EnsureArity(size_t arity) {
  if (columns_.empty() && arity > 0) {
    columns_.resize(arity);
    if (reserve_hint_ > 0) {
      for (PayloadColumn& col : columns_) {
        col.nulls.reserve(reserve_hint_);
      }
    }
  }
  assert(columns_.size() == arity && "tuple arity changed mid-store");
  (void)arity;
}

void TupleStore::AppendNullSlot(PayloadColumn* col) {
  col->nulls.push_back(1);
  switch (col->type) {
    case ValueType::kInt64:
      col->i64.push_back(0);
      break;
    case ValueType::kDouble:
      col->f64.push_back(0.0);
      break;
    case ValueType::kString:
      col->str_offset.push_back(0);
      col->str_len.push_back(0);
      break;
    default:
      break;  // type not latched yet: only the null lane grows
  }
}

void TupleStore::ReserveColumn(PayloadColumn* col, size_t n) {
  col->nulls.reserve(n);
  switch (col->type) {
    case ValueType::kInt64:
      col->i64.reserve(n);
      break;
    case ValueType::kDouble:
      col->f64.reserve(n);
      break;
    case ValueType::kString:
      col->str_offset.reserve(n);
      col->str_len.reserve(n);
      break;
    default:
      break;
  }
}

void TupleStore::LatchColumnType(PayloadColumn* col, ValueType type) const {
  if (col->type == type) return;
  assert(col->type == ValueType::kNull && "cell type changed mid-column");
  col->type = type;
  // Backfill placeholder slots for the leading all-NULL prefix so the
  // value lane stays aligned with the null lane, and apply any pending
  // size hint to the freshly chosen value lane.
  const size_t backlog = col->nulls.size();
  const size_t want = std::max(backlog, reserve_hint_);
  switch (type) {
    case ValueType::kInt64:
      col->i64.reserve(want);
      col->i64.assign(backlog, 0);
      break;
    case ValueType::kDouble:
      col->f64.reserve(want);
      col->f64.assign(backlog, 0.0);
      break;
    case ValueType::kString:
      col->str_offset.reserve(want);
      col->str_offset.assign(backlog, 0);
      col->str_len.reserve(want);
      col->str_len.assign(backlog, 0);
      break;
    default:
      break;
  }
}

void TupleStore::AppendTupleLanes() {
  matched_exactly_.push_back(0);
  matched_any_.push_back(0);
  // Gram lanes are sized lazily by the first Grams() call: a store
  // that only ever probes exactly pays nothing for the cache.
}

TupleId TupleStore::AddRow(const ColumnBatch& batch, size_t row,
                           uint64_t key_hash) {
  // Per-row ingest fault (simulated resource exhaustion); throws, to
  // be contained at the nearest task/operator boundary.
  AQP_FAILPOINT_THROW(fail::site::kStoreAdd);
  const TupleId id = static_cast<TupleId>(keys_.size());
  EnsureArity(batch.num_columns());

  // Intern the join key straight from the batch arena: the copy, the
  // length, and the hash exist exactly once (the hash was computed
  // upstream — batch hash lane or routing exchange).
  const std::string_view key = batch.StringAt(join_column_, row);
  assert(key_hash == Fnv1a64(key) &&
         "precomputed key hash does not match the join attribute");
  KeyRecord record;
  record.len = static_cast<uint32_t>(key.size());
  record.offset = arena_.Intern(key);
  record.hash = key_hash;
  keys_.push_back(record);

  // Payload slice: column-to-column copies, no Tuple/Value in sight.
  // The join column's bytes are already in the key arena; only its
  // null lane grows (materialization reads JoinKey()).
  for (size_t col = 0; col < columns_.size(); ++col) {
    PayloadColumn& dst = columns_[col];
    if (col == join_column_) {
      dst.nulls.push_back(batch.IsNull(col, row) ? 1 : 0);
      continue;
    }
    if (batch.IsNull(col, row)) {
      AppendNullSlot(&dst);
      continue;
    }
    const ValueType type = batch.column_type(col);
    LatchColumnType(&dst, type);
    dst.nulls.push_back(0);
    switch (type) {
      case ValueType::kInt64:
        dst.i64.push_back(batch.Int64At(col, row));
        break;
      case ValueType::kDouble:
        dst.f64.push_back(batch.DoubleAt(col, row));
        break;
      default: {
        const std::string_view bytes = batch.StringAt(col, row);
        dst.str_offset.push_back(payload_arena_.size());
        dst.str_len.push_back(static_cast<uint32_t>(bytes.size()));
        payload_arena_.insert(payload_arena_.end(), bytes.begin(),
                              bytes.end());
        break;
      }
    }
  }

  AppendTupleLanes();
  return id;
}

TupleId TupleStore::Add(Tuple tuple) {
  const uint64_t hash = Fnv1a64(tuple[join_column_].AsString());
  return Add(std::move(tuple), hash);
}

TupleId TupleStore::Add(Tuple tuple, uint64_t key_hash) {
  const TupleId id = static_cast<TupleId>(keys_.size());
  EnsureArity(tuple.size());

  const std::string& key = tuple[join_column_].AsString();
  assert(key_hash == Fnv1a64(key) &&
         "precomputed key hash does not match the join attribute");
  KeyRecord record;
  record.len = static_cast<uint32_t>(key.size());
  record.offset = arena_.Intern(key);
  record.hash = key_hash;
  keys_.push_back(record);

  for (size_t col = 0; col < columns_.size(); ++col) {
    PayloadColumn& dst = columns_[col];
    const Value& v = tuple[col];
    if (col == join_column_) {
      dst.nulls.push_back(v.is_null() ? 1 : 0);
      continue;
    }
    if (v.is_null()) {
      AppendNullSlot(&dst);
      continue;
    }
    LatchColumnType(&dst, v.type());
    dst.nulls.push_back(0);
    switch (v.type()) {
      case ValueType::kInt64:
        dst.i64.push_back(v.AsInt64());
        break;
      case ValueType::kDouble:
        dst.f64.push_back(v.AsDouble());
        break;
      default: {
        const std::string_view bytes = v.AsStringView();
        dst.str_offset.push_back(payload_arena_.size());
        dst.str_len.push_back(static_cast<uint32_t>(bytes.size()));
        payload_arena_.insert(payload_arena_.end(), bytes.begin(),
                              bytes.end());
        break;
      }
    }
  }

  AppendTupleLanes();
  return id;
}

void TupleStore::Truncate(size_t n) {
  if (n >= keys_.size()) return;
  // Newest first, so the key arena and the payload arena rewind in the
  // order they grew.
  for (size_t id = keys_.size(); id-- > n;) {
    arena_.Unintern(keys_[id].offset, keys_[id].len);
    for (size_t col = 0; col < columns_.size(); ++col) {
      const PayloadColumn& src = columns_[col];
      if (col != join_column_ && src.type == ValueType::kString &&
          !src.nulls[id]) {
        payload_arena_.resize(src.str_offset[id]);
      }
    }
    if (matched_any_[id]) --matched_any_count_;
  }
  keys_.resize(n);
  for (PayloadColumn& col : columns_) {
    col.nulls.resize(n);
    // Latched value lanes hold one slot per row; unlatched ones are
    // empty and stay so.
    if (col.i64.size() > n) col.i64.resize(n);
    if (col.f64.size() > n) col.f64.resize(n);
    if (col.str_offset.size() > n) col.str_offset.resize(n);
    if (col.str_len.size() > n) col.str_len.resize(n);
  }
  matched_exactly_.resize(n);
  matched_any_.resize(n);
  if (gram_ready_.size() > n) {
    gram_sets_.resize(n);
    gram_ready_.resize(n);
  }
}

void TupleStore::Reserve(size_t n) {
  reserve_hint_ = std::max(reserve_hint_, n);
  keys_.reserve(n);
  // Value lanes reserve with their latched type; columns whose type is
  // still unknown pick the hint up at latch time (LatchColumnType).
  for (PayloadColumn& col : columns_) {
    ReserveColumn(&col, n);
  }
  matched_exactly_.reserve(n);
  matched_any_.reserve(n);
  // Gram lanes are not reserved here: they stay empty until the first
  // approximate probe asks for a gram set.
}

void TupleStore::AppendCellsTo(TupleId id, ColumnBatch* out,
                               size_t first_out_col) const {
  for (size_t col = 0; col < columns_.size(); ++col) {
    const PayloadColumn& src = columns_[col];
    const size_t out_col = first_out_col + col;
    if (src.nulls[id]) {
      out->AppendNull(out_col);
      continue;
    }
    if (col == join_column_) {
      out->AppendString(out_col, JoinKey(id));
      continue;
    }
    switch (src.type) {
      case ValueType::kInt64:
        out->AppendInt64(out_col, src.i64[id]);
        break;
      case ValueType::kDouble:
        out->AppendDouble(out_col, src.f64[id]);
        break;
      default:
        out->AppendString(
            out_col, std::string_view(payload_arena_.data() +
                                          src.str_offset[id],
                                      src.str_len[id]));
        break;
    }
  }
}

Tuple TupleStore::GetTuple(TupleId id) const {
  std::vector<Field> fields;
  for (const PayloadColumn& col : columns_) {
    fields.push_back(Field{"", col.type});
  }
  const Schema schema(std::move(fields));
  ColumnBatch row(&schema, 1);
  AppendCellsTo(id, &row, 0);
  row.CommitRow();
  return row.MaterializeRow(0);
}

void TupleStore::EnsureGramLanes() const {
  if (gram_ready_.size() < keys_.size()) {
    gram_sets_.resize(keys_.size());
    gram_ready_.resize(keys_.size(), 0);
  }
}

void TupleStore::MaterializeGrams(TupleId id) const {
  EnsureGramLanes();
  gram_sets_[id] =
      text::GramSet::OfUsingScratch(JoinKey(id), gram_options_,
                                    &gram_scratch_);
  gram_ready_[id] = 1;
}

size_t TupleStore::CountMatchedExactly() const {
  return std::accumulate(matched_exactly_.begin(), matched_exactly_.end(),
                         size_t{0});
}

size_t TupleStore::ApproximateMemoryUsage() const {
  size_t bytes = matched_exactly_.capacity() + matched_any_.capacity();
  bytes += arena_.ApproximateMemoryUsage();
  bytes += keys_.capacity() * sizeof(KeyRecord);
  bytes += payload_arena_.capacity();
  for (const PayloadColumn& col : columns_) {
    bytes += col.nulls.capacity();
    bytes += col.i64.capacity() * sizeof(int64_t);
    bytes += col.f64.capacity() * sizeof(double);
    bytes += col.str_offset.capacity() * sizeof(uint64_t);
    bytes += col.str_len.capacity() * sizeof(uint32_t);
  }
  bytes += gram_sets_.capacity() * sizeof(text::GramSet);
  for (const text::GramSet& set : gram_sets_) {
    bytes += set.grams().capacity() * sizeof(text::GramKey);
  }
  bytes += gram_ready_.capacity();
  bytes += gram_scratch_.capacity() * sizeof(text::GramKey);
  return bytes;
}

}  // namespace storage
}  // namespace aqp
