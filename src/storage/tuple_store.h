#ifndef AQP_STORAGE_TUPLE_STORE_H_
#define AQP_STORAGE_TUPLE_STORE_H_

#include <cassert>
#include <cstdint>
#include <string_view>
#include <vector>

#include "storage/column_batch.h"
#include "storage/key_arena.h"
#include "storage/tuple.h"
#include "text/qgram.h"

namespace aqp {
namespace storage {

/// Dense id of a tuple within one side's TupleStore.
using TupleId = uint32_t;

/// \brief Append-only *columnar* store of the tuples one join input has
/// produced so far — and the single source of truth for every derived
/// join-key artifact.
///
/// The paper (§2.3) stores each scanned tuple exactly once per operand;
/// both the exact hash table and the q-gram index reference tuples by
/// id. The store owns, per tuple:
///
/// - the payload, held as typed per-column vectors (int64, double, or
///   {offset, len} slots into a payload byte arena) with per-column
///   null lanes. The join column's bytes are *not* duplicated into the
///   payload arena — they live once in the key arena (below) and
///   materialization reads them back through JoinKey(). Ingesting from
///   a ColumnBatch row (AddRow) copies plain bytes between arenas and
///   typed vectors: no Tuple, no Value, no per-cell heap allocation
///   ever exists on this path;
/// - the *interned join key*: its bytes are copied once into a stable
///   byte arena at add time together with a {offset, len, hash}
///   record, so JoinKey() returns a string_view (no std::string
///   re-reads), KeyHash() returns the 64-bit hash computed exactly
///   once (here or upstream in the batch's key-hash lane / the routing
///   exchange), and key equality downstream is (hash, arena
///   byte-compare);
/// - optionally the tuple's q-gram set (gram-cache mode), computed at
///   most once and shared by the q-gram index and the SSHJoin
///   candidate verifier;
/// - the per-tuple "has been matched exactly at least once" flag that
///   §3.3 uses to attribute variants to one input, plus the
///   matched-at-least-once flag behind the completeness statistic.
///
/// JoinKey() views and cached hashes are stable across store growth
/// (the key arena never relocates bytes); Grams() references are
/// stable until the next add. Payload accessors (AppendCellsTo /
/// GetTuple) copy bytes out, so they are unaffected by growth.
class TupleStore {
 public:
  /// Constructs a store whose join attribute is at `join_column`.
  explicit TupleStore(size_t join_column) : join_column_(join_column) {}

  /// Same, with the gram cache enabled: Grams() serves each stored
  /// tuple's q-gram set under `gram_options`, extracted at most once.
  TupleStore(size_t join_column, const text::QGramOptions& gram_options)
      : join_column_(join_column),
        gram_options_(gram_options),
        gram_cache_enabled_(true) {}

  /// Ingests row `row` of `batch` — the native columnar path: the key
  /// view comes straight out of the batch's arena, `key_hash` from its
  /// hash lane (must equal Fnv1a64 of the key bytes), and the payload
  /// slice is copied column-to-column.
  TupleId AddRow(const ColumnBatch& batch, size_t row, uint64_t key_hash);

  /// Appends a tuple (the tuple ingest path of tests and benches:
  /// decomposes the tuple into the columnar payload). Interns the join key and
  /// caches its hash.
  TupleId Add(Tuple tuple);

  /// Same, with the key hash already computed by the caller. `key_hash`
  /// must equal Fnv1a64 of the tuple's join attribute.
  TupleId Add(Tuple tuple, uint64_t key_hash);

  /// Drops tuples [n, size()): afterwards the store's payload, keys and
  /// gram cache read exactly as if only the first `n` tuples had ever
  /// been added, so re-adding the dropped rows gives them the same ids
  /// again. Matched flags the dropped tuples set on kept ones stay set.
  /// JoinKey() views of the kept tuples stay valid. Capacity is kept.
  /// No-op when n >= size().
  void Truncate(size_t n);

  /// Reserves room for `n` tuples across all per-tuple vectors
  /// (bulk-load paths with known cardinality hints).
  void Reserve(size_t n);

  /// Number of stored tuples.
  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }

  /// Payload columns per tuple (0 until the first add).
  size_t num_columns() const { return columns_.size(); }

  /// \name Payload access (materialization sinks).
  /// @{
  /// Appends tuple `id`'s cells to `out` starting at output column
  /// `first_out_col`, without committing the row — the join sinks
  /// splice left cells, right cells, and the similarity column into
  /// one output row. String bytes are copied arena-to-arena.
  void AppendCellsTo(TupleId id, ColumnBatch* out,
                     size_t first_out_col) const;

  /// Materializes tuple `id` as a row through a one-row batch
  /// (debug paths; the columnar sinks use AppendCellsTo instead).
  Tuple GetTuple(TupleId id) const;
  /// @}

  /// Join-attribute value of a stored tuple, viewed from the intern
  /// arena. Valid for the store's whole lifetime.
  std::string_view JoinKey(TupleId id) const {
    const KeyRecord& key = keys_[id];
    return arena_.View(key.offset, key.len);
  }

  /// 64-bit FNV-1a hash of JoinKey(id), computed once at add time.
  uint64_t KeyHash(TupleId id) const { return keys_[id].hash; }

  /// Byte length of JoinKey(id).
  uint32_t KeyLength(TupleId id) const { return keys_[id].len; }

  /// Column holding the join attribute.
  size_t join_column() const { return join_column_; }

  /// \name Gram cache (SSHJoin probe artifacts).
  /// @{
  bool gram_cache_enabled() const { return gram_cache_enabled_; }
  /// Extraction options of the cache (gram-cache mode only).
  const text::QGramOptions& gram_options() const { return gram_options_; }
  /// Gram set of a stored tuple, extracted on first request and
  /// memoized. Requires gram-cache mode. The reference is valid until
  /// the next add. The cache lanes themselves are sized lazily, so a
  /// store that only ever probes exactly (SHJoin) never grows them.
  const text::GramSet& Grams(TupleId id) const {
    assert(gram_cache_enabled_ && "TupleStore gram cache not enabled");
    if (id >= gram_ready_.size() || !gram_ready_[id]) MaterializeGrams(id);
    return gram_sets_[id];
  }
  /// @}

  /// \name Matched-exactly flags (§3.3).
  /// @{
  bool MatchedExactly(TupleId id) const { return matched_exactly_[id] != 0; }
  void SetMatchedExactly(TupleId id) { matched_exactly_[id] = 1; }
  /// Number of tuples with the flag set.
  size_t CountMatchedExactly() const;
  /// @}

  /// \name Matched-at-least-once flags (any kind). The monitor's
  /// completeness statistic counts distinct matched child tuples.
  /// @{
  bool MatchedAny(TupleId id) const { return matched_any_[id] != 0; }
  /// Sets the flag; returns true iff it was previously clear.
  bool SetMatchedAny(TupleId id) {
    const bool first = matched_any_[id] == 0;
    matched_any_[id] = 1;
    return first;
  }
  /// Number of tuples matched at least once.
  size_t matched_any_count() const { return matched_any_count_; }
  void IncrementMatchedAnyCount() { ++matched_any_count_; }
  /// @}

  /// Rough heap footprint in bytes (payload columns + arenas + key
  /// records + gram cache + flags), for the §2.3 space analysis.
  size_t ApproximateMemoryUsage() const;

 private:
  /// Interned-key record: where the key bytes live in the arena, and
  /// the hash computed once at add time.
  struct KeyRecord {
    uint64_t hash = 0;
    uint64_t offset = 0;
    uint32_t len = 0;
  };

  /// One payload column. The type is latched from the first non-null
  /// cell the column sees (the store is schema-free: every producer
  /// feeds rows of one schema, so cell types are consistent per
  /// column); until then only the null lane grows, and the latch
  /// backfills placeholder slots for the leading nulls. The join
  /// column's lane stays empty — its bytes live in the key arena.
  struct PayloadColumn {
    ValueType type = ValueType::kNull;
    std::vector<uint8_t> nulls;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<uint64_t> str_offset;
    std::vector<uint32_t> str_len;
  };

  /// Fixes the payload arity on first add; asserts it afterwards.
  void EnsureArity(size_t arity);

  /// Appends one NULL slot to `col` (null lane + placeholder in the
  /// latched value lane) — the one place the placeholder convention
  /// lives.
  static void AppendNullSlot(PayloadColumn* col);

  /// Reserves `col`'s value lane for `n` rows according to its latched
  /// type.
  static void ReserveColumn(PayloadColumn* col, size_t n);

  /// Grows the lazily sized gram lanes to cover every stored tuple.
  void EnsureGramLanes() const;

  /// Latches `col`'s type, backfilling placeholder slots for rows
  /// already stored as NULL.
  void LatchColumnType(PayloadColumn* col, ValueType type) const;

  /// Appends the bookkeeping lanes (flags, gram cache) of one tuple.
  void AppendTupleLanes();

  /// Out-of-line slow path of Grams(): extract, memoize, mark ready.
  void MaterializeGrams(TupleId id) const;

  size_t join_column_;
  KeyArena arena_;
  std::vector<KeyRecord> keys_;
  /// Typed payload columns; the string cells' bytes live here.
  std::vector<PayloadColumn> columns_;
  std::vector<char> payload_arena_;
  std::vector<uint8_t> matched_exactly_;
  std::vector<uint8_t> matched_any_;
  size_t matched_any_count_ = 0;
  size_t reserve_hint_ = 0;

  text::QGramOptions gram_options_{};
  bool gram_cache_enabled_ = false;
  /// Lazily filled per-tuple gram sets (mutable: memoization cache
  /// behind a logically-const accessor; the engine is single-threaded).
  /// The lanes are also lazily *sized* — first Grams() call grows them
  /// to the store's size — so exact-only probing pays nothing for the
  /// cache's existence.
  mutable std::vector<text::GramSet> gram_sets_;
  mutable std::vector<uint8_t> gram_ready_;
  /// Reusable gram-extraction scratch shared by all cache fills.
  mutable std::vector<text::GramKey> gram_scratch_;
};

}  // namespace storage
}  // namespace aqp

#endif  // AQP_STORAGE_TUPLE_STORE_H_
