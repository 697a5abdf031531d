#ifndef AQP_JOIN_EXACT_INDEX_H_
#define AQP_JOIN_EXACT_INDEX_H_

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "storage/tuple_store.h"

namespace aqp {
namespace join {

/// \brief SHJoin's per-operand hash table: join-attribute value →
/// tuples carrying it (Fig. 3, left).
///
/// Two structural choices keep the hot insert/probe path allocation-
/// free and cache-friendly:
///
/// - Buckets are intrusive chains, not per-key vectors: the table
///   stores only the most recent tuple id per key, and `prev_[id]`
///   links each indexed tuple to the previous one with the same key.
///   Equi-join buckets are tiny, so per-key vectors spent an allocation
///   on nearly every insert.
/// - The table itself is flat open addressing over (cached hash, head
///   id) slots, with key bytes *referenced from the TupleStore* rather
///   than copied: the store keeps every tuple anyway (§2.3), so the
///   chain head's join attribute IS the key. No node allocations, no
///   duplicate key strings, and rehashing never re-reads a string.
///
/// The index lags its TupleStore deliberately: the adaptive processor
/// only keeps the *live* structure current (§2.3, "the other lags
/// behind"), so insertion is expressed as catch-up to the store's
/// current size. The store bound by the first CatchUpWith() call must
/// be the one all later calls pass (checked by assert). `watermark()`
/// is the number of store tuples indexed so far.
class ExactIndex {
 public:
  /// Chain terminator / empty-slot marker.
  static constexpr storage::TupleId kNone =
      std::numeric_limits<storage::TupleId>::max();

  /// Indexes store tuples [watermark, store.size()); returns how many
  /// tuples were inserted (the switch-cost driver). Keys and their
  /// hashes are read from the store's interned-key records — catch-up
  /// never re-hashes or re-reads a std::string.
  size_t CatchUpWith(const storage::TupleStore& store);

  /// Un-indexes tuples [n, watermark()), newest first, leaving the
  /// index exactly as if it had only caught up to `n` (same chains,
  /// same distinct keys). Must run before the bound store drops those
  /// tuples: their keys are read back from it. No-op when n >=
  /// watermark().
  void RollbackTo(size_t n);

  /// Most recently indexed tuple whose join attribute equals `key`, or
  /// kNone. Walk the full bucket with ChainPrev():
  ///
  /// \code
  ///   for (TupleId id = index.ChainHead(key); id != ExactIndex::kNone;
  ///        id = index.ChainPrev(id)) { ... }  // descending id order
  /// \endcode
  storage::TupleId ChainHead(std::string_view key) const {
    return ChainHead(key, Fnv1a64(key));
  }

  /// Hash-carrying overload for probes whose key hash is already
  /// cached (the probing tuple's own store computed it at Add time).
  storage::TupleId ChainHead(std::string_view key, uint64_t hash) const;

  /// Previously indexed tuple with the same key as `id` (which must be
  /// indexed, i.e. id < watermark()), or kNone.
  storage::TupleId ChainPrev(storage::TupleId id) const { return prev_[id]; }

  /// All indexed tuples whose join attribute equals `key`, oldest
  /// first. Allocates; tests and diagnostics only — the hot probe path
  /// walks the chain in place.
  std::vector<storage::TupleId> Lookup(std::string_view key) const;

  /// Number of store tuples indexed so far.
  size_t watermark() const { return watermark_; }

  /// Number of distinct join-attribute values.
  size_t distinct_keys() const { return keys_; }

  /// Average bucket length B_ex (Table 1's cost parameter).
  double AverageBucketLength() const;

  /// Rough heap footprint in bytes (§2.3: n · p plus the slot array;
  /// key bytes live in the TupleStore and are not double-counted).
  size_t ApproximateMemoryUsage() const;

 private:
  struct Slot {
    uint64_t hash = 0;
    storage::TupleId head = kNone;
  };

  /// Grows the slot array to at least `min_slots` (power of two) and
  /// re-places every occupied slot using its cached hash.
  void Rehash(size_t min_slots);

  /// Empties slot `i` by backward-shift deletion, so every key placed
  /// past it in its probe run stays reachable.
  void EraseSlot(size_t i);

  /// Slot index holding `key` (by hash then store-backed byte compare),
  /// or the empty slot where it would be inserted.
  size_t FindSlot(uint64_t hash, std::string_view key) const;

  std::vector<Slot> slots_;
  std::vector<storage::TupleId> prev_;
  const storage::TupleStore* store_ = nullptr;
  size_t keys_ = 0;
  size_t watermark_ = 0;
};

}  // namespace join
}  // namespace aqp

#endif  // AQP_JOIN_EXACT_INDEX_H_
