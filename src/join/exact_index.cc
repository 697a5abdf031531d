#include "join/exact_index.h"

#include <algorithm>
#include <cassert>

namespace aqp {
namespace join {
namespace {

/// Smallest table for which probing stays short; must be a power of 2.
constexpr size_t kMinSlots = 16;
/// Grow when keys exceed 7/8 of... conservatively, 3/4 of the slots.
constexpr size_t kLoadNum = 3;
constexpr size_t kLoadDen = 4;

}  // namespace

size_t ExactIndex::FindSlot(uint64_t hash, std::string_view key) const {
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(hash) & mask;
  while (true) {
    const Slot& slot = slots_[i];
    if (slot.head == kNone) return i;
    if (slot.hash == hash && store_->JoinKey(slot.head) == key) return i;
    i = (i + 1) & mask;
  }
}

void ExactIndex::Rehash(size_t min_slots) {
  size_t n = kMinSlots;
  while (n < min_slots) n <<= 1;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(n, Slot{});
  const size_t mask = n - 1;
  for (const Slot& slot : old) {
    if (slot.head == kNone) continue;
    size_t i = static_cast<size_t>(slot.hash) & mask;
    while (slots_[i].head != kNone) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

size_t ExactIndex::CatchUpWith(const storage::TupleStore& store) {
  assert((store_ == nullptr || store_ == &store) &&
         "ExactIndex is bound to one TupleStore");
  store_ = &store;
  const size_t target = store.size();
  size_t inserted = 0;
  prev_.resize(target, kNone);
  // Upper bound on the slots the new keys can need, applied up front so
  // bulk catch-up (switch points insert long runs) rehashes once.
  if (slots_.size() * kLoadNum < (keys_ + (target - watermark_)) * kLoadDen) {
    Rehash(((keys_ + (target - watermark_)) * kLoadDen) / kLoadNum + 1);
  }
  for (size_t i = watermark_; i < target; ++i) {
    const auto id = static_cast<storage::TupleId>(i);
    // Both the key view and its hash were computed once at Add() time;
    // catch-up is pure table maintenance.
    const std::string_view key = store.JoinKey(id);
    const uint64_t hash = store.KeyHash(id);
    const size_t slot_index = FindSlot(hash, key);
    Slot& slot = slots_[slot_index];
    if (slot.head == kNone) {
      slot.hash = hash;
      slot.head = id;
      ++keys_;
    } else {
      prev_[i] = slot.head;
      slot.head = id;
    }
    ++inserted;
  }
  watermark_ = target;
  return inserted;
}

void ExactIndex::EraseSlot(size_t i) {
  const size_t mask = slots_.size() - 1;
  size_t j = i;
  while (true) {
    j = (j + 1) & mask;
    if (slots_[j].head == kNone) break;
    // Slot j stays put iff its home lies cyclically in (i, j].
    const size_t home = static_cast<size_t>(slots_[j].hash) & mask;
    const bool stays = i <= j ? (i < home && home <= j)
                              : (i < home || home <= j);
    if (!stays) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = Slot{};
}

void ExactIndex::RollbackTo(size_t n) {
  if (n >= watermark_) return;
  for (size_t i = watermark_; i-- > n;) {
    const auto id = static_cast<storage::TupleId>(i);
    const size_t slot_index =
        FindSlot(store_->KeyHash(id), store_->JoinKey(id));
    assert(slots_[slot_index].head == id && "rollback must run newest first");
    if (prev_[i] != kNone) {
      slots_[slot_index].head = prev_[i];
    } else {
      EraseSlot(slot_index);
      --keys_;
    }
  }
  prev_.resize(n);
  watermark_ = n;
}

storage::TupleId ExactIndex::ChainHead(std::string_view key,
                                       uint64_t hash) const {
  if (keys_ == 0) return kNone;
  return slots_[FindSlot(hash, key)].head;
}

std::vector<storage::TupleId> ExactIndex::Lookup(std::string_view key) const {
  std::vector<storage::TupleId> out;
  for (storage::TupleId id = ChainHead(key); id != kNone;
       id = ChainPrev(id)) {
    out.push_back(id);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

double ExactIndex::AverageBucketLength() const {
  if (keys_ == 0) return 0.0;
  return static_cast<double>(watermark_) / static_cast<double>(keys_);
}

size_t ExactIndex::ApproximateMemoryUsage() const {
  return slots_.capacity() * sizeof(Slot) +
         prev_.capacity() * sizeof(storage::TupleId);
}

}  // namespace join
}  // namespace aqp
