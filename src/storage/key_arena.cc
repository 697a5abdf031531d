#include "storage/key_arena.h"

#include <cassert>
#include <cstring>

#include "common/failpoint.h"

namespace aqp {
namespace storage {

uint64_t KeyArena::Intern(std::string_view bytes) {
  // Simulated allocation failure (the arena grows here); throws, to be
  // contained at the nearest task/operator boundary.
  AQP_FAILPOINT_THROW(fail::site::kArenaAlloc);
  payload_bytes_ += bytes.size();
  if (bytes.size() > kChunkBytes) {
    overflow_.emplace_back(bytes);
    return kOverflowBit | static_cast<uint64_t>(overflow_.size() - 1);
  }
  if (chunks_.empty() || used_in_last_ + bytes.size() > kChunkBytes) {
    chunks_.push_back(std::make_unique<char[]>(kChunkBytes));
    used_in_last_ = 0;
  }
  const uint64_t offset =
      (static_cast<uint64_t>(chunks_.size() - 1) << kChunkShift) |
      static_cast<uint64_t>(used_in_last_);
  if (!bytes.empty()) {
    std::memcpy(chunks_.back().get() + used_in_last_, bytes.data(),
                bytes.size());
  }
  used_in_last_ += bytes.size();
  return offset;
}

void KeyArena::Unintern(uint64_t offset, uint32_t len) {
  payload_bytes_ -= len;
  if (offset & kOverflowBit) {
    assert((offset & ~kOverflowBit) + 1 == overflow_.size() &&
           "Unintern must drop the most recent key first");
    overflow_.pop_back();
    return;
  }
  // The key sat at the tail of its chunk: rewind the fill position
  // there and release any chunk started after it.
  chunks_.resize((offset >> kChunkShift) + 1);
  used_in_last_ = static_cast<size_t>(offset & (kChunkBytes - 1));
}

size_t KeyArena::ApproximateMemoryUsage() const {
  size_t bytes = chunks_.size() * kChunkBytes +
                 chunks_.capacity() * sizeof(chunks_[0]);
  for (const std::string& s : overflow_) bytes += s.capacity();
  bytes += overflow_.capacity() * sizeof(std::string);
  return bytes;
}

}  // namespace storage
}  // namespace aqp
