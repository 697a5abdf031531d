#ifndef AQP_STORAGE_KEY_ARENA_H_
#define AQP_STORAGE_KEY_ARENA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace aqp {
namespace storage {

/// \brief Append-only byte arena for interned join keys.
///
/// Keys are copied once into fixed-size chunks and addressed by a
/// logical 64-bit offset (chunk index in the high bits, byte position
/// in the low bits). Chunks are heap blocks that never move, so the
/// string_views handed out by View() stay valid for the arena's whole
/// lifetime — growth allocates new chunks instead of relocating old
/// bytes. This is the stability guarantee the store-backed indexes
/// rely on (§2.3: key bytes live exactly once, referenced by id).
///
/// A key never spans chunks; interning a key that does not fit in the
/// current chunk's tail starts a new chunk (the tail bytes are wasted,
/// bounded by one max-length key per chunk). Keys longer than a whole
/// chunk go to an overflow list of individually allocated strings.
class KeyArena {
 public:
  KeyArena() = default;

  /// Views into the arena alias its chunks; copying would silently
  /// invalidate none of them but duplicate every byte, so forbid it.
  KeyArena(const KeyArena&) = delete;
  KeyArena& operator=(const KeyArena&) = delete;
  KeyArena(KeyArena&&) noexcept = default;
  KeyArena& operator=(KeyArena&&) noexcept = default;

  /// Copies `bytes` into the arena, returning the logical offset to
  /// pass to View(). The caller keeps the length.
  uint64_t Intern(std::string_view bytes);

  /// Drops the most recently interned key, which must be the one at
  /// `offset` with length `len` (keys are dropped last-in, first-out).
  /// Views of the keys still interned stay valid.
  void Unintern(uint64_t offset, uint32_t len);

  /// The interned bytes at `offset` (must come from Intern, paired
  /// with the length passed to it). Valid for the arena's lifetime.
  std::string_view View(uint64_t offset, uint32_t len) const {
    if (offset & kOverflowBit) {
      return std::string_view(overflow_[offset & ~kOverflowBit].data(), len);
    }
    return std::string_view(
        chunks_[offset >> kChunkShift].get() + (offset & (kChunkBytes - 1)),
        len);
  }

  /// Total payload bytes interned so far (excludes chunk slack).
  size_t payload_bytes() const { return payload_bytes_; }

  /// Heap footprint in bytes: whole chunks plus overflow allocations.
  size_t ApproximateMemoryUsage() const;

 private:
  static constexpr size_t kChunkShift = 16;  // 64 KiB chunks
  static constexpr size_t kChunkBytes = size_t{1} << kChunkShift;
  static constexpr uint64_t kOverflowBit = uint64_t{1} << 63;

  std::vector<std::unique_ptr<char[]>> chunks_;
  size_t used_in_last_ = 0;
  /// Keys longer than a chunk, stored individually. std::string moves
  /// keep the heap buffer, so vector growth does not invalidate views.
  std::vector<std::string> overflow_;
  size_t payload_bytes_ = 0;
};

}  // namespace storage
}  // namespace aqp

#endif  // AQP_STORAGE_KEY_ARENA_H_
