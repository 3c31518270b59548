#ifndef LSMLAB_UTIL_ARENA_H_
#define LSMLAB_UTIL_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>

#include "util/mutex.h"

namespace lsmlab {

/// Bump allocator backing the memtable skiplist.
///
/// Allocations are never individually freed; all memory is released when the
/// Arena is destroyed (which is when the memtable is dropped after a flush).
/// MemoryUsage() is what the engine compares against the write-buffer size
/// to decide when to flush.
///
/// Any number of threads may allocate at once. The bump state lives in the
/// current block: an allocation claims its bytes with a CAS on that block's
/// offset, and only a refill (the block is full) takes blocks_mu_. A thread
/// alone therefore fills each block to the same point whatever it did
/// before, and racing threads abandon no more than the one tail a refill
/// leaves behind.
class Arena {
 public:
  Arena() = default;
  ~Arena() = default;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns a pointer to a newly allocated block of `bytes` bytes.
  char* Allocate(size_t bytes) { return AllocateImpl(bytes, 1); }

  /// Allocate with the platform's pointer alignment (for node structs).
  char* AllocateAligned(size_t bytes) { return AllocateImpl(bytes, kAlign); }

  /// Total memory reserved by the arena (including block headroom).
  /// Relaxed atomic read; safe from any thread, including while
  /// allocations run.
  size_t MemoryUsage() const {
    return memory_usage_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kAlign =
      alignof(max_align_t) > 8 ? alignof(max_align_t) : 8;

  struct Block {
    Block(size_t n, size_t claimed)
        : data(std::make_unique<char[]>(n)), size(n), used(claimed) {}
    const std::unique_ptr<char[]> data;  // operator new[]: kAlign-aligned
    const size_t size;
    std::atomic<size_t> used;
  };

  char* AllocateImpl(size_t bytes, size_t align);
  /// Appends a block of `block_bytes` whose first `claimed` bytes are
  /// taken, and returns it.
  Block* AllocateNewBlock(size_t block_bytes, size_t claimed)
      REQUIRES(blocks_mu_);

  /// The block small allocations bump; replaced (never freed) on refill.
  std::atomic<Block*> current_{nullptr};
  Mutex blocks_mu_{LockRank::kArenaMu};
  std::deque<Block> blocks_ GUARDED_BY(blocks_mu_);
  std::atomic<size_t> memory_usage_{0};
};

}  // namespace lsmlab

#endif  // LSMLAB_UTIL_ARENA_H_
