#include "util/arena.h"

#include <cassert>

namespace lsmlab {

namespace {
constexpr size_t kBlockSize = 4096;
}  // namespace

char* Arena::AllocateImpl(size_t bytes, size_t align) {
  assert(bytes > 0);
  assert((align & (align - 1)) == 0);
  Block* block = current_.load(std::memory_order_acquire);
  while (true) {
    if (block != nullptr) {
      size_t used = block->used.load(std::memory_order_relaxed);
      while (true) {
        // Block data is kAlign-aligned, so aligning the offset aligns the
        // address.
        const size_t start = (used + align - 1) & ~(align - 1);
        if (start + bytes > block->size) {
          break;
        }
        if (block->used.compare_exchange_weak(used, start + bytes,
                                              std::memory_order_relaxed)) {
          return block->data.get() + start;
        }
      }
    }

    MutexLock lock(&blocks_mu_);
    if (bytes > kBlockSize / 4) {
      // Large objects get their own block so the current block's
      // remainder is not wasted.
      return AllocateNewBlock(bytes, bytes)->data.get();
    }
    Block* const current = current_.load(std::memory_order_relaxed);
    if (current != block) {
      // Another thread refilled while we waited: bump its block instead.
      block = current;
      continue;
    }
    Block* fresh = AllocateNewBlock(kBlockSize, bytes);
    current_.store(fresh, std::memory_order_release);
    return fresh->data.get();
  }
}

Arena::Block* Arena::AllocateNewBlock(size_t block_bytes, size_t claimed) {
  Block* block = &blocks_.emplace_back(block_bytes, claimed);
  memory_usage_.fetch_add(block_bytes + sizeof(char*),
                          std::memory_order_relaxed);
  return block;
}

}  // namespace lsmlab
