#ifndef LSMLAB_FORMAT_BLOCK_H_
#define LSMLAB_FORMAT_BLOCK_H_

#include <cstdint>
#include <memory>

#include "format/format.h"
#include "util/comparator.h"
#include "util/iterator.h"

namespace lsmlab {

/// Immutable, parsed view of one block (data, index, or meta).
///
/// Owns its bytes (moved in via BlockContents) so cached blocks are safe to
/// use after the producing table is closed.
class Block {
 public:
  explicit Block(BlockContents&& contents);
  ~Block() = default;

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  size_t size() const { return data_.size(); }

  /// Block iterators additionally support jumping straight to a restart
  /// group, which is how the hash-index fast path enters the block.
  class BlockIterator : public Iterator {
   public:
    /// Positions at the first entry of restart group `index`.
    virtual void SeekToRestart(uint32_t index) = 0;
  };

  BlockIterator* NewIterator(const Comparator* comparator) const;

  /// Outcome of probing the optional in-block hash index.
  enum class HashResult {
    kNoIndex,    ///< block has no hash index; use a normal Seek
    kAbsent,     ///< key definitively not in this block
    kCollision,  ///< bucket ambiguous; use a normal Seek
    kFound,      ///< key (if present) lives in restart group *restart_index
  };

  /// Probes the hash index with Hash32(searchable key).
  HashResult HashLookup(uint32_t hash, uint32_t* restart_index) const;

  uint32_t num_restarts() const { return num_restarts_; }
  bool has_hash_index() const { return num_buckets_ > 0; }

 private:
  class Iter;

  const char* data_end() const { return data_.data() + entries_size_; }
  uint32_t RestartPoint(uint32_t index) const;

  /// Latches the block as unusable: empty entry region, no restarts, no
  /// hash index. Every trailer-driven size check funnels through here.
  void MarkMalformed();

  std::unique_ptr<char[]> owned_;
  Slice data_;             // full block bytes
  size_t entries_size_;    // bytes of entry region (before restart array)
  uint32_t num_restarts_;
  size_t restarts_offset_;  // offset of restart array
  size_t buckets_offset_;   // offset of hash buckets (if any)
  uint32_t num_buckets_;    // 0 when no hash index
  bool malformed_;
};

}  // namespace lsmlab

#endif  // LSMLAB_FORMAT_BLOCK_H_
