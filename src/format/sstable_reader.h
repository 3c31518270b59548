#ifndef LSMLAB_FORMAT_SSTABLE_READER_H_
#define LSMLAB_FORMAT_SSTABLE_READER_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/block_cache.h"
#include "format/block.h"
#include "format/format.h"
#include "format/sstable_builder.h"
#include "format/table_options.h"
#include "index/plr.h"
#include "index/radix_spline.h"
#include "storage/env.h"
#include "util/iterator.h"

namespace lsmlab {

/// One key's state within a point lookup (DB::Get is a batch of one,
/// DB::MultiGet a batch of many). The same contexts travel through
/// TableCache::GetBatch and SSTable::MultiGet for every table the lookup
/// probes; the per-probe outputs (`filter_pruned`, `status`) are reset by
/// the callee at the start of each table.
struct BatchGetContext {
  // Inputs, set once per batch by the caller.
  Slice target;       ///< internal lookup key (user_key . seq/type tag)
  Slice searchable;   ///< user-key portion, for filters and hash indexes
  uint64_t hash = 0;  ///< Hash64(searchable), shared across all probes
  /// Invoked with the first entry >= target in the candidate block, at
  /// most once per table. A plain function pointer (not std::function) so a
  /// batch of hundreds of keys allocates nothing per key.
  void (*handler)(void* arg, const Slice& key, const Slice& value) = nullptr;
  void* arg = nullptr;

  // Per-table-probe outputs, reset by the callee.
  bool filter_pruned = false;  ///< a filter rejected this key: no block I/O
  Status status;               ///< failure confined to this key's block
};

/// Immutable reader over one SSTable file.
///
/// The index block (fence pointers), filter blocks, and properties are
/// loaded into memory at Open — the "lightweight structures pre-fetched to
/// memory" of tutorial §II-1. Data blocks are read on demand, optionally
/// through a shared BlockCache. With a learned index type, a PLR or radix
/// spline over the numeric fences replaces binary search for point lookups.
class SSTable {
 public:
  /// Opens a table. `file_number` keys the block cache (pass 0 with a null
  /// cache for standalone use). On success *table owns the file.
  static Status Open(const TableOptions& options,
                     std::unique_ptr<RandomAccessFile> file,
                     uint64_t file_size, uint64_t file_number,
                     BlockCache* block_cache, std::unique_ptr<SSTable>* table);

  ~SSTable();

  SSTable(const SSTable&) = delete;
  SSTable& operator=(const SSTable&) = delete;

  /// Ordered iterator over all entries. With `fill_cache` false, data
  /// blocks found in the block cache are used but missed ones are read
  /// into iterator-owned memory and never inserted (compaction inputs).
  Iterator* NewIterator(bool fill_cache = true) const;

  /// Probes the point filter with the searchable key. `hash` must be
  /// Hash64(searchable_key); it is reused across runs (shared hashing).
  /// Returns true when the table has no filter or the filter says "maybe".
  bool KeyMayMatch(const Slice& searchable_key, uint64_t hash) const;

  /// Probes the range filter with inclusive bounds over searchable keys.
  /// Returns true when the table has no range filter or it says "maybe".
  bool RangeMayMatch(const Slice& lo, const Slice& hi) const;

  /// The table's one point-lookup function. `keys` must be sorted by
  /// target (the keys one block serves are then contiguous). Per key: the
  /// point filter (when `use_filter`), then the learned model when the
  /// table trained one, else the fence pointers, to pick a data block; then
  /// that block's filter partition (when `use_filter`); then the block's
  /// hash index or a seek. The first entry >= target goes to the handler.
  ///
  /// Keys that share a data block share ONE block-cache lookup and at most
  /// ONE file read. A filter rejection sets `filter_pruned` before any
  /// data-block I/O; a corrupt or unreadable block sets `status` only on
  /// the keys it serves.
  void MultiGet(std::span<BatchGetContext* const> keys,
                bool use_filter) const;

  const TableProperties& properties() const { return props_; }
  uint64_t file_number() const { return file_number_; }

  /// Loads up to `budget_bytes` of data blocks (front to back) through the
  /// block cache — the Leaper-style re-warm after compaction (§II-1).
  /// No-op without a block cache. Returns bytes loaded.
  size_t PrefetchBlocks(size_t budget_bytes) const;

  /// Bytes of in-memory metadata (index + filters + learned model).
  size_t IndexMemoryUsage() const;

 private:
  SSTable(const TableOptions& options, uint64_t file_number,
          BlockCache* block_cache);

  Status ReadMeta(const Footer& footer);

  /// Returns an iterator over the data block named by an index-block value
  /// (encoded BlockHandle), reading through the block cache when present.
  Iterator* BlockReader(const Slice& index_value, bool fill_cache) const;

  /// Fetches (and pins/owns) the block at `handle`. On success *block
  /// points at a Block kept alive by *ref or *owned. `access_weight` is the
  /// number of keys this fetch serves (see BlockCache::Lookup). A miss is
  /// inserted into the block cache only when `fill_cache`.
  Status GetBlock(const BlockHandle& handle, BlockCache::Ref* ref,
                  std::shared_ptr<const Block>* owned, const Block** block,
                  uint64_t access_weight = 1, bool fill_cache = true) const;

  /// How a block was picked, which decides how keys are resolved in it.
  enum class BlockPick {
    kLearned,  ///< model pick: seek; running off the end retries via fences
    kFence,    ///< fence pick: hash index or seek; off the end = absent,
               ///< except after a hash-index restart scan (next block)
    kNext,     ///< the block after a hash scan ran off its end: seek only
  };

  /// One pass over sorted `keys` (skipping filter-pruned ones): locates each
  /// key's block by `pick`, probes that block's filter partition, and
  /// resolves every run of keys sharing a block with one fetch. Learned
  /// picks that run off their block are appended to *retry.
  void LookupPass(std::span<BatchGetContext* const> keys, BlockPick pick,
                  bool use_filter,
                  std::vector<BatchGetContext*>* retry) const;

  /// Resolves the keys in `group` (skipping pruned or failed ones) against
  /// the one data block at `handle`. Keys that need the next block are
  /// appended to *overflow.
  void LookupInBlock(const BlockHandle& handle,
                     std::span<BatchGetContext* const> group, BlockPick pick,
                     std::vector<BatchGetContext*>* overflow) const;

  /// Locates the data block that may hold `target` via the learned fence
  /// index. Returns false if the learned index is not available.
  bool LearnedFindBlock(const Slice& searchable, size_t* block_idx) const;

  /// Probes the filter partition of data block `ordinal` (true = maybe).
  bool PartitionMayMatch(size_t ordinal, uint64_t hash) const;
  bool has_partitioned_filter() const { return !partition_handles_.empty(); }

  TableOptions options_;
  uint64_t file_number_;
  uint64_t file_size_ = 0;  // bounds every untrusted BlockHandle
  BlockCache* block_cache_;
  std::unique_ptr<RandomAccessFile> file_;
  std::unique_ptr<Block> index_block_;
  std::string filter_data_;
  bool has_filter_ = false;
  std::string range_filter_data_;
  bool has_range_filter_ = false;
  TableProperties props_;

  // Partitioned filters (§II-2 [89]): one filter blob per data block,
  // fetched through the block cache on demand.
  std::vector<BlockHandle> partition_handles_;
  std::unordered_map<uint64_t, size_t> block_offset_to_ordinal_;
  uint64_t partition_hash_seed_ = 0;  // reserved

  // Learned fence index state (index_type != kBinarySearch).
  std::vector<uint64_t> fence_nums_;         // numeric fence per block
  std::vector<std::string> block_handles_;   // encoded handle per block
  std::unique_ptr<PiecewiseLinearModel> plr_;
  std::unique_ptr<RadixSpline> spline_;
};

}  // namespace lsmlab

#endif  // LSMLAB_FORMAT_SSTABLE_READER_H_
