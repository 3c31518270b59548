#include "format/sstable_reader.h"

#include <algorithm>

#include "filter/filter_policy.h"
#include "format/two_level_iterator.h"
#include "obs/perf_context.h"
#include "rangefilter/range_filter.h"
#include "util/coding.h"
#include "util/hash.h"

namespace lsmlab {

namespace {

/// First 8 bytes of `s`, big-endian, zero-padded: the numeric image of a
/// key used by the learned fence indexes.
uint64_t NumericKey(const Slice& s) {
  uint64_t v = 0;
  const size_t n = std::min<size_t>(8, s.size());
  for (size_t i = 0; i < n; i++) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(s[i]))
         << (8 * (7 - i));
  }
  return v;
}

/// Iterator over one data block that keeps the block alive via either a
/// cache pin or shared ownership.
class PinnedBlockIterator : public Iterator {
 public:
  PinnedBlockIterator(Block::BlockIterator* iter, BlockCache::Ref ref,
                      std::shared_ptr<const Block> owned)
      : iter_(iter), ref_(std::move(ref)), owned_(std::move(owned)) {}

  bool Valid() const override { return iter_->Valid(); }
  void SeekToFirst() override { iter_->SeekToFirst(); }
  void SeekToLast() override { iter_->SeekToLast(); }
  void Seek(const Slice& target) override { iter_->Seek(target); }
  void Next() override { iter_->Next(); }
  void Prev() override { iter_->Prev(); }
  Slice key() const override { return iter_->key(); }
  Slice value() const override { return iter_->value(); }
  Status status() const override { return iter_->status(); }

 private:
  std::unique_ptr<Block::BlockIterator> iter_;
  BlockCache::Ref ref_;
  std::shared_ptr<const Block> owned_;
};

}  // namespace

SSTable::SSTable(const TableOptions& options, uint64_t file_number,
                 BlockCache* block_cache)
    : options_(options), file_number_(file_number), block_cache_(block_cache) {}

SSTable::~SSTable() = default;

Status SSTable::Open(const TableOptions& options,
                     std::unique_ptr<RandomAccessFile> file,
                     uint64_t file_size, uint64_t file_number,
                     BlockCache* block_cache,
                     std::unique_ptr<SSTable>* table) {
  table->reset();
  if (file_size < Footer::kEncodedLength) {
    return Status::Corruption("file is too short to be an sstable");
  }

  char footer_space[Footer::kEncodedLength];
  Slice footer_input;
  Status s = file->Read(file_size - Footer::kEncodedLength,
                        Footer::kEncodedLength, &footer_input, footer_space);
  if (!s.ok()) {
    return s;
  }
  Footer footer;
  s = footer.DecodeFrom(&footer_input);
  if (!s.ok()) {
    return s;
  }

  std::unique_ptr<SSTable> t(new SSTable(options, file_number, block_cache));
  t->file_ = std::move(file);
  t->file_size_ = file_size;

  BlockContents index_contents;
  s = ReadBlock(t->file_.get(), file_size, footer.index_handle(),
                &index_contents);
  if (!s.ok()) {
    return s;
  }
  t->index_block_ = std::make_unique<Block>(std::move(index_contents));

  s = t->ReadMeta(footer);
  if (!s.ok()) {
    return s;
  }

  // Partitioned filters need the ordinal of a data block given its handle;
  // map block offsets to ordinals from the (memory-resident) index block.
  if (!t->partition_handles_.empty()) {
    std::unique_ptr<Iterator> it(
        t->index_block_->NewIterator(options.comparator));
    size_t ordinal = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next(), ordinal++) {
      Slice v = it->value();
      BlockHandle handle;
      if (handle.DecodeFrom(&v).ok()) {
        t->block_offset_to_ordinal_[handle.offset()] = ordinal;
      }
    }
    if (ordinal != t->partition_handles_.size()) {
      // Partition count must match data blocks; degrade to no filtering.
      t->partition_handles_.clear();
      t->block_offset_to_ordinal_.clear();
    }
  }

  // Train the learned fence index if requested. Falls back silently to
  // binary search when the fences are not strictly increasing numerically
  // (non-numeric keys truncated to equal 8-byte prefixes).
  if (options.index_type != TableOptions::IndexType::kBinarySearch) {
    std::unique_ptr<Iterator> it(
        t->index_block_->NewIterator(options.comparator));
    bool ok = true;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      const uint64_t num = NumericKey(options.SearchableKey(it->key()));
      if (!t->fence_nums_.empty() && num <= t->fence_nums_.back()) {
        ok = false;
        break;
      }
      t->fence_nums_.push_back(num);
      t->block_handles_.push_back(it->value().ToString());
    }
    if (ok && !t->fence_nums_.empty()) {
      if (options.index_type == TableOptions::IndexType::kLearnedPlr) {
        t->plr_ = std::make_unique<PiecewiseLinearModel>(
            options.learned_index_epsilon);
        for (uint64_t num : t->fence_nums_) {
          t->plr_->Add(num);
        }
        t->plr_->Finish();
      } else {
        t->spline_ = std::make_unique<RadixSpline>(
            options.learned_index_epsilon, /*radix_bits=*/12);
        for (uint64_t num : t->fence_nums_) {
          t->spline_->Add(num);
        }
        t->spline_->Finish();
      }
    } else {
      t->fence_nums_.clear();
      t->block_handles_.clear();
    }
  }

  *table = std::move(t);
  return Status::OK();
}

Status SSTable::ReadMeta(const Footer& footer) {
  BlockContents meta_contents;
  Status s = ReadBlock(file_.get(), file_size_, footer.metaindex_handle(),
                       &meta_contents);
  if (!s.ok()) {
    return s;
  }
  Block metaindex(std::move(meta_contents));
  std::unique_ptr<Iterator> it(metaindex.NewIterator(BytewiseComparator()));

  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    const std::string name = it->key().ToString();
    Slice handle_value = it->value();
    BlockHandle handle;
    if (!handle.DecodeFrom(&handle_value).ok()) {
      return Status::Corruption("bad metaindex handle for ", name);
    }
    BlockContents contents;
    if (name == "lsmlab.properties") {
      s = ReadBlock(file_.get(), file_size_, handle, &contents);
      if (!s.ok()) {
        return s;
      }
      s = props_.DecodeFrom(contents.data);
      if (!s.ok()) {
        return s;
      }
    } else if (options_.filter_policy != nullptr &&
               name == std::string("filter.") + options_.filter_policy->Name()) {
      s = ReadBlock(file_.get(), file_size_, handle, &contents);
      if (!s.ok()) {
        return s;
      }
      filter_data_ = contents.data.ToString();
      has_filter_ = true;
    } else if (options_.filter_policy != nullptr &&
               name == std::string("filterpartitions.") +
                           options_.filter_policy->Name()) {
      s = ReadBlock(file_.get(), file_size_, handle, &contents);
      if (!s.ok()) {
        return s;
      }
      Slice input = contents.data;
      uint32_t count;
      if (!GetVarint32(&input, &count)) {
        return Status::Corruption("bad filter partition index");
      }
      // Each encoded handle is at least two bytes; a count that could not
      // possibly fit in the remaining bytes is corruption, not a reserve()
      // of up to 4G entries.
      if (count > input.size() / 2) {
        return Status::Corruption("bad filter partition count");
      }
      partition_handles_.reserve(count);
      for (uint32_t i = 0; i < count; i++) {
        BlockHandle ph;
        if (!ph.DecodeFrom(&input).ok()) {
          return Status::Corruption("bad filter partition handle");
        }
        partition_handles_.push_back(ph);
      }
    } else if (options_.range_filter_policy != nullptr &&
               name == std::string("rangefilter.") +
                           options_.range_filter_policy->Name()) {
      s = ReadBlock(file_.get(), file_size_, handle, &contents);
      if (!s.ok()) {
        return s;
      }
      range_filter_data_ = contents.data.ToString();
      has_range_filter_ = true;
    }
    // Unknown meta blocks (or filters built with a different policy) are
    // skipped: the table degrades to filter-less reads.
  }
  return it->status();
}

Status SSTable::GetBlock(const BlockHandle& handle, BlockCache::Ref* ref,
                         std::shared_ptr<const Block>* owned,
                         const Block** block, uint64_t access_weight,
                         bool fill_cache) const {
  *block = nullptr;
  if (block_cache_ != nullptr) {
    *ref = block_cache_->Lookup(file_number_, handle.offset(), access_weight);
    if (*ref) {
      *block = ref->block();
      return Status::OK();
    }
  }
  BlockContents contents;
  Status s = ReadBlock(file_.get(), file_size_, handle, &contents);
  if (!s.ok()) {
    return s;
  }
  auto fresh = std::make_unique<const Block>(std::move(contents));
  if (block_cache_ != nullptr && fill_cache) {
    *ref = block_cache_->Insert(file_number_, handle.offset(),
                                std::move(fresh));
    *block = ref->block();
  } else {
    *owned = std::shared_ptr<const Block>(fresh.release());
    *block = owned->get();
  }
  return Status::OK();
}

Iterator* SSTable::BlockReader(const Slice& index_value,
                               bool fill_cache) const {
  Slice input = index_value;
  BlockHandle handle;
  Status s = handle.DecodeFrom(&input);
  if (!s.ok()) {
    return NewEmptyIterator(s);
  }
  BlockCache::Ref ref;
  std::shared_ptr<const Block> owned;
  const Block* block = nullptr;
  s = GetBlock(handle, &ref, &owned, &block, /*access_weight=*/1, fill_cache);
  if (!s.ok()) {
    return NewEmptyIterator(s);
  }
  return new PinnedBlockIterator(block->NewIterator(options_.comparator),
                                 std::move(ref), std::move(owned));
}

Iterator* SSTable::NewIterator(bool fill_cache) const {
  return NewTwoLevelIterator(
      index_block_->NewIterator(options_.comparator),
      [this, fill_cache](const Slice& index_value) {
        return BlockReader(index_value, fill_cache);
      });
}

bool SSTable::KeyMayMatch(const Slice& searchable_key, uint64_t hash) const {
  if (!has_filter_) {
    return true;
  }
  GetPerfContext()->filter_probe_count++;
  const FilterPolicy* policy = options_.filter_policy;
  const bool maybe = policy->SupportsHashProbe()
                         ? policy->HashMayMatch(hash, Slice(filter_data_))
                         : policy->KeyMayMatch(searchable_key,
                                               Slice(filter_data_));
  if (!maybe) {
    GetPerfContext()->filter_negative_count++;
  }
  return maybe;
}

bool SSTable::RangeMayMatch(const Slice& lo, const Slice& hi) const {
  if (!has_range_filter_) {
    return true;
  }
  GetPerfContext()->range_filter_probe_count++;
  const bool maybe = options_.range_filter_policy->RangeMayMatch(
      lo, hi, Slice(range_filter_data_));
  if (!maybe) {
    GetPerfContext()->range_filter_negative_count++;
  }
  return maybe;
}

bool SSTable::LearnedFindBlock(const Slice& searchable,
                               size_t* block_idx) const {
  if (fence_nums_.empty()) {
    return false;
  }
  const uint64_t num = NumericKey(searchable);
  size_t lo = 0;
  size_t hi = 0;
  if (plr_ != nullptr) {
    plr_->Lookup(num, &lo, &hi);
  } else if (spline_ != nullptr) {
    spline_->Lookup(num, &lo, &hi);
  } else {
    return false;
  }
  // Binary search for the first fence >= num inside [lo, hi]; widen to a
  // full search if the window was misleading (possible for keys that were
  // never fed to the model).
  auto begin = fence_nums_.begin() + lo;
  auto end = fence_nums_.begin() + std::min(hi + 1, fence_nums_.size());
  auto it = std::lower_bound(begin, end, num);
  bool trustworthy =
      (it != end || hi + 1 >= fence_nums_.size()) &&
      (it != begin || lo == 0);
  if (!trustworthy) {
    it = std::lower_bound(fence_nums_.begin(), fence_nums_.end(), num);
    if (it == fence_nums_.end()) {
      return false;  // beyond the last fence: key not in this table
    }
    *block_idx = static_cast<size_t>(it - fence_nums_.begin());
    return true;
  }
  if (it == fence_nums_.end()) {
    return false;  // beyond the last fence
  }
  *block_idx = static_cast<size_t>(it - fence_nums_.begin());
  return true;
}

bool SSTable::PartitionMayMatch(size_t ordinal, uint64_t hash) const {
  if (ordinal >= partition_handles_.size()) {
    return true;
  }
  BlockCache::Ref ref;
  std::shared_ptr<const Block> owned;
  const Block* block = nullptr;
  if (!GetBlock(partition_handles_[ordinal], &ref, &owned, &block).ok()) {
    return true;  // unreadable partition: never reject
  }
  std::unique_ptr<Iterator> it(block->NewIterator(BytewiseComparator()));
  it->SeekToFirst();
  if (!it->Valid()) {
    return true;
  }
  const Slice blob = it->value();
  const FilterPolicy* policy = options_.filter_policy;
  if (policy == nullptr) {
    return true;
  }
  GetPerfContext()->filter_probe_count++;
  const bool maybe = policy->HashMayMatch(hash, blob);
  if (!maybe) {
    GetPerfContext()->filter_negative_count++;
  }
  return maybe;
}

void SSTable::MultiGet(std::span<BatchGetContext* const> keys,
                       bool use_filter) const {
  // The point filter goes first: one probe per key, before any index work
  // or data-block I/O.
  size_t survivors = 0;
  for (BatchGetContext* ctx : keys) {
    ctx->filter_pruned =
        use_filter && !KeyMayMatch(ctx->searchable, ctx->hash);
    ctx->status = Status::OK();
    survivors += ctx->filter_pruned ? 0 : 1;
  }
  if (survivors == 0) {
    return;
  }
  if (plr_ == nullptr && spline_ == nullptr) {
    LookupPass(keys, BlockPick::kFence, use_filter, nullptr);
    return;
  }
  // Numeric tie-breaking can pick a block one too early (a user key's
  // versions straddling a boundary, or keys sharing an 8-byte prefix); a
  // key that runs off the end of its pick retries through the fences.
  std::vector<BatchGetContext*> retry;
  LookupPass(keys, BlockPick::kLearned, use_filter, &retry);
  if (!retry.empty()) {
    LookupPass(retry, BlockPick::kFence, use_filter, nullptr);
  }
}

void SSTable::LookupPass(std::span<BatchGetContext* const> keys,
                         BlockPick pick, bool use_filter,
                         std::vector<BatchGetContext*>* retry) const {
  std::unique_ptr<Iterator> index_iter;
  if (pick == BlockPick::kFence) {
    index_iter.reset(index_block_->NewIterator(options_.comparator));
  }
  // Keys are sorted, so the keys one block serves are contiguous: the open
  // group is keys[begin, i), all located at `group_handle` (minus the ones
  // pruned or failed on the way, which LookupInBlock skips).
  bool open = false;
  size_t begin = 0;
  BlockHandle group_handle;
  std::vector<BatchGetContext*> overflow;
  auto close = [&](size_t end) {
    if (!open) {
      return;
    }
    open = false;
    LookupInBlock(group_handle, keys.subspan(begin, end - begin), pick,
                  pick == BlockPick::kLearned ? retry : &overflow);
    if (overflow.empty()) {
      return;
    }
    // A hash-index restart scan ran off the end of the block: the first
    // entry >= target, if any, starts the next block.
    index_iter->Seek(overflow.front()->target);
    index_iter->Next();
    if (index_iter->Valid()) {
      Slice next_value = index_iter->value();
      BlockHandle next;
      Status s = next.DecodeFrom(&next_value);
      if (s.ok()) {
        LookupInBlock(next, overflow, BlockPick::kNext, nullptr);
      } else {
        for (BatchGetContext* ctx : overflow) {
          ctx->status = s;
        }
      }
    }
    overflow.clear();
  };

  for (size_t i = 0; i < keys.size(); i++) {
    BatchGetContext* ctx = keys[i];
    if (ctx->filter_pruned) {
      continue;
    }
    BlockHandle handle;
    Status s;
    size_t ordinal = partition_handles_.size();  // "no partition"
    if (pick == BlockPick::kLearned) {
      size_t block_idx;
      if (!LearnedFindBlock(ctx->searchable, &block_idx)) {
        close(i);  // beyond the last fence: absent from this table
        continue;
      }
      GetPerfContext()->learned_index_seek_count++;
      ordinal = block_idx;
      Slice handle_value(block_handles_[block_idx]);
      s = handle.DecodeFrom(&handle_value);
    } else {
      GetPerfContext()->index_seek_count++;
      index_iter->Seek(ctx->target);
      if (!index_iter->Valid()) {
        // Past the last fence (absent from this table), or a corrupt index:
        // either way the iterator's status is this key's answer.
        ctx->status = index_iter->status();
        close(i);
        continue;
      }
      Slice handle_value = index_iter->value();
      s = handle.DecodeFrom(&handle_value);
      if (s.ok() && use_filter && has_partitioned_filter()) {
        auto ord = block_offset_to_ordinal_.find(handle.offset());
        if (ord != block_offset_to_ordinal_.end()) {
          ordinal = ord->second;
        }
      }
    }
    if (!s.ok()) {
      ctx->status = s;
      continue;
    }
    // Partitioned filter (§II-2 [89]): reject before paying for the block.
    if (use_filter && has_partitioned_filter() &&
        !PartitionMayMatch(ordinal, ctx->hash)) {
      ctx->filter_pruned = true;
      continue;
    }
    if (open && handle.offset() == group_handle.offset()) {
      continue;  // joins the open group
    }
    close(i);
    open = true;
    begin = i;
    group_handle = handle;
  }
  close(keys.size());
}

void SSTable::LookupInBlock(const BlockHandle& handle,
                            std::span<BatchGetContext* const> group,
                            BlockPick pick,
                            std::vector<BatchGetContext*>* overflow) const {
  auto member = [](const BatchGetContext* ctx) {
    return !ctx->filter_pruned && ctx->status.ok();
  };
  const size_t members =
      static_cast<size_t>(std::count_if(group.begin(), group.end(), member));
  BlockCache::Ref ref;
  std::shared_ptr<const Block> owned;
  const Block* block = nullptr;
  Status s = GetBlock(handle, &ref, &owned, &block,
                      /*access_weight=*/members);
  if (!s.ok()) {
    // Corruption contract: a bad block fails only the keys it serves; the
    // rest of the batch is untouched.
    for (BatchGetContext* ctx : group) {
      if (member(ctx)) {
        ctx->status = s;
      }
    }
    return;
  }
  // Every key past the first rides a block another key already paid for.
  GetPerfContext()->multiget_coalesced_block_hits += members - 1;
  std::unique_ptr<Block::BlockIterator> iter(
      block->NewIterator(options_.comparator));
  // The in-block hash index (tutorial §II-4) serves fence picks only: a
  // learned pick may be a block early, where hash absence proves nothing.
  const bool hashed = pick == BlockPick::kFence && block->has_hash_index();
  for (BatchGetContext* ctx : group) {
    if (!member(ctx)) {
      continue;
    }
    bool scanned = false;
    uint32_t restart;
    switch (hashed ? block->HashLookup(Hash32(ctx->searchable), &restart)
                   : Block::HashResult::kNoIndex) {
      case Block::HashResult::kAbsent:
        GetPerfContext()->hash_index_absent_count++;
        continue;
      case Block::HashResult::kFound:
        // The restart group of the newest version of the user key: scan to
        // the first entry >= target.
        GetPerfContext()->hash_index_hit_count++;
        iter->SeekToRestart(restart);
        while (iter->Valid() &&
               options_.comparator->Compare(iter->key(), ctx->target) < 0) {
          iter->Next();
        }
        scanned = true;
        break;
      case Block::HashResult::kCollision:
      case Block::HashResult::kNoIndex:
        iter->Seek(ctx->target);
        break;
    }
    if (iter->Valid()) {
      ctx->handler(ctx->arg, iter->key(), iter->value());
    } else if (!iter->status().ok()) {
      ctx->status = iter->status();
    } else if (pick == BlockPick::kLearned || scanned) {
      overflow->push_back(ctx);
    }
    // Otherwise (a seek after a fence pick) the next block starts past the
    // fence, under a later user key: absent.
  }
}

size_t SSTable::PrefetchBlocks(size_t budget_bytes) const {
  if (block_cache_ == nullptr) {
    return 0;
  }
  size_t loaded = 0;
  std::unique_ptr<Iterator> index_iter(
      index_block_->NewIterator(options_.comparator));
  for (index_iter->SeekToFirst();
       index_iter->Valid() && loaded < budget_bytes; index_iter->Next()) {
    Slice handle_value = index_iter->value();
    BlockHandle handle;
    if (!handle.DecodeFrom(&handle_value).ok()) {
      break;
    }
    BlockCache::Ref ref;
    std::shared_ptr<const Block> owned;
    const Block* block = nullptr;
    if (!GetBlock(handle, &ref, &owned, &block).ok()) {
      break;
    }
    loaded += static_cast<size_t>(handle.size());
  }
  return loaded;
}

size_t SSTable::IndexMemoryUsage() const {
  size_t total = index_block_->size() + filter_data_.size() +
                 range_filter_data_.size();
  total += fence_nums_.capacity() * sizeof(uint64_t);
  for (const auto& h : block_handles_) {
    total += h.capacity();
  }
  if (plr_ != nullptr) {
    total += plr_->MemoryUsage();
  }
  if (spline_ != nullptr) {
    total += spline_->MemoryUsage();
  }
  return total;
}

}  // namespace lsmlab
