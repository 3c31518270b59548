#include "core/table_cache.h"

#include <algorithm>

#include "core/filename.h"
#include "filter/filter_policy.h"
#include "format/two_level_iterator.h"
#include "util/coding.h"

namespace lsmlab {

TableCache::TableCache(std::string dbname, const Options* options,
                       const InternalKeyComparator* icmp, StatsRegistry* stats)
    : dbname_(std::move(dbname)),
      options_(options),
      icmp_(icmp),
      stats_(stats) {
  // Default: uniform bits everywhere; ConfigureFilterBits overrides.
  std::vector<double> uniform(options_->max_levels,
                              options_->filter_bits_per_key);
  if (options_->filter_allocation == FilterAllocation::kNone) {
    std::fill(uniform.begin(), uniform.end(), 0.0);
  }
  ConfigureFilterBits(uniform);
}

TableCache::~TableCache() {
  // Debug builds: any reader pin handed out by FindTable that is still
  // alive here would dangle once tables_ is torn down — abort with the
  // acquisition sites instead.
  pin_tracker_.CheckNoLivePins();
}

std::shared_ptr<SSTable> TableCache::TrackPin(
    const std::shared_ptr<SSTable>& table, const std::source_location& loc) {
#ifndef NDEBUG
  pin_tracker_.Acquire(table.get(), loc);
  PinTracker* tracker = &pin_tracker_;
  // Aliasing wrapper: copies share one pin record; the deleter (which
  // runs when the last copy derived from this FindTable call dies)
  // unregisters the pin and only then lets go of the reader itself.
  return std::shared_ptr<SSTable>(table.get(),
                                  [tracker, inner = table](SSTable* p) mutable {
                                    tracker->Release(p);
                                    inner.reset();
                                  });
#else
  (void)loc;
  return table;
#endif
}

void TableCache::ConfigureFilterBits(
    const std::vector<double>& bits_per_level) {
  std::vector<double> filter_bits(options_->max_levels, 0.0);
  for (int level = 0; level < options_->max_levels; level++) {
    const double bits =
        level < static_cast<int>(bits_per_level.size())
            ? bits_per_level[level]
            : options_->filter_bits_per_key;
    if (bits > 0 &&
        options_->filter_allocation != FilterAllocation::kNone) {
      filter_bits[level] = bits;
    }
  }
  {
    // Policies are kept forever, so a call that changes no level's bits
    // (Monkey re-derives them on every flush and compaction) makes none.
    MutexLock lock(&mu_);
    if (filter_bits == filter_bits_) {
      return;
    }
  }
  std::vector<TableOptions> levels(options_->max_levels);
  std::vector<std::unique_ptr<const FilterPolicy>> policies;
  for (int level = 0; level < options_->max_levels; level++) {
    TableOptions& t = levels[level];
    t.comparator = icmp_;
    t.block_size = options_->block_size;
    t.block_restart_interval = options_->block_restart_interval;
    t.use_hash_index = options_->block_hash_index;
    t.partition_filters = options_->partition_filters;
    t.hash_index_util_ratio = options_->hash_index_util_ratio;
    t.index_type = options_->index_type;
    t.learned_index_epsilon = options_->learned_index_epsilon;
    t.searchable_key = [](const Slice& internal_key) {
      return ExtractUserKey(internal_key);
    };
    t.range_filter_policy = options_->range_filter_policy;
    if (filter_bits[level] > 0) {
      const FilterPolicy* policy =
          options_->filter_factory != nullptr
              ? options_->filter_factory(filter_bits[level])
              : NewBloomFilterPolicy(filter_bits[level]);
      policies.emplace_back(policy);
      t.filter_policy = policy;
    }
  }
  MutexLock lock(&mu_);
  per_level_options_.swap(levels);
  filter_bits_.swap(filter_bits);
  for (auto& policy : policies) {
    owned_filters_.push_back(std::move(policy));
  }
}

namespace {

/// Levels ultimately come off the manifest; clamp rather than index out of
/// bounds if a corrupt one slips past recovery validation.
size_t ClampLevel(int level, size_t levels) {
  return static_cast<size_t>(
      std::clamp(level, 0, static_cast<int>(levels) - 1));
}

}  // namespace

TableOptions TableCache::TableOptionsForLevel(int level) const {
  MutexLock lock(&mu_);
  return per_level_options_[ClampLevel(level, per_level_options_.size())];
}

double TableCache::FilterBitsPerKey(int level) const {
  MutexLock lock(&mu_);
  return filter_bits_[ClampLevel(level, filter_bits_.size())];
}

Status TableCache::FindTable(const FileMetaData& meta, int level,
                             std::shared_ptr<SSTable>* table,
                             std::source_location loc) {
  // Error paths must not leave a previously-resolved reader pinned in the
  // out-param: callers that reuse one shared_ptr across a loop (the batch
  // read path does) would otherwise keep the last table's handle — and its
  // open file — alive past Evict for as long as the loop variable lives.
  table->reset();
  {
    // One open per table: readers that miss while another opens it wait
    // for that open, so the index and filter are read once, whichever
    // threads ask.
    MutexLock lock(&mu_);
    while (true) {
      auto it = tables_.find(meta.number);
      if (it != tables_.end()) {
        *table = TrackPin(it->second, loc);
        return Status::OK();
      }
      if (opening_.insert(meta.number).second) {
        break;
      }
      opened_cv_.Wait();
    }
  }

  std::unique_ptr<RandomAccessFile> file;
  const std::string fname = TableFileName(dbname_, meta.number);
  // batch-io-ok: one open per table, amortized across every key probing it.
  Status s = options_->env->NewRandomAccessFile(fname, &file);
  std::unique_ptr<SSTable> t;
  if (s.ok()) {
    s = SSTable::Open(TableOptionsForLevel(level), std::move(file),
                      meta.file_size, meta.number, options_->block_cache, &t);
  }
  MutexLock lock(&mu_);
  opening_.erase(meta.number);
  opened_cv_.SignalAll();
  if (!s.ok()) {
    return s;
  }
  auto [it, inserted] = tables_.emplace(meta.number, std::move(t));
  *table = TrackPin(it->second, loc);
  return Status::OK();
}

namespace {

/// Pins the reader (and its file metadata) for the iterator's lifetime.
class TableIterator : public Iterator {
 public:
  TableIterator(Iterator* iter, std::shared_ptr<SSTable> table,
                FileMetaPtr file)
      : iter_(iter), table_(std::move(table)), file_(std::move(file)) {}

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
  std::unique_ptr<Iterator> iter_;
  std::shared_ptr<SSTable> table_;
  FileMetaPtr file_;
};

}  // namespace

Iterator* TableCache::NewIterator(const FileMetaPtr& file, int level,
                                  bool fill_cache) {
  std::shared_ptr<SSTable> table;
  Status s = FindTable(*file, level, &table);
  if (!s.ok()) {
    return NewEmptyIterator(s);
  }
  Iterator* iter = table->NewIterator(fill_cache);
  return new TableIterator(iter, std::move(table), file);
}

Iterator* TableCache::NewRunIterator(std::span<const FileMetaPtr> run_files,
                                     int level, const KeyRange* range,
                                     bool fill_cache) {
  if (run_files.size() == 1 && range == nullptr) {
    return NewIterator(run_files[0], level, fill_cache);
  }
  // Index iterator over the run's files: key = largest internal key of the
  // file, value = index into a pinned copy of the file list.
  auto files = std::make_shared<std::vector<FileMetaPtr>>(run_files.begin(),
                                                          run_files.end());

  class RunFileIndexIterator : public Iterator {
   public:
    explicit RunFileIndexIterator(
        std::shared_ptr<std::vector<FileMetaPtr>> files,
        const InternalKeyComparator* icmp)
        : files_(std::move(files)), icmp_(icmp), pos_(files_->size()) {}

    bool Valid() const override { return pos_ < files_->size(); }
    void SeekToFirst() override { pos_ = 0; }
    void SeekToLast() override {
      pos_ = files_->empty() ? 0 : files_->size() - 1;
    }
    void Seek(const Slice& target) override {
      // The files from the first whose largest key is not below target.
      pos_ = files_->size() - FenceSearch(*files_, *icmp_, &target, nullptr,
                                          false, /*internal_keys=*/true)
                                  .size();
    }
    void Next() override { pos_++; }
    void Prev() override { pos_ = pos_ == 0 ? files_->size() : pos_ - 1; }
    Slice key() const override { return Slice((*files_)[pos_]->largest); }
    Slice value() const override {
      buf_.clear();
      PutFixed64(&buf_, pos_);
      return Slice(buf_);
    }
    Status status() const override { return Status::OK(); }

   private:
    std::shared_ptr<std::vector<FileMetaPtr>> files_;
    const InternalKeyComparator* icmp_;
    size_t pos_;
    mutable std::string buf_;
  };

  return NewTwoLevelIterator(
      new RunFileIndexIterator(files, icmp_),
      [this, files, level, range,
       fill_cache](const Slice& index_value) -> Iterator* {
        const FileMetaPtr& file =
            (*files)[DecodeFixed64(index_value.data())];
        // Range filters are asked only once the read reaches the file
        // (tutorial §II-3); a proven-empty file is never read for data.
        if (range != nullptr &&
            !RangeMayMatch(*file, level, range->lo, range->hi)) {
          stats_->Add(Ticker::kRangeFilterSkips);
          return NewEmptyIterator();
        }
        return NewIterator(file, level, fill_cache);
      });
}

void TableCache::GetBatch(const FileMetaData& meta, int level,
                          std::span<BatchGetContext* const> keys,
                          bool use_filter) {
  std::shared_ptr<SSTable> table;  // pinned until the whole probe is done
  Status s = FindTable(meta, level, &table);
  if (!s.ok()) {
    for (BatchGetContext* ctx : keys) {
      ctx->filter_pruned = false;
      ctx->status = s;
    }
    return;
  }
  table->MultiGet(keys, use_filter);
}

bool TableCache::RangeMayMatch(const FileMetaData& meta, int level,
                               const Slice& lo_user, const Slice& hi_user) {
  std::shared_ptr<SSTable> table;
  Status s = FindTable(meta, level, &table);
  if (!s.ok()) {
    return true;  // cannot prove emptiness
  }
  return table->RangeMayMatch(lo_user, hi_user);
}

void TableCache::Evict(uint64_t file_number) {
  MutexLock lock(&mu_);
  tables_.erase(file_number);
}

size_t TableCache::IndexMemoryUsage() const {
  size_t total = 0;
  MutexLock lock(&mu_);
  for (const auto& [number, table] : tables_) {
    total += table->IndexMemoryUsage();
  }
  return total;
}

}  // namespace lsmlab
