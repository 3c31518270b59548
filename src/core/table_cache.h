#ifndef LSMLAB_CORE_TABLE_CACHE_H_
#define LSMLAB_CORE_TABLE_CACHE_H_

#include <memory>
#include <source_location>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/options.h"
#include "core/version.h"
#include "format/sstable_reader.h"
#include "obs/stats_registry.h"
#include "util/iterator.h"
#include "util/mutex.h"
#include "util/pin_tracker.h"

namespace lsmlab {

/// Keeps SSTable readers open and shared across the read path. Tables stay
/// open until their file is evicted (when the FileMetaData dies), matching
/// the "index/filter blocks pinned in memory" regime of tutorial §II-1.
///
/// Also owns the per-level TableOptions — in particular the per-level
/// FilterPolicy instances that realize uniform vs. Monkey filter-memory
/// allocation (tutorial §II-5).
class TableCache {
 public:
  /// `stats` is the DB's registry: the files range filters skip count in
  /// it, and so do the reads of compaction helpers that use this cache.
  TableCache(std::string dbname, const Options* options,
             const InternalKeyComparator* icmp, StatsRegistry* stats);
  ~TableCache();

  TableCache(const TableCache&) = delete;
  TableCache& operator=(const TableCache&) = delete;

  /// The database directory its tables live in, and the options and
  /// comparator they are read and built with.
  const std::string& dbname() const { return dbname_; }
  const Options& options() const { return *options_; }
  const InternalKeyComparator& icmp() const { return *icmp_; }
  /// The tickers reads through this cache count in.
  StatsRegistry* stats() const { return stats_; }

  /// Installs per-level filter bits/key (index = level), for tables
  /// opened or built from now on. Safe against concurrent
  /// TableOptionsForLevel/FindTable callers: Monkey re-derives the bits
  /// while readers open tables and background builds run.
  void ConfigureFilterBits(const std::vector<double>& bits_per_level)
      EXCLUDES(mu_);

  /// A copy of the current options for tables at `level`.
  TableOptions TableOptionsForLevel(int level) const EXCLUDES(mu_);

  /// Filter bits per key of tables built at `level` from now on (0 when
  /// they get no filter).
  double FilterBitsPerKey(int level) const EXCLUDES(mu_);

  /// Opens (or returns the cached) reader for `meta`, a table at `level`
  /// (a reader opens with that level's options). The out-param pins the
  /// reader; in debug builds the pin is tracked with the caller's source
  /// location, and destroying the TableCache while reader pins are still
  /// outstanding aborts with a per-site leak report.
  Status FindTable(const FileMetaData& meta, int level,
                   std::shared_ptr<SSTable>* table,
                   std::source_location loc = std::source_location::current());

  /// User keys [lo, hi], inclusive. The range and the bytes it views must
  /// outlive every iterator built over it.
  struct KeyRange {
    Slice lo;
    Slice hi;
  };
  /// One run's iterator: concatenation of `files` (tables at `level`),
  /// whose key ranges must strictly increase. Tables open lazily as the
  /// iterator reaches them; with `range`, a file its range filter proves
  /// empty is skipped. With `fill_cache` false, block-cache misses are not
  /// inserted (compaction inputs are read once and then deleted).
  /// The only reader of tables as a stream (tools/lint.sh check 10):
  /// scans and compactions both merge runs through it.
  Iterator* NewRunIterator(std::span<const FileMetaPtr> files, int level,
                           const KeyRange* range = nullptr,
                           bool fill_cache = true);

  /// Point lookup of sorted `keys` within one table (Get passes one key):
  /// resolves the reader handle once, pinned across the whole probe, and
  /// hands the keys to SSTable::MultiGet. A table that cannot be opened
  /// fails every key — they all needed it — through its ctx->status;
  /// filter rejections and per-block corruption are reported per key the
  /// same way.
  void GetBatch(const FileMetaData& meta, int level,
                std::span<BatchGetContext* const> keys, bool use_filter);

  /// Probes only the table's range filter.
  bool RangeMayMatch(const FileMetaData& meta, int level,
                     const Slice& lo_user, const Slice& hi_user);

  void Evict(uint64_t file_number);

  /// Total in-memory index+filter bytes across open tables.
  size_t IndexMemoryUsage() const;

 private:
  /// Iterator over the whole table at `level`; pins the file and reader.
  /// With `fill_cache` false its block-cache misses are not inserted.
  Iterator* NewIterator(const FileMetaPtr& file, int level, bool fill_cache);

  /// Debug builds: wraps the cached reader in a shared_ptr whose deleter
  /// unregisters the pin when the last copy handed to this caller dies.
  /// Release builds return `table` unchanged.
  std::shared_ptr<SSTable> TrackPin(const std::shared_ptr<SSTable>& table,
                                    const std::source_location& loc);

  const std::string dbname_;
  const Options* const options_;
  const InternalKeyComparator* const icmp_;
  StatsRegistry* const stats_;

  mutable Mutex mu_{LockRank::kTableCacheMu};
  std::vector<TableOptions> per_level_options_ GUARDED_BY(mu_);
  std::vector<double> filter_bits_ GUARDED_BY(mu_);  // per level
  /// Every filter policy ever installed: open tables keep pointers to the
  /// ones they were opened with, so a reconfiguration never frees any.
  std::vector<std::unique_ptr<const FilterPolicy>> owned_filters_
      GUARDED_BY(mu_);
  std::unordered_map<uint64_t, std::shared_ptr<SSTable>> tables_
      GUARDED_BY(mu_);
  PinTracker pin_tracker_{"TableCache reader pin"};
};

}  // namespace lsmlab

#endif  // LSMLAB_CORE_TABLE_CACHE_H_
