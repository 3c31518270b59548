#ifndef LSMLAB_CORE_DB_H_
#define LSMLAB_CORE_DB_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/dbformat.h"
#include "core/options.h"
#include "core/write_batch.h"
#include "util/iterator.h"
#include "util/slice.h"
#include "util/status.h"

namespace lsmlab {

/// An immutable view of the database at one point in time.
class Snapshot {
 public:
  virtual ~Snapshot() = default;
  virtual SequenceNumber sequence() const = 0;
};

/// Read-path and shape statistics; see DB::GetStats.
struct DBStats {
  // Shape.
  int num_levels = 0;
  int total_runs = 0;
  int total_files = 0;
  uint64_t total_bytes = 0;
  std::vector<int> runs_per_level;
  std::vector<uint64_t> bytes_per_level;

  // Write path.
  uint64_t bytes_flushed = 0;       ///< user data written by flushes
  uint64_t bytes_compacted = 0;     ///< bytes written by compactions
  uint64_t compactions = 0;
  uint64_t flushes = 0;
  /// Write amplification: (flushed + compacted) / flushed.
  double WriteAmplification() const {
    return bytes_flushed == 0
               ? 0.0
               : static_cast<double>(bytes_flushed + bytes_compacted) /
                     static_cast<double>(bytes_flushed);
  }

  // Group commit (see DESIGN.md "Group commit"). The registry reconciles
  // wal_syncs + wal_sync_skipped == group_commits (every group either
  // syncs or is counted as skipped), and — absent write errors —
  // group_commits + group_followers == writes.
  uint64_t writes = 0;             ///< DB::Write calls (each Put/Delete is one)
  uint64_t group_commits = 0;      ///< commit groups built by a leader
  uint64_t group_followers = 0;    ///< writers committed by someone else's group
  uint64_t wal_syncs = 0;          ///< group commits that synced the WAL
  uint64_t wal_sync_skipped = 0;   ///< group commits the policy left unsynced
  /// Value-log fsyncs, issued before a WAL fsync or a flush install
  /// while the value log holds unsynced values; none otherwise.
  uint64_t vlog_syncs = 0;
  // Memtable apply phase: parallel_applies + serial_applies ==
  // group_commits (each group takes exactly one apply path; see
  // Options::allow_concurrent_memtable_write).
  uint64_t parallel_applies = 0;    ///< groups applied by members concurrently
  uint64_t serial_applies = 0;      ///< groups applied by the leader serially
  uint64_t insert_cas_retries = 0;  ///< lost skiplist splice CASes
  /// Mean writers per commit group.
  double MeanWriteGroupSize() const {
    return group_commits == 0
               ? 0.0
               : static_cast<double>(group_commits + group_followers) /
                     static_cast<double>(group_commits);
  }

  // Write controller (background pipeline; see Options::l0_slowdown_trigger
  // and Options::l0_stop_trigger).
  uint64_t write_slowdowns = 0;        ///< writes delayed by the L0 trigger
  uint64_t write_stalls = 0;           ///< waits on flush/compaction backlog
  uint64_t write_slowdown_micros = 0;  ///< total delay injected into writers
  uint64_t write_stall_micros = 0;     ///< total time writers spent blocked

  // Read path.
  uint64_t gets = 0;
  uint64_t gets_found = 0;
  uint64_t memtable_hits = 0;
  uint64_t runs_probed = 0;            ///< runs consulted after filters
  uint64_t filter_skips = 0;           ///< runs skipped by point filters
  uint64_t range_filter_skips = 0;     ///< files skipped by range filters
  uint64_t hash_index_hits = 0;
  uint64_t hash_index_absent = 0;
  uint64_t learned_index_seeks = 0;
  size_t index_filter_memory = 0;      ///< bytes of in-memory metadata

  // Batched reads (DB::MultiGet).
  uint64_t multigets = 0;              ///< MultiGet batches
  uint64_t multiget_keys = 0;          ///< keys across all batches
  uint64_t multiget_filter_pruned = 0; ///< per-key probes filters rejected
  uint64_t multiget_coalesced_block_hits = 0;  ///< keys served by a block
                                               ///< another key already paid
                                               ///< for

  // Key-value separation.
  uint64_t value_log_bytes = 0;
  uint64_t value_log_files = 0;
  uint64_t separated_reads = 0;        ///< gets resolved through the vlog
};

/// A log-structured merge key-value store over an Env.
///
/// Concurrent readers are always safe against the writer. By default
/// flushes and compactions run inline on the writing thread, one writer at
/// a time (deterministic by design — the benchmark substrate). With
/// Options::background_compaction the same flush and compaction steps run
/// on a background thread instead: writers (any number; they serialize
/// internally) hand full memtables off and are paced by the L0
/// slowdown/stop triggers rather than doing the merge work themselves.
class DB {
 public:
  /// Opens (creating if needed) the database at `name`.
  static Status Open(const Options& options, const std::string& name,
                     std::unique_ptr<DB>* dbptr);

  virtual ~DB() = default;

  virtual Status Put(const WriteOptions& options, const Slice& key,
                     const Slice& value) = 0;
  virtual Status Delete(const WriteOptions& options, const Slice& key) = 0;
  virtual Status Write(const WriteOptions& options, WriteBatch* updates) = 0;

  virtual Status Get(const ReadOptions& options, const Slice& key,
                     std::string* value) = 0;

  /// Batched point lookup: resolves every key of `keys` against one
  /// consistent view of the database (one snapshot, one version pin for the
  /// whole batch). `values` and `statuses` are resized to keys.size();
  /// `(*statuses)[i]` is OK / NotFound / an error for `keys[i]` alone —
  /// a corrupt block fails only the keys it serves, the rest of the batch
  /// still resolves. Compared with looping Get, a batch probes each
  /// table's filter before any data-block I/O and fetches every distinct
  /// data block at most once no matter how many keys land in it.
  /// Duplicate keys are fine (each slot gets its own answer).
  virtual void MultiGet(const ReadOptions& options,
                        std::span<const Slice> keys,
                        std::vector<std::string>* values,
                        std::vector<Status>* statuses) = 0;

  /// Ordered iterator over the live user keys. The caller deletes it
  /// before the DB is destroyed.
  virtual Iterator* NewIterator(const ReadOptions& options) = 0;

  /// Collects up to `limit` entries with user keys in [start, end]
  /// (inclusive) by walking the iterator NewIterator builds. A file's
  /// range filter is asked only when the walk reaches the file, which it
  /// skips if the filter proves it empty (tutorial §II-3). A sharded scan
  /// walks the shards' merged iterators: about `limit` rows in total.
  virtual Status Scan(const ReadOptions& options, const Slice& start,
                      const Slice& end, size_t limit,
                      std::vector<std::pair<std::string, std::string>>*
                          results) = 0;

  virtual const Snapshot* GetSnapshot() = 0;
  virtual void ReleaseSnapshot(const Snapshot* snapshot) = 0;

  /// Flushes the memtable and runs compactions until the shape is stable.
  virtual Status CompactAll() = 0;

  /// Rewrites live separated values out of closed value-log segments,
  /// flushes so the rewritten values and their pointers are durable, and
  /// only then deletes the segments (WiscKey-style GC). Requires key-value
  /// separation to be enabled and no live snapshots. Assumes no concurrent
  /// writers: a value it re-puts can overwrite a newer write of the key.
  virtual Status GarbageCollectValues() = 0;
  /// Flushes the memtable to level 0 without compacting.
  virtual Status Flush() = 0;

  virtual DBStats GetStats() = 0;
  /// Exports one named introspection property into *value; returns false
  /// for unknown names. Known properties:
  ///   "lsmlab.stats"         — StatsRegistry dump: every ticker as a
  ///                            "ticker.<name>=<value>" line, then one
  ///                            summary line per phase histogram. The
  ///                            ticker fields of DBStats read the same
  ///                            registry, so the two always agree.
  ///   "lsmlab.perf-context"  — the calling thread's PerfContext
  ///                            (thread-local; reflects this thread's ops).
  ///   "lsmlab.io-stats"      — the Env's logical-I/O counters, and
  ///                            (MemEnv only) the bytes its files hold
  ///                            and their high-water mark.
  virtual bool GetProperty(const Slice& property, std::string* value) = 0;
  /// Human-readable levels/runs/files layout.
  virtual std::string DebugShape() = 0;
};

/// Deletes all files of the database at `name`. Use with care.
Status DestroyDB(const Options& options, const std::string& name);

}  // namespace lsmlab

#endif  // LSMLAB_CORE_DB_H_
