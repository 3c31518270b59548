#ifndef LSMLAB_CORE_OPTIONS_H_
#define LSMLAB_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "format/table_options.h"
#include "memtable/memtable.h"
#include "util/comparator.h"

namespace lsmlab {

class Env;
class EventListener;
class FilterPolicy;
class RangeFilterPolicy;
class BlockCache;
class Snapshot;

/// The merge-policy axis of the LSM design space (tutorial I-2, III-1).
/// The three merging values are presets of one pick loop: each level from
/// 1 down is leveled (one run, fires on bytes, picks into it join its
/// run) or tiered (fires at size_ratio runs, picks into it add a fresh
/// run), and the preset says which. Level 0 fires at
/// level0_compaction_trigger runs under each of them.
enum class MergePolicy {
  /// Every level from 1 down is leveled. Read-optimized: O(L) runs.
  /// [O'Neil '96; LevelDB/RocksDB leveled]
  kLeveling,
  /// Every level is tiered. Write-optimized: O(L*T) runs. [Jagadish '97;
  /// Cassandra/RocksDB universal]
  kTiering,
  /// Every level is tiered except the largest populated one, which is
  /// leveled: most of the read benefit at most of the write savings.
  /// [Dostoevsky, Dayan '18]
  kLazyLeveling,
  /// No merging: drop the oldest run once total size exceeds the budget.
  /// [RocksDB FIFO]
  kFifo,
};

/// Which file a leveled partial compaction picks from the overflowing level
/// (tutorial I-2 "which file(s) to compact affects performance" [74, 76]).
/// Applies under kLeveling only; the other presets move whole levels.
enum class CompactionFilePicker {
  kRoundRobin,   ///< cycle through the level's key space
  kMinOverlap,   ///< file with least overlapping bytes in the next level
  kCold,         ///< file least recently read (via block-cache hotness)
  kOldest,       ///< file that reached the level first
  kWholeLevel,   ///< no partial compaction: merge the entire level
};

/// WAL durability policy applied by the group-commit leader (the only
/// code that touches the log file; see src/core/db_write.cc).
enum class WalSyncMode {
  /// Sync iff the group contains a writer with WriteOptions::sync. The
  /// classic contract: an acknowledged sync write survives a crash.
  kSyncEveryCommit,
  /// Sync on the first commit after wal_sync_interval_ms has elapsed
  /// since the previous sync. WriteOptions::sync still forces a sync for
  /// its group; an acknowledged non-sync write may be lost up to one
  /// interval back.
  kSyncIntervalMs,
  /// Sync once at least wal_sync_bytes of unsynced WAL have accumulated.
  /// WriteOptions::sync still forces a sync, as with kSyncIntervalMs.
  kSyncBytes,
};

/// How filter memory is spread across levels (tutorial §II-5).
enum class FilterAllocation {
  kUniform,  ///< same bits/key at every level (production default)
  kMonkey,   ///< exponentially fewer bits at deeper levels [Monkey, 18/19]
  kNone,     ///< no point filters
};

/// Options controls every axis of the LSM design space the tutorial
/// surveys. Defaults mirror a small leveled RocksDB.
struct Options {
  // --- Substrate ---------------------------------------------------------
  /// Storage environment. Defaults to the process-wide in-memory counting
  /// env from NewMemEnv() owned by the caller; required.
  Env* env = nullptr;
  const Comparator* comparator = BytewiseComparator();
  bool create_if_missing = true;

  // --- Shape (Module I) --------------------------------------------------
  MergePolicy merge_policy = MergePolicy::kLeveling;
  /// Size ratio T between adjacent levels (and max runs/level for tiering).
  int size_ratio = 10;
  /// Memory buffer capacity in bytes; a full buffer flushes to level 0.
  size_t write_buffer_size = 1 << 20;
  int max_levels = 8;
  /// Max bytes per SSTable file written by flushes/compactions.
  size_t max_file_size = 1 << 20;
  /// Level-0 flush runs that trigger a merge into level 1.
  int level0_compaction_trigger = 4;
  CompactionFilePicker file_picker = CompactionFilePicker::kWholeLevel;
  /// Read-triggered compaction (the trigger primitive of [76]; LevelDB's
  /// allowed_seeks): once this many point probes reach a file without
  /// finding their key, the file is compacted down so future lookups stop
  /// paying for it. 0 disables.
  uint64_t seek_compaction_threshold = 0;
  /// Max compactions executed inline per write (tutorial III-2
  /// [8, 51, 56]: pacing compaction work bounds write tail latency).
  /// 0 = drain fully after each write (lowest read cost, spiky writes).
  int max_compactions_per_write = 0;
  /// FIFO only: total size budget before the oldest run is dropped.
  uint64_t fifo_size_budget = 64 << 20;

  // --- Background write pipeline (III-2) ----------------------------------
  /// Run flushes and compactions on a background thread. A full memtable is
  /// frozen and handed off (writers continue into a fresh memtable + WAL),
  /// and compaction debt is repaid off the write path; the write controller
  /// below converts hard stalls into bounded slowdowns. Off = the same
  /// flush/compaction steps run on the writing thread (deterministic
  /// benchmarking).
  bool background_compaction = false;
  /// Background mode: L0 run count at which each write is delayed ~1ms so
  /// compaction can catch up before the stop trigger is hit. 0 disables.
  int l0_slowdown_trigger = 8;
  /// Background mode: L0 run count at which writers stall until compaction
  /// reduces the backlog. Effectively clamped to at least
  /// level0_compaction_trigger so the stall can always be relieved.
  int l0_stop_trigger = 12;

  // --- Sharding -----------------------------------------------------------
  /// Hash-partition the keyspace into this many independent shard
  /// instances behind one DB facade (see DESIGN.md "Sharding"). Each shard
  /// is a full engine — its own memtable, WAL, manifest, value log, and
  /// write controller — living under `<name>/shard-<k>`, so flushes and
  /// compactions from different shards proceed in parallel on a shared
  /// background pool. The shard count is fixed at creation (recorded in a
  /// SHARDS marker file); reopening with a different count fails rather
  /// than silently misrouting keys. 1 = the plain single-instance engine.
  /// Note: every other option applies per shard (each shard gets its own
  /// write_buffer_size, L0 triggers, etc.).
  int num_shards = 1;

  // --- Memtable (I-2, II-4) ----------------------------------------------
  MemTable::Rep memtable_rep = MemTable::Rep::kSkipList;
  /// Per-memtable hash index from user key to its newest entry. DB reads
  /// look up at last_sequence, so they take the ordered search; only
  /// kMaxSequenceNumber lookups take the O(1) path, i.e. direct MemTable
  /// users such as E13.
  bool memtable_hash_index = false;
  /// Parallel group apply: group-commit followers insert their own
  /// sub-batches into the memtable concurrently instead of waiting for
  /// the leader to insert the whole group alone. Applies to every
  /// memtable rep and with key-value separation (the memtable.
  /// parallel_applies / memtable.serial_applies tickers show which path
  /// ran). Readers are unaffected: last_sequence still publishes once per
  /// group, after every member's inserts land.
  bool allow_concurrent_memtable_write = false;

  // --- Point filters (II-2, II-5) ----------------------------------------
  FilterAllocation filter_allocation = FilterAllocation::kUniform;
  /// Average bits/key across the tree; Monkey redistributes this budget.
  double filter_bits_per_key = 10.0;
  /// Filter implementation factory; nullptr = standard Bloom. Receives the
  /// per-level bits/key and must return a new FilterPolicy (ownership
  /// passes to the DB).
  const FilterPolicy* (*filter_factory)(double bits_per_key) = nullptr;
  /// Per-data-block filter partitions cached on demand instead of one
  /// resident monolithic filter per table (§II-2 [89]).
  bool partition_filters = false;

  // --- Range filters (II-3) ----------------------------------------------
  /// Shared across levels; not owned. nullptr disables range filtering.
  const RangeFilterPolicy* range_filter_policy = nullptr;

  // --- Index (II-1, II-4) -------------------------------------------------
  TableOptions::IndexType index_type = TableOptions::IndexType::kBinarySearch;
  uint32_t learned_index_epsilon = 8;
  bool block_hash_index = false;
  double hash_index_util_ratio = 0.75;
  size_t block_size = 4096;
  int block_restart_interval = 16;

  // --- Caching (II-1) -----------------------------------------------------
  /// Shared block cache; not owned. nullptr disables caching.
  BlockCache* block_cache = nullptr;
  /// Leaper-style re-warm: after a compaction whose inputs were hot,
  /// prefetch the output files' blocks into the block cache (II-1, [90]).
  bool prefetch_after_compaction = false;
  /// Inputs are "hot" when their cached-block accesses exceed this.
  uint64_t prefetch_hotness_threshold = 16;
  /// Max bytes prefetched per compaction.
  size_t prefetch_budget_bytes = 1 << 20;

  // --- Key-value separation (I-2; WiscKey [53], HashKV [12]) --------------
  /// Values of at least this many bytes are stored in the value log; the
  /// tree keeps a small pointer. 0 disables separation.
  size_t value_separation_threshold = 0;
  /// Value-log segment size before rotating to a new file.
  size_t max_vlog_file_bytes = 4 << 20;

  // --- Durability ---------------------------------------------------------
  bool enable_wal = true;
  /// When the group-commit leader syncs the WAL (see DESIGN.md "Group
  /// commit" for the full durability matrix). A group containing any sync
  /// writer syncs once for all of them, in every mode. The interval/bytes
  /// modes additionally sync non-sync traffic on a time or unsynced-WAL-
  /// bytes policy, bounding how much of it a crash can lose.
  WalSyncMode wal_sync_mode = WalSyncMode::kSyncEveryCommit;
  /// kSyncIntervalMs: a policy-driven (non-forced) WAL sync happens at
  /// most once per this many milliseconds.
  uint64_t wal_sync_interval_ms = 50;
  /// kSyncBytes: sync once at least this many unsynced WAL bytes exist.
  uint64_t wal_sync_bytes = 1 << 20;
  /// Upper bound on the serialized size of one commit group. The leader
  /// stops claiming followers past this cap (and keeps small-leader groups
  /// near leader_size + 128 KiB so a tiny write is never stuck behind a
  /// megabyte of followers).
  size_t max_write_group_bytes = 1 << 20;

  // --- Observability ------------------------------------------------------
  /// Observers of flush/compaction/stall/file lifecycle events; see
  /// obs/event_listener.h for the delivery contract (callbacks never run
  /// with the DB mutex held). Shared: listeners may outlive the DB.
  std::vector<std::shared_ptr<EventListener>> listeners;
};

struct ReadOptions {
  /// nullptr reads the latest data; otherwise reads at the snapshot.
  const Snapshot* snapshot = nullptr;
  /// Let Get and MultiGet consult point filters, monolithic and
  /// partitioned (off to measure their benefit).
  bool use_filter = true;
};

struct WriteOptions {
  /// fsync the WAL before acknowledging (mem env: no-op).
  bool sync = false;
};

}  // namespace lsmlab

#endif  // LSMLAB_CORE_OPTIONS_H_
