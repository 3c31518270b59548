#ifndef LSMLAB_CORE_SHARDED_DB_H_
#define LSMLAB_CORE_SHARDED_DB_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/db_impl.h"
#include "util/mutex.h"
#include "util/thread_pool.h"

namespace lsmlab {

/// Seed for the shard-routing hash. Deliberately distinct from the
/// default seed (0) used by table filters and block hash indexes: keys
/// that collide in a filter must not therefore pile onto one shard, and a
/// shard's key population must not bias its filters.
inline constexpr uint64_t kShardRouteSeed = 0x53484152445342ULL;  // "SHARDSB"

/// Which of `num_shards` shards owns `key`. Pure function of the key
/// bytes — stable across processes and reopens, which is what makes the
/// on-disk shard layout self-describing (plus the SHARDS marker below
/// guarding the shard count itself).
uint32_t ShardOfKey(const Slice& key, uint32_t num_shards);

/// Name of the marker file (directly under the DB root) recording the
/// shard count the database was created with. DB::Open refuses to open a
/// database whose marker disagrees with Options::num_shards — silently
/// rehashing the keyspace would strand every key on the wrong shard.
inline constexpr char kShardMarkerFile[] = "SHARDS";

/// The most shards one database may have, and so the largest count a
/// SHARDS marker may record: a longer digit run in a marker is corruption,
/// not a count to open or destroy that many shards by.
inline constexpr int kMaxShards = 4096;

/// The shard count `name`'s SHARDS marker records into *shards, 0 when
/// there is no marker. A count outside [1, kMaxShards] is Corruption.
/// CheckShardMarker and DestroyDB read the marker through it.
Status ReadShardMarker(Env* env, const std::string& name, int* shards);

/// Subdirectory holding shard `shard`'s files: "<dbname>/shard-<shard>".
std::string ShardPath(const std::string& dbname, int shard);

/// Creates/validates the SHARDS marker for opening `name` with
/// `options.num_shards` shards. Called by DB::Open for every shard count
/// (a plain single-instance open must also refuse a sharded directory).
Status CheckShardMarker(const Options& options, const std::string& name);

/// Hash-partitioned DB: a thin router over `num_shards` independent
/// DBImpl instances, one per key-space partition (see DESIGN.md
/// "Sharding"). Each shard is a complete engine — its own memtable, WAL,
/// manifest, value log, and write controller — under its own
/// subdirectory, so the single-mutex, single-background-worker limits of
/// one instance become per-shard limits:
///
///   - Put/Delete/Get route by key hash to exactly one shard.
///   - WriteBatch splits into per-shard sub-batches dispatched in
///     parallel. Atomicity is per shard: each sub-batch commits as one
///     group on its shard, but there is no cross-shard commit point.
///   - MultiGet partitions the key list and scatters/gathers in parallel.
///   - NewIterator/Scan merge the per-shard ordered streams with the
///     merging iterator; each shard is read at one point in its history
///     (its member of a sharded snapshot, else its state at creation).
///   - Flushes/compactions from different shards overlap on one shared
///     background pool; within a shard they stay strictly serialized.
///
/// Construct through DB::Open with Options::num_shards > 1.
class ShardedDB : public DB {
 public:
  ShardedDB(const Options& options, std::string dbname);
  ~ShardedDB() override;

  /// Opens every shard (recovering each independently); called once by
  /// DB::Open.
  Status Init();

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  void MultiGet(const ReadOptions& options, std::span<const Slice> keys,
                std::vector<std::string>* values,
                std::vector<Status>* statuses) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  Status Scan(const ReadOptions& options, const Slice& start,
              const Slice& end, size_t limit,
              std::vector<std::pair<std::string, std::string>>* results)
      override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  Status CompactAll() override;
  Status GarbageCollectValues() override;
  Status Flush() override;
  DBStats GetStats() override;
  /// Adds, on top of the per-shard properties:
  ///   "lsmlab.num-shards"          — the shard count.
  ///   "lsmlab.bg-jobs-high-water"  — most background jobs ever running
  ///                                  at once on the shared pool (proof
  ///                                  of cross-shard overlap).
  ///   "lsmlab.shard.<k>.<prop>"    — <prop> forwarded to shard k.
  ///   "lsmlab.stats"               — the shards' registries merged:
  ///                                  tickers summed, histograms merged,
  ///                                  in the unsharded dump's format.
  bool GetProperty(const Slice& property, std::string* value) override;
  std::string DebugShape() override;

  int num_shards() const { return num_shards_; }
  /// Test hooks.
  DBImpl* TEST_Shard(int shard) { return shards_[shard].get(); }
  int TEST_BgJobsHighWater() {
    return bg_pool_ == nullptr ? 0 : bg_pool_->concurrency_high_water();
  }

 private:
  class ShardedSnapshot;

  uint32_t ShardOf(const Slice& key) const {
    return ShardOfKey(key, static_cast<uint32_t>(num_shards_));
  }
  /// Per-shard view of the caller's ReadOptions: a sharded snapshot is
  /// translated to shard `shard`'s member of the snapshot vector.
  ReadOptions ShardReadOptions(const ReadOptions& options, int shard) const;
  /// Every shard's StatsRegistry snapshot, merged: what GetStats and
  /// "lsmlab.stats" report.
  StatsSnapshot MergedStats() const;
  /// NewIterator and Scan's one builder: merges every shard's
  /// DBImpl::NewReadIterator, bounded by `range` when set.
  Iterator* NewMergedIterator(const ReadOptions& options,
                              const DBImpl::KeyRange* range);
  /// Runs fn(shard) for every index in `targets`, overlapping the calls
  /// on dispatch_pool_ (the caller's thread runs the first target, and
  /// any target the draining pool rejects, inline). Returns when all are
  /// done.
  void FanOut(const std::vector<int>& targets,
              const std::function<void(int)>& fn);
  /// Runs `op` on every shard through FanOut; the lowest-numbered shard's
  /// failure wins.
  Status OnEveryShard(Status (DBImpl::*op)());

  const Options options_;
  const std::string dbname_;
  const int num_shards_;

  /// Completion latch for FanOut: each dispatched call decrements its
  /// caller's counter under mu_ and signals. Held only around counter
  /// updates — never across a shard call or any I/O.
  Mutex mu_{LockRank::kShardedDbMu};
  CondVar fanout_cv_{&mu_};

  /// Shared flush/compaction pool, one slot per shard (non-null iff
  /// options_.background_compaction). Each shard still runs at most one
  /// background job at a time (DBImpl::bg_scheduled_); the width lets
  /// jobs from different shards overlap.
  std::unique_ptr<ThreadPool> bg_pool_;
  /// Router-side workers for parallel WriteBatch/MultiGet/maintenance
  /// fan-out; sized like bg_pool_ but separate so a stalled shard write
  /// can never starve background flushes (or vice versa).
  std::unique_ptr<ThreadPool> dispatch_pool_;
  /// Destroyed before the pools (declared after them): a shard destructor
  /// may wait on in-flight background work.
  std::vector<std::unique_ptr<DBImpl>> shards_;
};

}  // namespace lsmlab

#endif  // LSMLAB_CORE_SHARDED_DB_H_
