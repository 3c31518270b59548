#ifndef LSMLAB_CORE_DB_IMPL_H_
#define LSMLAB_CORE_DB_IMPL_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/compaction/compaction_policy.h"
#include "core/db.h"
#include "core/table_cache.h"
#include "core/version.h"
#include "core/write_batch.h"
#include "memtable/memtable.h"
#include "obs/event_listener.h"
#include "obs/perf_scope.h"
#include "obs/stats_registry.h"
#include "util/mutex.h"
#include "util/thread_pool.h"
#include "vlog/value_log.h"
#include "wal/log_writer.h"

namespace lsmlab {

/// Value tags used when key-value separation is enabled: every stored value
/// carries one as its first byte. The write path (db_write.cc) writes them
/// and DecodeValueTag reads them.
inline constexpr char kVlogInlineTag = 0x00;
inline constexpr char kVlogPointerTag = 0x01;

/// Strips the tag from a value stored under key-value separation, leaving
/// in *stored the value itself or, when *pointer, its value-log pointer.
/// An empty value reads as inline; an unknown tag is Corruption. The one
/// reader of the tags: ResolveValue, LookupKeys and GarbageCollectValues.
Status DecodeValueTag(Slice* stored, bool* pointer);

/// The ticker fields of DBStats, read from a snapshot of one registry or
/// of several merged. Shape and gauges stay zero; DBImpl::AddShapeAndGauges
/// adds them.
DBStats TickerStats(const StatsSnapshot& snap);

class DBImpl : public DB {
 public:
  /// `shared_bg_pool` (optional) is a caller-owned ThreadPool to run this
  /// instance's background flushes/compactions on, instead of a private
  /// single worker. ShardedDB passes one pool to all its shards so their
  /// background jobs overlap; the pool must outlive this DBImpl. Ignored
  /// unless options.background_compaction is set.
  DBImpl(const Options& options, std::string dbname,
         ThreadPool* shared_bg_pool = nullptr);
  ~DBImpl() override;

  /// Recovers the DB; called once by DB::Open. The manifest read, the
  /// value-log open and the WAL replay run without mu_, since no other
  /// thread can reach the DB yet; mu_ is held to flush and compact what
  /// was replayed and to open the WAL. The orphan sweep runs last.
  Status Init() EXCLUDES(mu_);

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  /// The leader/follower group-commit protocol, defined in db_write.cc —
  /// the only module allowed to touch the WAL file (see DESIGN.md "Group
  /// commit" and the lint.sh ban).
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
  Status GarbageCollectValues() override;
  /// Unwraps a stored (possibly tagged/separated) value into *out. Public
  /// for the resolving iterator; not part of the DB interface.
  Status ResolveValue(const Slice& stored, std::string* out);

  using KeyRange = TableCache::KeyRange;
  /// The one user-iterator builder (NewIterator, Scan, GC, ShardedDB):
  /// pins the view, merges one child per memtable and run, wraps in
  /// DBIter, each of whose calls is a PerfScope on this DB's tickers (a
  /// user iterator folds on every call). With `range`, runs keep only the
  /// files their fence pointers place in it (keys outside may be
  /// missing). `resolve_values` unwraps separated values on value(); off,
  /// value() is the stored bytes.
  Iterator* NewReadIterator(const ReadOptions& options, const KeyRange* range,
                            bool resolve_values) EXCLUDES(mu_);
  /// Scan's loop over the iterator `open` builds: Seek(range.lo), then
  /// rows while key <= range.hi, up to `limit`, in one OpScope: the
  /// iterator's calls nest in it, so the scan folds into this DB's tickers
  /// once (ShardedDB: shard 0).
  Status CollectRange(const std::function<Iterator*()>& open,
                      const KeyRange& range, size_t limit,
                      std::vector<std::pair<std::string, std::string>>*
                          results);
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  Status CompactAll() override;
  Status Flush() override;
  DBStats GetStats() override;
  bool GetProperty(const Slice& property, std::string* value) override;
  std::string DebugShape() override;

  /// GetStats' two halves, public so ShardedDB builds its DBStats from
  /// the same code: a copy of this DB's registry, and the addition of its
  /// shape (levels, runs, files, bytes per level, growing the per-level
  /// vectors as needed) and gauges (index memory, value-log bytes and
  /// files) into `*stats`.
  StatsSnapshot SnapshotStats() const { return stats_.Snapshot(); }
  void AddShapeAndGauges(DBStats* stats) EXCLUDES(mu_);

  /// True iff the calling thread holds the DB mutex. Test hook for the
  /// listener contract ("callbacks never run under mu_").
  bool TEST_MutexHeldByCurrentThread() const {
    return mu_.HeldByCurrentThread();
  }

  /// The current version, for tests that check the tree's file layout.
  VersionPtr TEST_CurrentVersion() {
    MutexLock lock(&mu_);
    return versions_->current();
  }

  /// The current version's Version::CheckConsistency (debug builds run
  /// it at every install and after recovery).
  Status TEST_CheckConsistency() {
    MutexLock lock(&mu_);
    return versions_->CheckConsistency();
  }

  /// Helper threads a compaction's subranges use besides the calling
  /// thread; a negative value restores the default (one per extra core).
  /// Output files never depend on it.
  void TEST_SetSubcompactionHelpers(int helpers) {
    test_subcompaction_helpers_.store(helpers);
  }

  /// Writers currently parked in the group-commit queue (leader included).
  /// Test hook for staging deterministic commit groups.
  size_t TEST_WriteQueueLength() {
    MutexLock lock(&mu_);
    return writers_.size();
  }

  /// Runs `hook` on each batch the write path is about to insert into the
  /// memtable; a non-OK result fails that insert. Test hook for insert
  /// failures a batch that passed key-value separation cannot cause. Set
  /// before any concurrent write.
  void TEST_SetApplyHook(std::function<Status(const WriteBatch&)> hook) {
    apply_hook_ = std::move(hook);
  }

 private:
  /// One queued write (batch + options + a CondVar to park on); defined in
  /// db_write.cc with the rest of the group-commit module.
  struct Writer;
  class SnapshotImpl : public Snapshot {
   public:
    explicit SnapshotImpl(SequenceNumber seq) : seq_(seq) {}
    SequenceNumber sequence() const override { return seq_; }

   private:
    SequenceNumber seq_;
  };

  /// One DB operation on the calling thread, opened by every public entry
  /// point and by each BackgroundCall step: its PerfScope, plus the
  /// listener events its work stages (StageEvent). Only the outermost
  /// OpScope on a thread keeps events; a nested one (the Put and Flush
  /// inside GarbageCollectValues) stages onto it. On exit the outermost
  /// closes its PerfScope first and then, with mu_ released, fires the
  /// staged events and any queued table-file deletions on every listener,
  /// so a listener that calls back into the DB opens a fresh scope.
  class OpScope {
   public:
    explicit OpScope(DBImpl* db, uint64_t PerfContext::*micros = nullptr,
                     PhaseHistogram phase = PhaseHistogram::kNumHistograms);
    ~OpScope();

    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

   private:
    friend class DBImpl;
    /// The calling thread's outermost OpScope, or null.
    static thread_local OpScope* outermost_on_thread_;
    DBImpl* const db_;
    PerfScope perf_;
    bool outermost_;
    std::vector<std::function<void(EventListener&)>> events_;
  };
  /// Stages a listener callback on the calling thread's outermost OpScope,
  /// which must belong to this DB; it fires when that scope ends.
  void StageEvent(std::function<void(EventListener&)> fire);

  /// The point-lookup core behind Get (a batch of one) and MultiGet,
  /// defined in db_multiget.cc: resolves keys[i] into values[i] and
  /// statuses[i]. Takes mu_ only briefly to pin the memtables, version and
  /// sequence; all lookup I/O runs unlocked. Returns how many table probes
  /// a filter pruned (MultiGet reports them as multiget.filter_pruned).
  size_t LookupKeys(const ReadOptions& options, std::span<const Slice> keys,
                    std::span<std::string> values,
                    std::span<Status> statuses) EXCLUDES(mu_);
  /// Claims queued writers from the front of writers_ up to the group size
  /// cap, giving each follower its parallel_base: `base` plus the entries
  /// ahead of it. Returns the batch to commit — the leader's own for a
  /// group of one, else group_batch_ — and reports the last claimed
  /// writer, whether any member requested sync, and the member count.
  WriteBatch* BuildWriteGroupLocked(SequenceNumber base, Writer** last_writer,
                                    bool* group_sync, uint64_t* writer_count)
      REQUIRES(mu_);
  /// The write path's one memtable insert: inserts `batch` into `mem` at
  /// sequence `base` with mu_ released, then takes mu_ and reports in to
  /// the group's apply (apply_status_, apply_pending_). A leader applying
  /// its whole group alone and each member of a parallel apply call it
  /// alike.
  void ApplyMemberThenLock(const WriteBatch& batch, SequenceNumber base,
                           MemTable* mem) ACQUIRE(mu_);
  /// Durability policy (Options::wal_sync_mode): whether the commit whose
  /// WAL record is `record_bytes` long syncs the log. A group containing a
  /// sync writer syncs in every mode; the interval/bytes policies only add
  /// syncs for non-sync traffic. Leader-only state (last_wal_sync_,
  /// wal_unsynced_bytes_); called without mu_.
  bool ShouldSyncWal(bool group_sync, uint64_t record_bytes) const;
  /// Replays WAL files newer than the manifest's log number into mem_.
  /// Runs before Init takes mu_: no other thread can reach the DB yet.
  Status RecoverWal() EXCLUDES(mu_);
  Status NewWal() REQUIRES(mu_);
  /// Freezes mem_ into imm_ behind a fresh memtable + WAL so writers can
  /// continue while the worker flushes. REQUIRES additionally:
  /// imm_ == nullptr.
  Status FreezeMemTableLocked() REQUIRES(mu_);
  /// Flushes mem_ on the calling thread (inline Flush, CompactAll,
  /// recovery): waits for the bg_scheduled_ claim and an idle WAL,
  /// freezes, and runs FlushImmMemTable while holding the claim. Runs no
  /// compaction. May release and reacquire mu_.
  Status FlushOnCallerLocked() REQUIRES(mu_);
  /// Write controller, run by every group leader before it applies: blocks
  /// until mem_ has room, freezing a full (non-empty) memtable and handing
  /// it to the worker. Background mode also applies the L0 slowdown/stop
  /// triggers and the pending-imm stall. May release and reacquire mu_.
  Status MakeRoomForWrite() REQUIRES(mu_);
  /// Starts the worker when work is pending (a frozen memtable or a
  /// compaction hint) and no one holds the bg_scheduled_ claim. Background
  /// mode queues BackgroundCall on the pool. Inline mode runs the worker
  /// right here: BackgroundStep until imm_ is flushed and at most
  /// Options::max_compactions_per_write compactions have run; their
  /// events fire when the caller's operation ends. May release and
  /// reacquire mu_.
  void MaybeScheduleBackgroundWork() REQUIRES(mu_);
  /// Thread-pool entry point: loops over BackgroundStep, one OpScope per
  /// step, so each step's counters fold and its listener events fire with
  /// mu_ released before the next step.
  void BackgroundCall() EXCLUDES(mu_);
  /// Runs one unit of background work (a flush or one compaction),
  /// releasing mu_ while building tables. Returns true while more work may
  /// be pending.
  bool BackgroundStep() REQUIRES(mu_);
  /// Flushes imm_ into a level-0 run. With mu_ released it fsyncs the
  /// value log (SyncValueLog) and builds the tables; it holds mu_ for the
  /// manifest install, then releases it again to unlink the retired WAL
  /// before clearing imm_. REQUIRES additionally: imm_ != nullptr. On
  /// failure the error is also recorded in bg_error_.
  Status FlushImmMemTable() REQUIRES(mu_);
  /// Counted condition-variable wait: blocks on bg_cv_ and accrues the
  /// stall counters.
  void StallWait() REQUIRES(mu_);
  /// Re-derives the Monkey per-level filter allocation for the current
  /// tree depth.
  void ReconfigureMonkeyLocked(int output_level) REQUIRES(mu_);
  /// Runs compactions until the policy is satisfied; releases mu_ while
  /// each runs.
  Status MaybeCompact() REQUIRES(mu_);
  /// Executes one compaction pick as a CompactionJob, run with mu_
  /// released (inputs are immutable files); the job installs through
  /// InstallCompactionEdit. Takes the pick by value so that the job stops
  /// referencing each input once an install has removed it. Keeps the
  /// tickers and stages the listener events.
  Status DoCompaction(CompactionPick pick) REQUIRES(mu_);
  /// The compaction job's install hook: applies one edit to the manifest
  /// and the current version under mu_.
  Status InstallCompactionEdit(VersionEdit* edit) EXCLUDES(mu_);
  /// Ends a flush or a compaction that began at `start`: adds its wall
  /// time to the `micros` PerfContext field and the `phase` histogram and,
  /// with listeners, stages OnTableFileCreated for each of `outputs`
  /// (tables at `level`), then `on_end` with `info`, completed.
  template <typename JobInfo>
  void FinishJob(std::chrono::steady_clock::time_point start,
                 PhaseHistogram phase, uint64_t PerfContext::*micros,
                 std::span<const FileMetaData> outputs, int level,
                 JobInfo info,
                 void (EventListener::*on_end)(const JobInfo&));
  SequenceNumber SmallestSnapshotLocked() const REQUIRES(mu_);
  /// Pinned snapshot of everything a read needs: referenced memtables, the
  /// current version (shared_ptr), and the visible sequence. Taken under
  /// mu_ in one short critical section so that iterator construction runs
  /// with the lock released. Callers must Unref() mem/imm when done
  /// pinning (child iterators hold their own references).
  struct ReadView {
    MemTable* mem = nullptr;
    MemTable* imm = nullptr;
    VersionPtr version;
    SequenceNumber sequence = 0;
  };
  ReadView PinReadView(const ReadOptions& options) EXCLUDES(mu_);
  /// Key-value separation: encodes `updates` into *separated with large
  /// values moved to the value log as tagged pointers and the rest tagged
  /// inline.
  Status SeparateBatch(const WriteBatch& updates, WriteBatch* separated);
  /// Makes every separated value durable before a WAL fsync or a flush
  /// install makes pointers to it durable (ValueLog::Sync), counting a
  /// real fsync in vlog.syncs. OK without separation.
  Status SyncValueLog() EXCLUDES(mu_);
  bool has_listeners() const { return !options_.listeners.empty(); }

  const Options options_;
  const std::string dbname_;
  InternalKeyComparator icmp_;
  /// Internally synchronized (own mutex + sharded LruCache locks).
  std::unique_ptr<TableCache> table_cache_;
  std::unique_ptr<CompactionPolicy> policy_;
  /// All VersionSet state is guarded by mu_ except the atomic file-number
  /// counter, which background table builds bump with mu_ released (and
  /// Versions themselves, immutable once installed and pinned via
  /// shared_ptr). Not annotated GUARDED_BY for exactly that reason.
  std::unique_ptr<VersionSet> versions_;

  Mutex mu_{LockRank::kDbMu};
  MemTable* mem_ GUARDED_BY(mu_) = nullptr;  // owned via Ref/Unref
  /// Frozen memtable awaiting flush. Owned by whoever holds the
  /// bg_scheduled_ claim: only the claim holder flushes it.
  MemTable* imm_ GUARDED_BY(mu_) = nullptr;
  /// WAL of the memtable that replaced imm_; once imm_'s flush is in the
  /// manifest this becomes the manifest log number, and only then may any
  /// older WAL be deleted (crash-recovery ordering).
  uint64_t imm_log_number_ GUARDED_BY(mu_) = 0;
  uint64_t imm_wal_to_delete_ GUARDED_BY(mu_) = 0;
  std::unique_ptr<WritableFile> wal_file_ GUARDED_BY(mu_);
  std::unique_ptr<wal::Writer> wal_ GUARDED_BY(mu_);
  uint64_t wal_number_ GUARDED_BY(mu_) = 0;

  // --- Group commit (src/core/db_write.cc) --------------------------------
  /// FIFO of pending writes. The front writer is the leader; it commits a
  /// prefix of the queue as one group and signals each member's CondVar.
  std::deque<Writer*> writers_ GUARDED_BY(mu_);
  /// True during the leader's commit window, which runs with mu_
  /// released: WAL append → memtable insert → last_sequence publish. WAL
  /// rotation (FreezeMemTableLocked) must wait for it to clear, or it
  /// would destroy the log mid-append and swap out the memtable
  /// mid-insert.
  bool log_busy_ GUARDED_BY(mu_) = false;
  /// Group members (leader included) still inserting; the last one
  /// signals apply_cv_, where the leader waits.
  uint64_t apply_pending_ GUARDED_BY(mu_) = 0;
  /// First member insert failure of the in-flight apply; it becomes the
  /// group status (and thus bg_error_).
  Status apply_status_ GUARDED_BY(mu_);
  CondVar apply_cv_{&mu_};
  std::function<Status(const WriteBatch&)> apply_hook_;  // TEST_SetApplyHook
  /// Leader-owned scratch and durability-policy state. Not GUARDED_BY:
  /// only the current leader touches these, between setting and clearing
  /// log_busy_, and the mu_ handoff at those edges orders the accesses
  /// (queue-front discipline means there is never more than one leader).
  WriteBatch group_batch_;
  uint64_t wal_unsynced_bytes_ = 0;
  std::chrono::steady_clock::time_point last_wal_sync_ =
      std::chrono::steady_clock::now();

  std::multiset<SequenceNumber> snapshots_ GUARDED_BY(mu_);
  /// Non-null iff separation enabled; internally synchronized.
  std::unique_ptr<ValueLog> vlog_;

  // Background pipeline. bg_pool_ is non-null iff
  // options_.background_compaction: it points at owned_bg_pool_ (the
  // standalone case — one private worker, which serializes this
  // instance's flushes and compactions) or at a caller-owned pool shared
  // across shards (ShardedDB). When it is null (inline mode) the same
  // worker runs on the calling thread. Either way bg_scheduled_ admits at
  // most one worker per DBImpl, so per-instance flushes and compactions
  // stay serialized even on a wide shared pool.
  std::unique_ptr<ThreadPool> owned_bg_pool_;
  ThreadPool* bg_pool_ = nullptr;
  /// Signalled on background progress (flush/compaction install, task
  /// completion); stalled writers and waiters sleep on it.
  CondVar bg_cv_{&mu_};
  /// The worker claim: set while a pool task is queued or running, or
  /// while a caller runs the worker's flush/compaction steps itself.
  bool bg_scheduled_ GUARDED_BY(mu_) = false;
  /// Shape/seek work may be pending.
  bool bg_compaction_hint_ GUARDED_BY(mu_) = false;
  /// CompactAll holds the compaction token: the worker defers compaction
  /// picks (flushes still run) so two merges never race over the same
  /// input files.
  bool manual_compaction_ GUARDED_BY(mu_) = false;
  bool shutting_down_ GUARDED_BY(mu_) = false;
  /// First background failure; surfaced to writers and sticky (matches the
  /// usual LSM posture: a failed flush/compaction poisons the DB).
  Status bg_error_ GUARDED_BY(mu_);

  /// Every named DB-wide counter and phase histogram; internally
  /// synchronized (relaxed atomics + a private histogram mutex), so both
  /// locked and unlocked code paths bump it directly. Per-operation
  /// PerfContext deltas are folded in when each operation's OpScope ends.
  StatsRegistry stats_;
  /// Table-file-deletion events queue here (the VersionSet cleanup hooks
  /// fire under mu_, where listener callbacks are forbidden) until the
  /// next outermost OpScope to end drains them.
  Mutex deletions_mu_{LockRank::kDeletionsMu};
  std::vector<uint64_t> pending_deletions_ GUARDED_BY(deletions_mu_);
  // Set by Get when a file crosses the seek-compaction threshold; the
  // next write services it (reads never mutate the tree themselves).
  std::atomic<bool> pending_seek_compaction_{false};
  /// TEST_SetSubcompactionHelpers; negative = one helper per extra core.
  std::atomic<int> test_subcompaction_helpers_{-1};
};

}  // namespace lsmlab

#endif  // LSMLAB_CORE_DB_IMPL_H_
