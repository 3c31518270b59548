#include "core/db_impl.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>
#include <set>
#include <thread>

#include "core/compaction/compaction_job.h"
#include "core/db_iter.h"
#include "core/filename.h"
#include "core/merging_iterator.h"
#include "core/sharded_db.h"
#include "obs/perf_context.h"
#include "tuning/monkey.h"
#include "wal/log_reader.h"

namespace lsmlab {

DBImpl::DBImpl(const Options& options, std::string dbname,
               ThreadPool* shared_bg_pool)
    : options_(options),
      dbname_(std::move(dbname)),
      icmp_(options.comparator) {
  table_cache_ = std::make_unique<TableCache>(dbname_, &options_, &icmp_,
                                              &stats_);
  if (options_.filter_allocation == FilterAllocation::kMonkey) {
    table_cache_->ConfigureFilterBits(MonkeyBitsPerLevel(
        options_.filter_bits_per_key, options_.max_levels,
        options_.size_ratio));
  }
  policy_ = CreateCompactionPolicy(options_, &icmp_, options_.block_cache);
  versions_ = std::make_unique<VersionSet>(
      dbname_, &options_, table_cache_.get(), &icmp_, policy_.get());
  mem_ = new MemTable(icmp_, options_.memtable_rep,
                      options_.memtable_hash_index);
  mem_->Ref();
  if (options_.value_separation_threshold > 0) {
    vlog_ = std::make_unique<ValueLog>(options_.env, dbname_,
                                       options_.max_vlog_file_bytes);
  }
  if (options_.background_compaction) {
    if (shared_bg_pool != nullptr) {
      // Sharded mode: background work runs on the caller's pool, shared
      // with the other shards so their flushes/compactions overlap.
      bg_pool_ = shared_bg_pool;
    } else {
      // One private worker: flushes and compactions are serialized on it,
      // which is the mutual-exclusion backbone of the pipeline (no two
      // merges can pick overlapping inputs). The same exclusion holds in
      // sharded mode because bg_scheduled_ admits one task per instance.
      owned_bg_pool_ = std::make_unique<ThreadPool>(1);
      bg_pool_ = owned_bg_pool_.get();
    }
  }
  // Version cleanup hooks fire wherever the last reference to an obsolete
  // file drops — often under mu_ — so the observer only records the event;
  // listener callbacks fire from the next NotifyListeners.
  versions_->SetFileDeletionObserver([this](uint64_t number) {
    stats_.Add(Ticker::kTableFilesDeleted);
    if (has_listeners()) {
      MutexLock lock(&deletions_mu_);
      pending_deletions_.push_back(number);
    }
  });
}

DBImpl::~DBImpl() {
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
    // A queued task will still run (the pool drains before joining) but
    // exits promptly once it observes shutting_down_.
    while (bg_scheduled_) {
      bg_cv_.Wait();
    }
  }
  if (owned_bg_pool_ != nullptr) {
    owned_bg_pool_.reset();  // joins the worker thread
    bg_pool_ = nullptr;
  } else if (bg_pool_ != nullptr) {
    // Shared pool (sharded mode): we must not join other shards' workers,
    // but our BackgroundCall may still be in its tail — it clears
    // bg_scheduled_ under mu_, then touches stats_/listeners after
    // releasing it. WaitIdle returns only once every running task has
    // fully exited its closure, so no use-after-free. By the time a
    // ShardedDB destroys its shards no client issues writes, so the pool
    // quiesces and this wait terminates.
    bg_pool_->WaitIdle();
  }
  // stats_ and deletions_mu_ are declared after versions_, so they die
  // first; detach the observer before member destruction can race it.
  versions_->SetFileDeletionObserver(nullptr);
  // An unflushed imm_ is safe to drop: its WAL is only deleted after the
  // flush lands in the manifest, so recovery replays it. No thread can
  // race us here, but the guarded members keep a uniform discipline.
  MutexLock lock(&mu_);
  if (imm_ != nullptr) {
    imm_->Unref();
  }
  if (mem_ != nullptr) {
    mem_->Unref();
  }
}

Status DBImpl::Init() {
  Status s = versions_->Recover();
  if (s.ok() && vlog_ != nullptr) {
    s = vlog_->Open();
  }
  if (s.ok()) {
    s = RecoverWal();
  }
  PendingEvents events;
  if (s.ok()) {
    MutexLock lock(&mu_);
    if (mem_->num_entries() > 0) {
      s = FlushOnCallerLocked(&events);
      if (s.ok()) {
        s = MaybeCompact(&events);
      }
    }
    if (s.ok() && wal_ == nullptr) {  // a recovery flush opened one
      s = NewWal();
    }
  }
  if (s.ok()) {
    // After the recovery flush: the sweep is what deletes replayed WALs.
    versions_->RemoveOrphanedFiles();
  }
  // Recovery may flush and compact; listeners observe those like any
  // other flush/compaction, after the lock is gone.
  NotifyListeners(&events);
  return s;
}

// ------------------------------------------------------------- Listeners --

namespace {

TableFileInfo MakeTableFileInfo(const FileMetaData& meta, int level) {
  TableFileInfo info;
  info.file_number = meta.number;
  info.file_size = meta.file_size;
  info.level = level;
  info.smallest_user_key = ExtractUserKey(Slice(meta.smallest)).ToString();
  info.largest_user_key = ExtractUserKey(Slice(meta.largest)).ToString();
  return info;
}

}  // namespace

void DBImpl::DrainDeletions(PendingEvents* events) {
  if (!has_listeners()) {
    return;
  }
  std::vector<uint64_t> numbers;
  {
    MutexLock lock(&deletions_mu_);
    numbers.swap(pending_deletions_);
  }
  for (uint64_t number : numbers) {
    TableFileDeletionInfo info;
    info.db_name = dbname_;
    info.file_number = number;
    events->push_back(
        [info](EventListener& l) { l.OnTableFileDeleted(info); });
  }
}

void DBImpl::NotifyListeners(PendingEvents* events) {
  DrainDeletions(events);
  if (events->empty()) {
    return;
  }
  // The contract listeners rely on (see obs/event_listener.h): callbacks
  // never run under the DB mutex, so they may call read-side DB methods.
  assert(!mu_.HeldByCurrentThread());
  for (const auto& fire : *events) {
    for (const auto& listener : options_.listeners) {
      fire(*listener);
    }
  }
  events->clear();
}

Status DB::Open(const Options& options, const std::string& name,
                std::unique_ptr<DB>* dbptr) {
  dbptr->reset();
  if (options.env == nullptr) {
    return Status::InvalidArgument("Options::env must be set");
  }
  if (options.num_shards < 1 || options.num_shards > kMaxShards) {
    return Status::InvalidArgument("Options::num_shards must be in [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  // Refuses to open a database whose on-disk shard count disagrees with
  // options.num_shards (including opening a sharded directory as a plain
  // single-instance DB — that would silently read an empty root).
  Status s = CheckShardMarker(options, name);
  if (!s.ok()) {
    return s;
  }
  if (options.num_shards > 1) {
    auto sharded = std::make_unique<ShardedDB>(options, name);
    s = sharded->Init();
    if (!s.ok()) {
      return s;
    }
    *dbptr = std::move(sharded);
    return Status::OK();
  }
  auto impl = std::make_unique<DBImpl>(options, name);
  s = impl->Init();
  if (!s.ok()) {
    return s;
  }
  *dbptr = std::move(impl);
  return Status::OK();
}

Status DestroyDB(const Options& options, const std::string& name) {
  if (options.env == nullptr) {
    return Status::InvalidArgument("Options::env must be set");
  }
  // A sharded database keeps each shard in its own subdirectory; read the
  // marker (before the sweep below deletes it) and clear each shard. A
  // marker that does not parse leaves only the root to sweep.
  int shards = 0;
  if (ReadShardMarker(options.env, name, &shards).ok()) {
    for (int k = 0; k < shards; k++) {
      Options shard_options = options;
      shard_options.num_shards = 1;  // shard dirs are flat; no recursion
      // status-ok: best-effort per-shard destroy; leftovers surface in
      // the directory sweep below.
      DestroyDB(shard_options, ShardPath(name, k)).IgnoreError();
    }
  }
  std::vector<std::string> children;
  Status s = options.env->GetChildren(name, &children);
  if (!s.ok()) {
    return Status::OK();  // nothing to destroy
  }
  for (const std::string& child : children) {
    // status-ok: best-effort teardown; deleting a vanished file is not an
    // error here
    // (nor is a shard subdirectory, which RemoveFile cannot unlink).
    options.env->RemoveFile(name + "/" + child).IgnoreError();
  }
  return Status::OK();
}

// -------------------------------------------------- Key-value separation --
// (Batch separation itself — SeparatingHandler / SeparateBatch — lives in
// db_write.cc with the rest of the write path.)

Status DecodeValueTag(Slice* stored, bool* pointer) {
  *pointer = false;
  if (stored->empty()) {
    return Status::OK();
  }
  const char tag = (*stored)[0];
  if (tag != kVlogInlineTag && tag != kVlogPointerTag) {
    return Status::Corruption("unknown value tag");
  }
  *pointer = tag == kVlogPointerTag;
  stored->remove_prefix(1);
  return Status::OK();
}

Status DBImpl::ResolveValue(const Slice& stored, std::string* out) {
  Slice payload = stored;
  bool pointer = false;
  if (vlog_ != nullptr) {
    Status s = DecodeValueTag(&payload, &pointer);
    if (!s.ok()) {
      return s;
    }
  }
  if (!pointer) {
    out->assign(payload.data(), payload.size());
    return Status::OK();
  }
  stats_.Add(Ticker::kSeparatedReads);
  return vlog_->Get(payload, out);
}

Status DBImpl::GarbageCollectValues() {
  if (vlog_ == nullptr) {
    return Status::NotSupported("key-value separation is disabled");
  }
  {
    MutexLock lock(&mu_);
    if (!snapshots_.empty()) {
      return Status::InvalidArgument(
          "cannot garbage-collect the value log with live snapshots");
    }
  }
  const std::vector<uint64_t> closed = vlog_->ClosedFiles();
  if (closed.empty()) {
    return Status::OK();
  }
  std::set<uint64_t> victims(closed.begin(), closed.end());

  // Stream over the latest view; the iterator's snapshot is unaffected by
  // the re-puts below, so this visits each live key exactly once.
  std::unique_ptr<Iterator> it(
      NewReadIterator(ReadOptions(), nullptr, /*resolve_values=*/false));
  Status s;
  for (it->SeekToFirst(); it->Valid() && s.ok(); it->Next()) {
    Slice pointer = it->value();
    bool separated = false;
    if (!DecodeValueTag(&pointer, &separated).ok() || !separated ||
        !ValueLog::PointsInto(pointer, victims)) {
      continue;
    }
    std::string value;
    s = vlog_->Get(pointer, &value);
    if (!s.ok()) {
      break;
    }
    // Re-put through the normal path: the value lands in the current log
    // segment and a fresh pointer supersedes the old one.
    s = Put({}, it->key(), value);
  }
  if (s.ok()) {
    s = it->status();
  }
  if (s.ok()) {
    // The re-put values must be durable before the segments holding their
    // old copies go: a flush fsyncs the value log and installs the fresh
    // pointers.
    s = Flush();
  }
  if (!s.ok()) {
    return s;
  }
  return vlog_->DeleteFiles(closed);
}

// ------------------------------------------------------------- Recovery --

Status DBImpl::RecoverWal() {
  std::vector<std::string> children;
  Status s = options_.env->GetChildren(dbname_, &children);
  if (!s.ok()) {
    return s;
  }
  std::vector<uint64_t> wals;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type)) {
      continue;
    }
    // Never re-allocate a number that exists on storage: a crash can roll
    // next_file_number back, and reusing a live WAL's number would
    // truncate synced data.
    versions_->MarkFileNumberUsed(number);
    if (type == FileType::kWalFile && number >= versions_->log_number()) {
      wals.push_back(number);
    }
  }
  std::sort(wals.begin(), wals.end());

  MemTable* mem;
  {
    MutexLock lock(&mu_);
    mem = mem_;
  }
  SequenceNumber max_sequence = versions_->last_sequence();
  for (uint64_t number : wals) {
    std::unique_ptr<SequentialFile> file;
    s = options_.env->NewSequentialFile(WalFileName(dbname_, number), &file);
    if (!s.ok()) {
      return s;
    }
    wal::Reader reader(file.get());
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      WriteBatch batch;
      batch.SetContentsFrom(record);
      s = batch.InsertInto(mem);
      if (!s.ok()) {
        return s;
      }
      const SequenceNumber last = batch.sequence() + batch.Count() - 1;
      max_sequence = std::max(max_sequence, last);
    }
    if (!reader.status().ok()) {
      return reader.status();
    }
  }
  versions_->SetLastSequence(max_sequence);
  return Status::OK();
}

Status DBImpl::NewWal() {
  if (!options_.enable_wal) {
    return Status::OK();
  }
  wal_number_ = versions_->NewFileNumber();
  // io-under-lock-ok: WAL rotation creates the file under mu_ by design;
  // the expensive appends/syncs happen later with mu_ released.
  Status s = options_.env->NewWritableFile(WalFileName(dbname_, wal_number_),
                                           &wal_file_);
  if (!s.ok()) {
    return s;
  }
  wal_ = std::make_unique<wal::Writer>(wal_file_.get());
  // Fresh log: nothing in it is unsynced. Safe to touch the leader-owned
  // counter here because rotation only runs while the log is idle.
  wal_unsynced_bytes_ = 0;
  return Status::OK();
}

// ------------------------------------------------------------ Write path --
// Put/Delete/Write and the leader-based group-commit protocol live in
// db_write.cc, the only module allowed to touch the WAL file.

// ------------------------------------------------- Background pipeline --

Status DBImpl::FreezeMemTableLocked() {
  assert(imm_ == nullptr);
  // Rotation destroys the current WAL writer and swaps out mem_; no
  // group-commit leader may be inside its commit window, appending to the
  // one or inserting into the other with mu_ released. Callers that can
  // race a leader (Flush paths) wait for log_busy_ to clear before getting
  // here; MakeRoomForWrite runs on the leader itself, before its window.
  assert(!log_busy_);
  // The WAL create is intentionally done under mu_: it must be atomic with
  // the mem_/imm_ swap. The frozen entries' values are made durable by
  // their flush, before its install (FlushImmMemTable).
  ScopedBlockingIoAllowed allow_io("WAL rotation");
  // Rotate the WAL so writes into the fresh memtable land in a fresh log;
  // the old log is pinned until the frozen memtable's flush is durable.
  const uint64_t old_wal = wal_number_;
  Status s = NewWal();
  if (!s.ok()) {
    return s;
  }
  imm_ = mem_;
  imm_log_number_ = wal_number_;
  imm_wal_to_delete_ = old_wal;
  mem_ = new MemTable(icmp_, options_.memtable_rep,
                      options_.memtable_hash_index);
  mem_->Ref();
  return Status::OK();
}

void DBImpl::StallWait() {
  const auto start = std::chrono::steady_clock::now();
  bg_cv_.Wait();
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  stats_.Add(Ticker::kWriteStalls);
  stats_.Add(Ticker::kWriteStallMicros, static_cast<uint64_t>(micros));
}

Status DBImpl::MakeRoomForWrite(PendingEvents* events) {
  // The L0 triggers wait for the background worker to catch up. An inline
  // writer is that worker, so it is never delayed or stopped by them.
  const bool paced = bg_pool_ != nullptr;
  bool allow_delay = paced;
  // The stop trigger must sit at or above the compaction trigger, or the
  // stall below could wait for a compaction the policy never picks.
  const int stop_trigger =
      std::max(options_.l0_stop_trigger, options_.level0_compaction_trigger);
  // Set once the worker found nothing to pick with level 0 at the stop
  // trigger: no merge will drain it (FIFO only drops runs past its size
  // budget), so waiting for one would livelock this writer.
  bool nothing_to_pick = false;
  auto stage_stall = [&](WriteStallInfo::Cause cause, int l0_runs) {
    if (!has_listeners()) {
      return;
    }
    WriteStallInfo info;
    info.db_name = dbname_;
    info.cause = cause;
    info.l0_runs = l0_runs;
    events->push_back([info](EventListener& l) { l.OnWriteStall(info); });
  };
  while (true) {
    if (!bg_error_.ok()) {
      return bg_error_;
    }
    const int l0_runs = static_cast<int>(
        versions_->current()->levels()[0].runs.size());
    if (allow_delay && options_.l0_slowdown_trigger > 0 &&
        l0_runs >= options_.l0_slowdown_trigger && l0_runs < stop_trigger) {
      // Close to the stop limit: surrender one millisecond per write so
      // compaction gains ground gradually, instead of stalling this writer
      // for seconds once the hard limit is hit.
      stage_stall(WriteStallInfo::Cause::kSlowdown, l0_runs);
      mu_.Unlock();
      const auto start = std::chrono::steady_clock::now();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const auto micros =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      stats_.Add(Ticker::kWriteSlowdowns);
      stats_.Add(Ticker::kWriteSlowdownMicros,
                 static_cast<uint64_t>(micros));
      allow_delay = false;  // at most one delay per write
      mu_.Lock();
    } else if (mem_->num_entries() == 0 ||
               mem_->ApproximateMemoryUsage() < options_.write_buffer_size) {
      // An empty memtable is never frozen: below one arena block of
      // write_buffer_size it already looks full, and freezing it would
      // only swap in another that looks just as full.
      return Status::OK();
    } else if (imm_ != nullptr) {
      // The previous memtable is still flushing: hard stall until the
      // background worker installs it.
      stage_stall(WriteStallInfo::Cause::kMemtableFull, l0_runs);
      StallWait();
    } else if (paced && l0_runs >= stop_trigger && !nothing_to_pick) {
      // Too many L0 runs: every extra run taxes reads, so block until
      // compaction digests the backlog.
      stage_stall(WriteStallInfo::Cause::kL0Stop, l0_runs);
      bg_compaction_hint_ = true;
      MaybeScheduleBackgroundWork(events);
      StallWait();
      // Only a pick that finds nothing clears the hint set above.
      nothing_to_pick = !bg_compaction_hint_;
    } else {
      Status s = FreezeMemTableLocked();
      if (!s.ok()) {
        return s;
      }
      MaybeScheduleBackgroundWork(events);
    }
  }
}

void DBImpl::MaybeScheduleBackgroundWork(PendingEvents* events) {
  if (bg_scheduled_ || shutting_down_ || !bg_error_.ok()) {
    return;
  }
  // While CompactAll holds the token a hint alone schedules nothing (the
  // task would spin: it defers compactions until the token is released).
  if (imm_ == nullptr && !(bg_compaction_hint_ && !manual_compaction_)) {
    return;
  }
  bg_scheduled_ = true;
  if (bg_pool_ == nullptr) {
    // Inline mode: the calling thread is the background worker. Its events
    // fire when the caller releases mu_.
    int compactions = 0;
    const int max_compactions = options_.max_compactions_per_write;
    while (bg_error_.ok() && (imm_ != nullptr || max_compactions == 0 ||
                              compactions < max_compactions)) {
      const bool flush = imm_ != nullptr;
      if (!BackgroundStep(events)) {
        break;
      }
      compactions += flush ? 0 : 1;
    }
    bg_scheduled_ = false;
    bg_cv_.SignalAll();
    return;
  }
  if (!bg_pool_->Schedule([this] { BackgroundCall(); })) {
    // The pool already began draining; only possible during DB teardown,
    // where shutting_down_ is set before the pool shuts down. Keep the
    // flag consistent so no waiter hangs on a task that will never run.
    bg_scheduled_ = false;
  }
}

void DBImpl::BackgroundCall() {
  // One BackgroundStep per lock scope: the mutex is released between steps
  // so each flush/compaction's listener events fire promptly and without
  // mu_ held, and each step's PerfContext delta lands in the registry.
  while (true) {
    PendingEvents events;
    PerfContext* perf = GetPerfContext();
    const PerfContext before = *perf;
    bool more = false;
    {
      MutexLock lock(&mu_);
      assert(bg_scheduled_);
      if (!shutting_down_ && bg_error_.ok()) {
        more = BackgroundStep(&events);
      }
      if (!more) {
        bg_scheduled_ = false;
        // Work may have arrived while the lock was released during a build.
        MaybeScheduleBackgroundWork(&events);
      }
      bg_cv_.SignalAll();
    }
    stats_.MergePerfDelta(perf->Delta(before));
    NotifyListeners(&events);
    if (!more) {
      return;
    }
  }
}

bool DBImpl::BackgroundStep(PendingEvents* events) {
  if (imm_ != nullptr) {
    // Flush has priority: a pending imm_ is what stalls writers.
    // A failure is also sticky in bg_error_, which stops both loops.
    return FlushImmMemTable(events).ok();
  }
  if (manual_compaction_) {
    // CompactAll owns the compaction token; it drains the shape itself.
    return false;
  }
  auto pick = policy_->Pick(*versions_->current());
  if (!pick.has_value()) {
    bg_compaction_hint_ = false;
    return false;
  }
  Status s = DoCompaction(std::move(*pick), events);
  if (!s.ok()) {
    bg_error_ = s;
  }
  return s.ok();
}

Status DBImpl::FlushImmMemTable(PendingEvents* events) {
  assert(imm_ != nullptr);
  stats_.Add(Ticker::kFlushes);
  const auto flush_start = std::chrono::steady_clock::now();
  if (has_listeners()) {
    FlushJobInfo begin;
    begin.db_name = dbname_;
    begin.background = bg_pool_ != nullptr;
    events->push_back([begin](EventListener& l) { l.OnFlushBegin(begin); });
  }
  ReconfigureMonkeyLocked(/*output_level=*/0);

  MemTable* imm = imm_;
  const SequenceNumber smallest_snapshot = SmallestSnapshotLocked();
  const uint64_t log_number = imm_log_number_;
  const uint64_t wal_to_delete = imm_wal_to_delete_;

  // Build the L0 tables without the lock: imm_ is immutable and writers
  // must be able to keep filling mem_ meanwhile. WiscKey durability
  // order: the values imm's pointers name are made durable first, before
  // the install makes the pointers durable.
  mu_.Unlock();
  std::vector<FileMetaData> outputs;
  uint64_t bytes_written = 0;
  Status s = SyncValueLog();
  if (s.ok()) {
    std::unique_ptr<Iterator> iter(imm->NewIterator());
    s = BuildTables(table_cache_.get(), versions_.get(), iter.get(),
                    /*output_level=*/0, /*drop_shadowed=*/false,
                    /*drop_tombstones=*/false, smallest_snapshot, &outputs,
                    &bytes_written);
  }
  mu_.Lock();

  if (s.ok()) {
    stats_.Add(Ticker::kBytesFlushed, bytes_written);
    stats_.Add(Ticker::kTableFilesCreated, outputs.size());
    VersionEdit edit;
    const uint64_t run_seq = versions_->NewRunSeq();
    for (const FileMetaData& meta : outputs) {
      edit.AddFile(0, run_seq, meta);
    }
    edit.SetLogNumber(log_number);  // everything older is durable in tables
    // The manifest install must be atomic with the version swap, so it
    // runs under mu_ by design.
    ScopedBlockingIoAllowed allow_io("flush manifest install");
    // io-under-lock-ok: manifest install is atomic with the version swap.
    s = versions_->LogAndApply(&edit);
  }
  if (!s.ok()) {
    bg_error_ = s;
    outputs.clear();  // none was installed
  } else {
    if (options_.enable_wal && wal_to_delete != 0) {
      // The install retired the WAL; unlink it without the lock. imm_
      // stays set meanwhile (readers find its entries in the new run too),
      // so no freeze can replace it before this flush lets go of it.
      mu_.Unlock();
      // status-ok: best-effort; a leftover WAL is re-deleted on the next
      // recovery.
      options_.env->RemoveFile(WalFileName(dbname_, wal_to_delete))
          .IgnoreError();
      mu_.Lock();
    }
    imm_->Unref();
    imm_ = nullptr;
  }
  FlushJobInfo info;
  info.background = bg_pool_ != nullptr;
  info.bytes_written = bytes_written;
  info.status = s;
  FinishJob(flush_start, PhaseHistogram::kFlushMicros,
            &PerfContext::flush_micros, outputs, /*level=*/0,
            std::move(info), &EventListener::OnFlushEnd, events);
  if (!s.ok()) {
    return s;
  }
  // A fresh L0 run may now violate the shape: fall through to compaction.
  bg_compaction_hint_ = true;
  bg_cv_.SignalAll();
  return Status::OK();
}

Status DBImpl::FlushOnCallerLocked(PendingEvents* events) {
  // imm_ belongs to whoever holds the bg_scheduled_ claim, and the freeze
  // rotates the WAL: wait until no worker runs and no group-commit leader
  // is inside its commit window.
  while ((bg_scheduled_ || log_busy_) && bg_error_.ok()) {
    bg_cv_.Wait();
  }
  if (!bg_error_.ok()) {
    return bg_error_;
  }
  if (mem_->num_entries() == 0) {
    return Status::OK();
  }
  Status s = FreezeMemTableLocked();
  if (!s.ok()) {
    return s;
  }
  bg_scheduled_ = true;
  s = FlushImmMemTable(events);
  bg_scheduled_ = false;
  bg_cv_.SignalAll();
  return s;
}

Status DBImpl::Flush() {
  PendingEvents events;
  Status s;
  {
    MutexLock lock(&mu_);
    s = FlushLocked(&events);
  }
  NotifyListeners(&events);
  return s;
}

Status DBImpl::FlushLocked(PendingEvents* events) {
  if (bg_pool_ == nullptr) {
    // Inline mode: the caller is the worker. Flush only; compactions wait
    // for the next write that fills the memtable.
    return FlushOnCallerLocked(events);
  }
  // Background mode: freeze (waiting for a previous freeze to drain and
  // for any in-flight group commit to leave the WAL idle — freezing
  // rotates it), then wait until the background worker installs the flush.
  while ((imm_ != nullptr || log_busy_) && bg_error_.ok()) {
    bg_cv_.Wait();
  }
  if (!bg_error_.ok()) {
    return bg_error_;
  }
  if (mem_->num_entries() > 0) {
    Status s = FreezeMemTableLocked();
    if (!s.ok()) {
      return s;
    }
    MaybeScheduleBackgroundWork(events);
    while (imm_ != nullptr && bg_error_.ok()) {
      bg_cv_.Wait();
    }
  }
  return bg_error_;
}

Status DBImpl::CompactAll() {
  PendingEvents events;
  Status s;
  {
    MutexLock lock(&mu_);
    s = CompactAllLocked(&events);
  }
  NotifyListeners(&events);
  return s;
}

Status DBImpl::CompactAllLocked(PendingEvents* events) {
  // Take the compaction token: background work already running finishes
  // first, and the worker — a pool thread or an inline writer — then
  // leaves compaction picks to us (its flushes of frozen memtables remain
  // fine — they only add newer L0 runs, which never invalidates a pick of
  // older files).
  manual_compaction_ = true;
  Status s = FlushOnCallerLocked(events);
  if (s.ok()) {
    s = MaybeCompact(events);
  }
  // Major compaction: merge level by level until the whole tree is a
  // single sorted run at the deepest populated level, so bottom-level
  // garbage (shadowed versions, spent tombstones) is fully collected.
  while (s.ok()) {
    // The version is not held across the merge: each install frees what
    // it removes.
    std::optional<CompactionPick> pick =
        PickMajorCompaction(*versions_->current(), options_);
    if (!pick.has_value()) {
      break;
    }
    s = DoCompaction(std::move(*pick), events);
  }
  manual_compaction_ = false;
  MaybeScheduleBackgroundWork(events);
  return s;
}

void DBImpl::ReconfigureMonkeyLocked(int output_level) {
  if (options_.filter_allocation != FilterAllocation::kMonkey) {
    return;
  }
  // Monkey's optimum depends on the number of levels; re-derive it for the
  // tree's current depth so the budget matches the uniform baseline at
  // equal average bits/key. Newly built tables pick up the new bits; old
  // tables keep their (self-describing) filters until rewritten.
  const int depth =
      std::min(options_.max_levels,
               std::max({versions_->current()->MaxPopulatedLevel() + 1,
                         output_level + 1, 1}));
  table_cache_->ConfigureFilterBits(MonkeyBitsPerLevel(
      options_.filter_bits_per_key, depth, options_.size_ratio));
}

SequenceNumber DBImpl::SmallestSnapshotLocked() const {
  if (snapshots_.empty()) {
    return versions_->last_sequence();
  }
  return *snapshots_.begin();
}

// ------------------------------------------------------------ Compaction --

Status DBImpl::MaybeCompact(PendingEvents* events) {
  Status s;
  while (s.ok()) {
    auto pick = policy_->Pick(*versions_->current());
    if (!pick.has_value()) {
      break;
    }
    s = DoCompaction(std::move(*pick), events);
  }
  return s;
}

template <typename JobInfo>
void DBImpl::FinishJob(std::chrono::steady_clock::time_point start,
                       PhaseHistogram phase, uint64_t PerfContext::*micros,
                       std::span<const FileMetaData> outputs, int level,
                       JobInfo info,
                       void (EventListener::*on_end)(const JobInfo&),
                       PendingEvents* events) {
  info.micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  GetPerfContext()->*micros += info.micros;
  stats_.Record(phase, static_cast<double>(info.micros));
  if (!has_listeners()) {
    return;
  }
  info.db_name = dbname_;
  for (const FileMetaData& meta : outputs) {
    info.outputs.push_back(MakeTableFileInfo(meta, level));
    const TableFileInfo created = info.outputs.back();
    events->push_back(
        [created](EventListener& l) { l.OnTableFileCreated(created); });
  }
  events->push_back([info = std::move(info), on_end](EventListener& l) {
    (l.*on_end)(info);
  });
}

Status DBImpl::DoCompaction(CompactionPick pick, PendingEvents* events) {
  stats_.Add(Ticker::kCompactions);
  ReconfigureMonkeyLocked(pick.output_level);
  const auto start = std::chrono::steady_clock::now();
  const bool drop_only = pick.drop_only;
  CompactionJobInfo info;
  info.input_level = pick.level;
  info.output_level = pick.output_level;
  if (!drop_only && has_listeners()) {
    for (const FileMetaPtr& f : pick.inputs) {
      info.inputs.push_back(MakeTableFileInfo(*f, pick.level));
    }
    for (const FileMetaPtr& f : pick.output_overlaps) {
      info.inputs.push_back(MakeTableFileInfo(*f, pick.output_level));
    }
    CompactionJobInfo begin = info;
    begin.db_name = dbname_;
    events->push_back(
        [begin](EventListener& l) { l.OnCompactionBegin(begin); });
  }
  // Fixed before a merge starts: a flush the merge overlaps takes a newer
  // run.
  const uint64_t run_seq = drop_only || pick.output_run_seq != 0
                               ? pick.output_run_seq
                               : versions_->NewRunSeq();
  // The job holds no version: each install frees the inputs it removes.
  CompactionJob job(
      std::move(pick), *versions_->current(), table_cache_.get(),
      versions_.get(), SmallestSnapshotLocked(), run_seq,
      test_subcompaction_helpers_.load(),
      [this](VersionEdit* edit) { return InstallCompactionEdit(edit); });
  if (job.move()) {
    stats_.Add(Ticker::kCompactionMoves);
  }
  // Run with the lock released: the inputs are immutable files pinned by
  // the pick's shared_ptrs, so reads and writes proceed during the heavy
  // lifting. Compactions themselves never race — they are serialized on
  // the background thread (or excluded by the manual-compaction token).
  mu_.Unlock();
  const Status s = job.Run();
  mu_.Lock();
  if (drop_only) {
    return s;
  }
  uint64_t installed_bytes = 0;
  for (const FileMetaData& meta : job.installed()) {
    installed_bytes += meta.file_size;
  }
  stats_.Add(Ticker::kBytesCompacted, installed_bytes);
  stats_.Add(Ticker::kTableFilesCreated, job.installed().size());
  info.bytes_written = job.bytes_written();
  info.moved = job.move();
  info.status = s;
  FinishJob(start, PhaseHistogram::kCompactionMicros,
            &PerfContext::compaction_micros, job.installed(),
            info.output_level, std::move(info),
            &EventListener::OnCompactionEnd, events);
  return s;
}

Status DBImpl::InstallCompactionEdit(VersionEdit* edit) {
  MutexLock lock(&mu_);
  // The manifest install must be atomic with the version swap, so it runs
  // under mu_ by design.
  ScopedBlockingIoAllowed allow_io("compaction manifest install");
  // io-under-lock-ok: manifest install is atomic with the version swap.
  return versions_->LogAndApply(edit);
}

// -------------------------------------------------------------- Read path --

DBImpl::ReadView DBImpl::PinReadView(const ReadOptions& options) {
  ReadView view;
  MutexLock lock(&mu_);
  view.mem = mem_;
  view.mem->Ref();
  view.imm = imm_;
  if (view.imm != nullptr) {
    view.imm->Ref();
  }
  view.version = versions_->current();
  view.sequence = options.snapshot != nullptr ? options.snapshot->sequence()
                                              : versions_->last_sequence();
  return view;
}

namespace {

/// User iterator that resolves separated values through the value log on
/// each value() call, so a row whose value is never read costs no
/// value-log read. A failed resolution invalidates the iterator.
class ResolvingIterator : public Iterator {
 public:
  ResolvingIterator(Iterator* base, DBImpl* db) : base_(base), db_(db) {}

  bool Valid() const override { return status_.ok() && base_->Valid(); }
  void SeekToFirst() override { base_->SeekToFirst(); }
  void SeekToLast() override { base_->SeekToLast(); }
  void Seek(const Slice& t) override { base_->Seek(t); }
  void Next() override { base_->Next(); }
  void Prev() override { base_->Prev(); }
  Slice key() const override { return base_->key(); }
  Slice value() const override {
    Status s = db_->ResolveValue(base_->value(), &value_);
    if (!s.ok() && status_.ok()) {
      status_ = s;
    }
    return Slice(value_);
  }
  Status status() const override {
    return status_.ok() ? base_->status() : status_;
  }

 private:
  std::unique_ptr<Iterator> base_;
  DBImpl* db_;
  mutable std::string value_;
  mutable Status status_;
};

}  // namespace

Iterator* DBImpl::NewReadIterator(const ReadOptions& options,
                                  const KeyRange* range,
                                  bool resolve_values) {
  ReadView view = PinReadView(options);
  std::vector<Iterator*> children;
  children.push_back(view.mem->NewIterator());
  if (view.imm != nullptr) {
    children.push_back(view.imm->NewIterator());
  }
  view.mem->Unref();
  if (view.imm != nullptr) {
    view.imm->Unref();
  }
  const Comparator* ucmp = icmp_.user_comparator();
  for (int level = 0; level < view.version->num_levels(); level++) {
    for (const Run& run : view.version->levels()[level].runs) {
      // Fence pointers narrow the run to the files overlapping [lo, hi]
      // without opening any table.
      const std::span<const FileMetaPtr> files =
          range != nullptr
              ? FenceSearch(run.files, *ucmp, &range->lo, &range->hi)
              : std::span<const FileMetaPtr>(run.files);
      if (!files.empty()) {
        children.push_back(table_cache_->NewRunIterator(files, level, range));
      }
    }
  }
  Iterator* merged = NewMergingIterator(&icmp_, children.data(),
                                        static_cast<int>(children.size()));
  Iterator* iter = NewDBIterator(ucmp, merged, view.sequence);
  if (!resolve_values || vlog_ == nullptr) {
    return iter;
  }
  return new ResolvingIterator(iter, this);
}

Iterator* DBImpl::NewIterator(const ReadOptions& options) {
  return NewReadIterator(options, nullptr, /*resolve_values=*/true);
}

Status DBImpl::Scan(
    const ReadOptions& options, const Slice& start, const Slice& end,
    size_t limit,
    std::vector<std::pair<std::string, std::string>>* results) {
  const KeyRange range{start, end};
  return CollectRange(
      [&] { return NewReadIterator(options, &range, /*resolve_values=*/true); },
      range, limit, results);
}

Status DBImpl::CollectRange(
    const std::function<Iterator*()>& open, const KeyRange& range,
    size_t limit,
    std::vector<std::pair<std::string, std::string>>* results) {
  // Like Get: per-thread counters during the scan, one registry fold after.
  PerfContext* perf = GetPerfContext();
  const PerfContext before = *perf;
  results->clear();
  std::unique_ptr<Iterator> iter(open());
  const Comparator* ucmp = icmp_.user_comparator();
  for (iter->Seek(range.lo); iter->Valid() && results->size() < limit;
       iter->Next()) {
    if (ucmp->Compare(iter->key(), range.hi) > 0) {
      break;
    }
    results->emplace_back(iter->key().ToString(), iter->value().ToString());
    if (results->size() == limit) {
      break;  // never step past the last row
    }
  }
  const Status s = iter->status();
  stats_.MergePerfDelta(perf->Delta(before));
  return s;
}

const Snapshot* DBImpl::GetSnapshot() {
  MutexLock lock(&mu_);
  const SequenceNumber seq = versions_->last_sequence();
  snapshots_.insert(seq);
  return new SnapshotImpl(seq);
}

void DBImpl::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) {
    return;
  }
  MutexLock lock(&mu_);
  auto it = snapshots_.find(snapshot->sequence());
  if (it != snapshots_.end()) {
    snapshots_.erase(it);
  }
  delete snapshot;
}

// ------------------------------------------------------------------ Stats --

DBStats TickerStats(const StatsSnapshot& snap) {
  DBStats stats;
  stats.bytes_flushed = snap.Get(Ticker::kBytesFlushed);
  stats.bytes_compacted = snap.Get(Ticker::kBytesCompacted);
  stats.compactions = snap.Get(Ticker::kCompactions);
  stats.flushes = snap.Get(Ticker::kFlushes);
  stats.writes = snap.Get(Ticker::kWrites);
  stats.group_commits = snap.Get(Ticker::kWalGroupCommits);
  stats.group_followers = snap.Get(Ticker::kWalGroupFollowers);
  stats.wal_syncs = snap.Get(Ticker::kWalSyncs);
  stats.wal_sync_skipped = snap.Get(Ticker::kWalSyncSkipped);
  stats.vlog_syncs = snap.Get(Ticker::kVlogSyncs);
  stats.parallel_applies = snap.Get(Ticker::kMemtableParallelApplies);
  stats.serial_applies = snap.Get(Ticker::kMemtableSerialApplies);
  stats.insert_cas_retries = snap.Get(Ticker::kMemtableInsertCasRetries);
  stats.write_slowdowns = snap.Get(Ticker::kWriteSlowdowns);
  stats.write_stalls = snap.Get(Ticker::kWriteStalls);
  stats.write_slowdown_micros = snap.Get(Ticker::kWriteSlowdownMicros);
  stats.write_stall_micros = snap.Get(Ticker::kWriteStallMicros);
  stats.gets = snap.Get(Ticker::kGets);
  stats.gets_found = snap.Get(Ticker::kGetsFound);
  stats.memtable_hits = snap.Get(Ticker::kMemtableHits);
  stats.runs_probed = snap.Get(Ticker::kRunsProbed);
  stats.filter_skips = snap.Get(Ticker::kFilterSkips);
  stats.range_filter_skips = snap.Get(Ticker::kRangeFilterSkips);
  stats.hash_index_hits = snap.Get(Ticker::kHashIndexHits);
  stats.hash_index_absent = snap.Get(Ticker::kHashIndexAbsent);
  stats.learned_index_seeks = snap.Get(Ticker::kLearnedIndexSeeks);
  stats.multigets = snap.Get(Ticker::kMultiGets);
  stats.multiget_keys = snap.Get(Ticker::kMultiGetKeys);
  stats.multiget_filter_pruned = snap.Get(Ticker::kMultiGetFilterPruned);
  stats.multiget_coalesced_block_hits =
      snap.Get(Ticker::kMultiGetCoalescedBlockHits);
  stats.separated_reads = snap.Get(Ticker::kSeparatedReads);
  return stats;
}

void DBImpl::AddShapeAndGauges(DBStats* stats) {
  MutexLock lock(&mu_);
  VersionPtr v = versions_->current();
  const std::vector<LevelState>& levels = v->levels();
  stats->num_levels = std::max(stats->num_levels, v->num_levels());
  stats->total_runs += v->TotalRuns();
  stats->total_files += v->NumFiles();
  if (stats->runs_per_level.size() < levels.size()) {
    stats->runs_per_level.resize(levels.size(), 0);
    stats->bytes_per_level.resize(levels.size(), 0);
  }
  for (size_t i = 0; i < levels.size(); i++) {
    stats->runs_per_level[i] += static_cast<int>(levels[i].runs.size());
    stats->bytes_per_level[i] += levels[i].TotalBytes();
    stats->total_bytes += levels[i].TotalBytes();
  }
  stats->index_filter_memory += table_cache_->IndexMemoryUsage();
  if (vlog_ != nullptr) {
    stats->value_log_bytes += vlog_->TotalBytes();
    stats->value_log_files += vlog_->NumFiles();
  }
}

DBStats DBImpl::GetStats() {
  DBStats stats = TickerStats(stats_.Snapshot());
  AddShapeAndGauges(&stats);
  return stats;
}

bool DBImpl::GetProperty(const Slice& property, std::string* value) {
  value->clear();
  if (property == Slice("lsmlab.stats")) {
    *value = stats_.Snapshot().ToString();
    return true;
  }
  if (property == Slice("lsmlab.perf-context")) {
    *value = GetPerfContext()->ToString(/*include_zero=*/true);
    return true;
  }
  if (property == Slice("lsmlab.io-stats")) {
    *value = options_.env->io_stats()->ToString();
    return true;
  }
  return false;
}

std::string DBImpl::DebugShape() {
  MutexLock lock(&mu_);
  std::string shape = versions_->current()->DebugString();
  shape += "last_sequence=" + std::to_string(versions_->last_sequence()) +
           " log_number=" + std::to_string(versions_->log_number()) +
           " wal_number=" + std::to_string(wal_number_) + "\n";
  return shape;
}

}  // namespace lsmlab
