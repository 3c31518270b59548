// Group-commit write path: the only module allowed to append to or sync
// the WAL (tools/lint.sh bans wal_->AddRecord / wal_file_->Sync anywhere
// else; annotate deliberate exceptions with group-commit-ok:).
//
// Protocol (the LevelDB/RocksDB writer queue):
//
//   1. Every DBImpl::Write first separates large values into the value log
//      when key-value separation is on, re-encoding the caller's batch into
//      a writer-owned one (the caller's batch is never rewritten). It then
//      parks a Writer{batch, sync, cv} in writers_. The front of the queue
//      is the leader; everyone else sleeps on a per-writer CondVar.
//   2. The leader first makes room (MakeRoomForWrite): a full memtable is
//      frozen and handed to the worker, which in inline mode runs right
//      there on the leader. A failed flush thus fails the group before
//      any of it is applied.
//      The leader then claims a prefix of the queue up to a size cap and
//      concatenates the members into one batch with contiguous sequence
//      numbers, noting each member's base within it. It sets log_busy_
//      and RELEASES mu_ for its commit window: the single WAL append, the
//      sync the durability mode calls for (preceded by ValueLog::Sync,
//      which fsyncs only if the value log holds unsynced values), and the
//      memtable insert. Readers and the background thread proceed under
//      mu_ meanwhile; only WAL rotation (memtable freeze) must wait for
//      log_busy_ to clear.
//   3. Once the record is in the WAL, the group is inserted into the
//      memtable, always outside mu_ and always through ApplyMemberThenLock.
//      A single-writer group, or any group when
//      Options::allow_concurrent_memtable_write is off, is inserted by the
//      leader alone. Otherwise the leader wakes the followers and every
//      member, leader included, inserts its own batch at its base through
//      the memtable's concurrent path. The last member to report in wakes
//      the leader.
//   4. The leader publishes last_sequence once, after the whole group is
//      in (so no reader observes a partial group), clears log_busy_, pops
//      the group — completing each follower with the group status — and
//      signals the next queued writer to lead. An insert failure fails
//      the group and poisons bg_error_, since the WAL already holds it.
//
// Mixed-group sync semantics: one group containing any sync writer syncs
// once for all members. The interval/bytes modes additionally bound the
// staleness of non-sync writes by time or by unsynced WAL bytes; a sync
// writer still forces a sync for its group in every mode.

#include <algorithm>
#include <cassert>
#include <chrono>

#include "core/db_impl.h"
#include "obs/perf_context.h"

namespace lsmlab {

struct DBImpl::Writer {
  explicit Writer(Mutex* mu) : cv(mu) {}

  WriteBatch* batch = nullptr;
  bool sync = false;
  bool done = false;
  // Parallel group apply: the leader sets parallel_base while building the
  // group and parallel_apply once the group is in the WAL, both under mu_;
  // the member then inserts its own batch at parallel_base outside mu_ and
  // parks again until done.
  SequenceNumber parallel_base = 0;
  bool parallel_apply = false;
  Status status;
  CondVar cv;
};

Status DBImpl::Put(const WriteOptions& options, const Slice& key,
                   const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(options, &batch);
}

Status DBImpl::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, &batch);
}

Status DBImpl::Write(const WriteOptions& options, WriteBatch* updates) {
  PerfContext* perf = GetPerfContext();
  const PerfContext before = *perf;
  PendingEvents events;
  Status s;
  {
    PerfTimer timer(&perf->write_micros);
    s = WriteImpl(options, updates, &events);
  }
  stats_.Add(Ticker::kWrites);
  stats_.Record(PhaseHistogram::kWriteMicros,
                static_cast<double>(perf->write_micros - before.write_micros));
  stats_.MergePerfDelta(perf->Delta(before));
  NotifyListeners(&events);
  return s;
}

Status DBImpl::WriteImpl(const WriteOptions& options, WriteBatch* updates,
                         PendingEvents* events) {
  Writer w(&mu_);
  w.batch = updates;
  w.sync = options.sync;

  WriteBatch separated;
  if (vlog_ != nullptr) {
    // The group is the concatenation of already-separated members, so
    // each member's batch is exactly its share of the WAL record.
    Status s = SeparateBatch(*updates, &separated);
    if (!s.ok()) {
      return s;
    }
    w.batch = &separated;
  }

  mu_.Lock();
  writers_.push_back(&w);
  if (&w != writers_.front()) {
    const auto park_start = std::chrono::steady_clock::now();
    while (!w.done && !w.parallel_apply && &w != writers_.front()) {
      w.cv.Wait();
    }
    GetPerfContext()->write_queue_wait_micros += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - park_start)
            .count());
    if (w.parallel_apply) {
      // Woken mid-group to insert our own batch; the leader still owns
      // the group and reports its status.
      MemTable* mem = mem_;
      mu_.Unlock();
      ApplyMemberThenLock(*w.batch, w.parallel_base, mem,
                          /*concurrent=*/true);
      while (!w.done) {
        w.cv.Wait();
      }
    }
    if (w.done) {
      // A leader committed (or failed) this batch on our behalf.
      const Status s = w.status;
      mu_.Unlock();
      return s;
    }
  }

  // This writer leads. Make room first so the group lands in the memtable
  // and WAL that will stay current (a freeze rotates both). Fails with
  // bg_error_ once a prior failure poisoned the DB — a failed
  // flush/compaction, or a group whose WAL record landed but whose commit
  // could not complete. May release and reacquire mu_; writers arriving
  // meanwhile queue behind us.
  Status s = MakeRoomForWrite(events);

  Writer* last_writer = &w;
  if (s.ok()) {
    const SequenceNumber base = versions_->last_sequence() + 1;
    bool group_sync = false;
    uint64_t writer_count = 1;
    WriteBatch* group =
        BuildWriteGroupLocked(base, &last_writer, &group_sync, &writer_count);
    const bool parallel =
        writer_count > 1 && options_.allow_concurrent_memtable_write;
    apply_pending_ = parallel ? writer_count : 1;
    apply_status_ = Status::OK();
    // Raw pointers for the unlocked window: log_busy_ keeps rotation out,
    // so neither the WAL nor the memtable can be replaced while we use
    // them.
    wal::Writer* wal = wal_.get();
    WritableFile* wal_file = wal_file_.get();
    MemTable* mem = mem_;

    log_busy_ = true;
    mu_.Unlock();

    PerfContext* perf = GetPerfContext();
    group->set_sequence(base);
    const bool want_sync =
        ShouldSyncWal(group_sync, group->Contents().size());
    bool synced = false;
    bool wal_appended = false;
    if (want_sync) {
      // WiscKey durability order: separated values must be durable before
      // their pointers are. A WAL fsync makes every pointer record
      // appended so far durable, whichever group separated its value, so
      // it is preceded by a value-log fsync whenever the value log holds
      // unsynced values.
      s = SyncValueLog();
    }
    if (s.ok() && wal != nullptr) {
      s = wal->AddRecord(group->Contents());
      if (s.ok()) {
        wal_appended = true;
        perf->wal_append_count++;
        wal_unsynced_bytes_ += group->Contents().size();
        if (want_sync) {
          s = wal_file->Sync();
          if (s.ok()) {
            perf->wal_sync_count++;
            synced = true;
            wal_unsynced_bytes_ = 0;
            last_wal_sync_ = std::chrono::steady_clock::now();
          }
        }
      }
    }
    stats_.Add(Ticker::kWalGroupCommits);
    if (writer_count > 1) {
      stats_.Add(Ticker::kWalGroupFollowers, writer_count - 1);
    }
    if (!synced) {
      stats_.Add(Ticker::kWalSyncSkipped);
    }
    stats_.Record(PhaseHistogram::kWriteGroupSize,
                  static_cast<double>(writer_count));

    if (s.ok()) {
      const auto apply_start = std::chrono::steady_clock::now();
      stats_.Add(parallel ? Ticker::kMemtableParallelApplies
                          : Ticker::kMemtableSerialApplies);
      if (parallel) {
        MutexLock lock(&mu_);
        for (auto it = writers_.begin() + 1;; ++it) {
          (*it)->parallel_apply = true;
          (*it)->cv.Signal();
          if (*it == last_writer) {
            break;
          }
        }
      }
      ApplyMemberThenLock(parallel ? *w.batch : *group, base, mem, parallel);
      while (apply_pending_ > 0) {
        apply_cv_.Wait();
      }
      s = apply_status_;
      stats_.Record(
          PhaseHistogram::kMemtableApplyMicros,
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - apply_start)
                  .count()));
    } else {
      mu_.Lock();
    }
    if (s.ok()) {
      versions_->SetLastSequence(base + group->Count() - 1);
    } else if (wal_appended && bg_error_.ok()) {
      // The WAL holds this group's record, but every member will be told
      // the write failed and last_sequence did not advance: the next
      // group would reuse the same sequence numbers, and recovery would
      // replay writes the client saw fail. Poison the DB (LevelDB's
      // RecordBackgroundError posture) so no later write can commit
      // against the divergent log.
      bg_error_ = s;
    }
    log_busy_ = false;
    // Freeze/flush waiters park on bg_cv_ until the commit window closes.
    bg_cv_.SignalAll();

    if (s.ok() &&
        pending_seek_compaction_.exchange(false, std::memory_order_relaxed)) {
      // Reads flagged a file that keeps wasting probes; hand it to the
      // background worker (tutorial I-2 trigger primitive). In inline mode
      // this write runs the compaction; a failure there is sticky in
      // bg_error_ and fails the next write, not this committed one.
      bg_compaction_hint_ = true;
      MaybeScheduleBackgroundWork(events);
    }
  }

  // Complete the group: pop [leader .. last_writer], waking each follower
  // with the group status (a leader error fails every member), then hand
  // leadership to the next queued writer. On a MakeRoomForWrite failure no
  // group was built and last_writer == &w, so only the leader pops.
  while (true) {
    Writer* ready = writers_.front();
    writers_.pop_front();
    if (ready != &w) {
      ready->status = s;
      ready->done = true;
      ready->cv.Signal();
    }
    if (ready == last_writer) {
      break;
    }
  }
  if (!writers_.empty()) {
    writers_.front()->cv.Signal();
  }
  mu_.Unlock();
  return s;
}

WriteBatch* DBImpl::BuildWriteGroupLocked(SequenceNumber base,
                                          Writer** last_writer,
                                          bool* group_sync,
                                          uint64_t* writer_count) {
  Writer* leader = writers_.front();
  size_t bytes = leader->batch->ApproximateSize();
  // Cap group growth so one commit cannot balloon its members' latency; a
  // small leader picks up at most ~128 KiB of followers, so a tiny write
  // is never stuck behind a megabyte of concatenation.
  size_t max_bytes = options_.max_write_group_bytes;
  if (bytes <= (128u << 10)) {
    max_bytes = std::min(max_bytes, bytes + (128u << 10));
  }

  *group_sync = leader->sync;
  *last_writer = leader;
  *writer_count = 1;
  WriteBatch* group = leader->batch;
  for (auto it = writers_.begin() + 1; it != writers_.end(); ++it) {
    Writer* follower = *it;
    if (bytes + follower->batch->ApproximateSize() > max_bytes) {
      break;
    }
    if (group == leader->batch) {
      // First follower: switch to the scratch batch (leader-owned while
      // we sit at the queue front) so the caller's batch stays intact.
      group_batch_.Clear();
      group_batch_.Append(*leader->batch);
      group = &group_batch_;
    }
    follower->parallel_base = base + group_batch_.Count();
    group_batch_.Append(*follower->batch);
    bytes += follower->batch->ApproximateSize();
    *group_sync = *group_sync || follower->sync;
    *last_writer = follower;
    ++(*writer_count);
  }
  return group;
}

void DBImpl::ApplyMemberThenLock(const WriteBatch& batch, SequenceNumber base,
                                 MemTable* mem, bool concurrent) {
  Status s = apply_hook_ ? apply_hook_(batch) : Status::OK();
  if (s.ok() && concurrent) {
    uint64_t cas_retries = 0;
    s = batch.InsertIntoConcurrent(mem, base, &cas_retries);
    GetPerfContext()->memtable_insert_cas_retries += cas_retries;
  } else if (s.ok()) {
    assert(batch.sequence() == base);
    s = batch.InsertInto(mem);
  }
  mu_.Lock();
  if (!s.ok() && apply_status_.ok()) {
    apply_status_ = s;
  }
  assert(apply_pending_ > 0);
  if (--apply_pending_ == 0) {
    apply_cv_.Signal();
  }
}

bool DBImpl::ShouldSyncWal(bool group_sync, uint64_t record_bytes) const {
  // A group containing a sync writer syncs in every mode — an application
  // mixing a relaxed mode with an occasional must-be-durable write (a
  // commit marker, say) keeps its guarantee. The interval/bytes policies
  // only add syncs for non-sync traffic, bounding its staleness.
  switch (options_.wal_sync_mode) {
    case WalSyncMode::kSyncEveryCommit:
      return group_sync;
    case WalSyncMode::kSyncIntervalMs:
      return group_sync ||
             std::chrono::steady_clock::now() - last_wal_sync_ >=
                 std::chrono::milliseconds(options_.wal_sync_interval_ms);
    case WalSyncMode::kSyncBytes:
      return group_sync ||
             wal_unsynced_bytes_ + record_bytes >= options_.wal_sync_bytes;
  }
  return group_sync;
}

// -------------------------------------------------- Key-value separation --

namespace {

/// Batch rewriter: moves large values into the value log.
class SeparatingHandler : public WriteBatch::Handler {
 public:
  SeparatingHandler(ValueLog* vlog, size_t threshold, WriteBatch* out)
      : vlog_(vlog), threshold_(threshold), out_(out) {}

  void Put(const Slice& key, const Slice& value) override {
    if (!status_.ok()) {
      return;
    }
    std::string stored;
    if (value.size() >= threshold_) {
      stored.push_back(kVlogPointerTag);
      std::string pointer;
      status_ = vlog_->Add(value, &pointer);
      if (!status_.ok()) {
        return;
      }
      stored.append(pointer);
    } else {
      stored.push_back(kVlogInlineTag);
      stored.append(value.data(), value.size());
    }
    out_->Put(key, stored);
  }

  void Delete(const Slice& key) override { out_->Delete(key); }

  Status status() const { return status_; }

 private:
  ValueLog* vlog_;
  size_t threshold_;
  WriteBatch* out_;
  Status status_;
};

}  // namespace

Status DBImpl::SeparateBatch(const WriteBatch& updates,
                             WriteBatch* separated) {
  SeparatingHandler handler(vlog_.get(), options_.value_separation_threshold,
                            separated);
  Status s = updates.Iterate(&handler);
  if (s.ok()) {
    s = handler.status();
  }
  return s;
}

Status DBImpl::SyncValueLog() {
  bool synced = false;
  Status s = vlog_ != nullptr ? vlog_->Sync(&synced) : Status::OK();
  if (synced) {
    stats_.Add(Ticker::kVlogSyncs);
  }
  return s;
}

}  // namespace lsmlab
