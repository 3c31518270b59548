// Group commit (src/core/db_write.cc): concurrent writers fold into
// leader-built groups with contiguous sequences, mixed sync/non-sync
// groups sync once, a leader error fails every member, and redundant
// value-log syncs are skipped. Run under -DLSMLAB_SANITIZE=thread (the
// tsan-obs CI leg) to prove the queue handoff and the unlocked WAL window
// are race-free.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/db.h"
#include "core/db_impl.h"
#include "core/write_batch.h"
#include "storage/env.h"
#include "util/coding.h"

namespace lsmlab {
namespace {

bool IsWalFile(const std::string& fname) {
  return fname.size() > 4 &&
         fname.compare(fname.size() - 4, 4, ".wal") == 0;
}

bool IsTableFile(const std::string& fname) {
  return fname.size() > 4 &&
         fname.compare(fname.size() - 4, 4, ".sst") == 0;
}

bool IsVlogFile(const std::string& fname) {
  return fname.size() > 5 &&
         fname.compare(fname.size() - 5, 5, ".vlog") == 0;
}

/// Env wrapper that gates WAL durability: Sync on .wal files blocks while
/// the gate is closed (parking a group-commit leader mid-commit, with mu_
/// released, so followers can pile up behind it deterministically), can
/// be slowed by a fixed delay (so concurrent writers keep forming groups),
/// and the next .wal Append can be armed to fail (exercising leader-error
/// propagation).
class WalGateEnv : public Env {
 public:
  explicit WalGateEnv(Env* base) : base_(base) {}

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    if (fail_tables_.load() && IsTableFile(fname)) {
      return Status::IOError("injected table creation failure");
    }
    std::unique_ptr<WritableFile> file;
    Status s = base_->NewWritableFile(fname, &file);
    if (!s.ok()) {
      return s;
    }
    if (IsWalFile(fname)) {
      *result = std::make_unique<GatedWalFile>(this, std::move(file));
    } else if (IsVlogFile(fname)) {
      *result = std::make_unique<CountingVlogFile>(this, std::move(file));
    } else {
      *result = std::move(file);
    }
    return s;
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }

  void CloseSyncGate() {
    std::lock_guard<std::mutex> lock(mu_);
    gate_closed_ = true;
  }
  void OpenSyncGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      gate_closed_ = false;
    }
    cv_.notify_all();
  }
  int sync_waiters() {
    std::lock_guard<std::mutex> lock(mu_);
    return sync_waiters_;
  }
  void SetSyncDelay(std::chrono::microseconds delay) {
    sync_delay_us_.store(delay.count());
  }
  void FailNextAppend() { fail_next_append_.store(true); }
  /// Every later table (.sst) creation fails: flushes cannot build output.
  void FailTableFiles() { fail_tables_.store(true); }
  void FailNextSync() { fail_next_sync_.store(true); }

  int wal_appends() const { return wal_appends_.load(); }
  int wal_syncs() const { return wal_syncs_.load(); }
  /// File-level fsyncs of .vlog files.
  int vlog_syncs() const { return vlog_syncs_.load(); }

 private:
  class GatedWalFile : public WritableFile {
   public:
    GatedWalFile(WalGateEnv* env, std::unique_ptr<WritableFile> base)
        : env_(env), base_(std::move(base)) {}

    Status Append(const Slice& data) override {
      if (env_->fail_next_append_.exchange(false)) {
        return Status::IOError("injected WAL append failure");
      }
      env_->wal_appends_.fetch_add(1);
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      {
        std::unique_lock<std::mutex> lock(env_->mu_);
        env_->sync_waiters_++;
        env_->cv_.wait(lock, [this] { return !env_->gate_closed_; });
        env_->sync_waiters_--;
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(env_->sync_delay_us_.load()));
      if (env_->fail_next_sync_.exchange(false)) {
        return Status::IOError("injected WAL sync failure");
      }
      env_->wal_syncs_.fetch_add(1);
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    WalGateEnv* env_;
    std::unique_ptr<WritableFile> base_;
  };

  class CountingVlogFile : public WritableFile {
   public:
    CountingVlogFile(WalGateEnv* env, std::unique_ptr<WritableFile> base)
        : env_(env), base_(std::move(base)) {}

    Status Append(const Slice& data) override { return base_->Append(data); }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      env_->vlog_syncs_.fetch_add(1);
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    WalGateEnv* env_;
    std::unique_ptr<WritableFile> base_;
  };

  Env* const base_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool gate_closed_ = false;
  int sync_waiters_ = 0;
  std::atomic<int64_t> sync_delay_us_{0};
  std::atomic<bool> fail_next_append_{false};
  std::atomic<bool> fail_next_sync_{false};
  std::atomic<bool> fail_tables_{false};
  std::atomic<int> wal_appends_{0};
  std::atomic<int> wal_syncs_{0};
  std::atomic<int> vlog_syncs_{0};
};

std::string TestKey(int writer, int n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "w%d_%06d", writer, n);
  return buf;
}

// Waits (bounded) until `pred` holds; the staging below depends on other
// threads reaching known parked states, not on timing-sensitive sleeps.
template <typename Pred>
bool WaitFor(const Pred& pred, int timeout_ms = 10000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

// N concurrent writers: every write acknowledged, each with a distinct
// sequence, and the final sequence accounts for exactly N*K entries (no
// gaps, no double-assignment between racing leaders).
TEST(WriteGroupTest, ConcurrentWritersGetContiguousSequences) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/wg_seq", &db).ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        WriteOptions wo;
        wo.sync = (i % 7 == 0);  // mixed sync/non-sync traffic
        if (!db->Put(wo, TestKey(t, i), TestKey(t, i) + "_v").ok()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(errors.load(), 0);

  // Sequences are assigned per entry from last_sequence; N*K acknowledged
  // single-entry batches must land exactly N*K sequence numbers.
  const Snapshot* snap = db->GetSnapshot();
  EXPECT_EQ(snap->sequence(), static_cast<uint64_t>(kThreads * kPerThread));
  db->ReleaseSnapshot(snap);

  std::string value;
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPerThread; i++) {
      ASSERT_TRUE(db->Get({}, TestKey(t, i), &value).ok());
      ASSERT_EQ(value, TestKey(t, i) + "_v");
    }
  }

  // Ticker reconciliation: every write was a leader or a follower, and
  // every group either synced or was counted as skipped.
  const DBStats stats = db->GetStats();
  EXPECT_EQ(stats.writes, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.group_commits + stats.group_followers, stats.writes);
  EXPECT_EQ(stats.wal_syncs + stats.wal_sync_skipped, stats.group_commits);
}

// Stages a deterministic group: writer X leads alone and parks inside the
// gated WAL sync (mu_ released); writers A (sync), B, C (non-sync) queue
// behind it. Opening the gate lets X finish; A then leads {A,B,C} as one
// group that appends once and — because one member wants durability —
// syncs exactly once for all three.
TEST(WriteGroupTest, MixedSyncGroupSyncsExactlyOnce) {
  std::unique_ptr<Env> base(NewMemEnv());
  WalGateEnv gate(base.get());
  Options options;
  options.env = &gate;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/wg_mixed", &db).ok());
  DBImpl* impl = static_cast<DBImpl*>(db.get());

  gate.CloseSyncGate();
  WriteOptions sync_wo;
  sync_wo.sync = true;

  std::thread x([&] { EXPECT_TRUE(db->Put(sync_wo, "x", "xv").ok()); });
  // X is leader and parked inside Sync with the DB mutex released.
  ASSERT_TRUE(WaitFor([&] { return gate.sync_waiters() == 1; }));

  std::thread a([&] { EXPECT_TRUE(db->Put(sync_wo, "a", "av").ok()); });
  std::thread b([&] { EXPECT_TRUE(db->Put({}, "b", "bv").ok()); });
  std::thread c([&] { EXPECT_TRUE(db->Put({}, "c", "cv").ok()); });
  // All three are queued behind the parked leader.
  ASSERT_TRUE(WaitFor([&] { return impl->TEST_WriteQueueLength() == 4; }));

  gate.OpenSyncGate();
  x.join();
  a.join();
  b.join();
  c.join();

  // Two groups: {X} and {A,B,C}. Each appended one record (the log writer
  // frames a record as separate header/payload Appends, so count logical
  // appends from the ticker) and each synced once at the file level (X
  // asked; A asked on behalf of its group).
  std::string dump;
  ASSERT_TRUE(db->GetProperty("lsmlab.stats", &dump));
  EXPECT_NE(dump.find("ticker.wal.appends=2\n"), std::string::npos) << dump;
  EXPECT_EQ(gate.wal_syncs(), 2);
  const DBStats stats = db->GetStats();
  EXPECT_EQ(stats.group_commits, 2u);
  EXPECT_EQ(stats.group_followers, 2u);
  EXPECT_EQ(stats.wal_syncs, 2u);
  EXPECT_EQ(stats.wal_sync_skipped, 0u);

  std::string value;
  for (const char* key : {"x", "a", "b", "c"}) {
    EXPECT_TRUE(db->Get({}, key, &value).ok()) << key;
  }
}

// Same staging, but the group's WAL append is armed to fail: the leader's
// error must fail every follower in the group, and none of the group's
// writes may become visible.
TEST(WriteGroupTest, LeaderErrorFailsEveryFollower) {
  std::unique_ptr<Env> base(NewMemEnv());
  WalGateEnv gate(base.get());
  Options options;
  options.env = &gate;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/wg_err", &db).ok());
  DBImpl* impl = static_cast<DBImpl*>(db.get());

  gate.CloseSyncGate();
  WriteOptions sync_wo;
  sync_wo.sync = true;

  Status sx, sa, sb, sc;
  std::thread x([&] { sx = db->Put(sync_wo, "x", "xv"); });
  ASSERT_TRUE(WaitFor([&] { return gate.sync_waiters() == 1; }));

  std::thread a([&] { sa = db->Put(sync_wo, "a", "av"); });
  std::thread b([&] { sb = db->Put({}, "b", "bv"); });
  std::thread c([&] { sc = db->Put({}, "c", "cv"); });
  ASSERT_TRUE(WaitFor([&] { return impl->TEST_WriteQueueLength() == 4; }));

  gate.FailNextAppend();  // hits the {A,B,C} group's single append
  gate.OpenSyncGate();
  x.join();
  a.join();
  b.join();
  c.join();

  EXPECT_TRUE(sx.ok());
  EXPECT_FALSE(sa.ok());
  EXPECT_FALSE(sb.ok());
  EXPECT_FALSE(sc.ok());

  std::string value;
  EXPECT_TRUE(db->Get({}, "x", &value).ok());
  EXPECT_TRUE(db->Get({}, "a", &value).IsNotFound());
  EXPECT_TRUE(db->Get({}, "b", &value).IsNotFound());
  EXPECT_TRUE(db->Get({}, "c", &value).IsNotFound());
}

// Regression for the redundant value-log sync: with separation enabled,
// a batch whose values all stay inline must not sync (or even touch) the
// value log; only batches that actually append to it pay the sync.
TEST(WriteGroupTest, VlogSyncSkippedWhenNothingSeparated) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  options.value_separation_threshold = 64;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/wg_vlog", &db).ok());

  WriteOptions sync_wo;
  sync_wo.sync = true;
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db->Put(sync_wo, TestKey(0, i), "small").ok());
  }
  EXPECT_EQ(db->GetStats().vlog_syncs, 0u);  // nothing separated, no syncs

  const std::string big(128, 'v');
  ASSERT_TRUE(db->Put(sync_wo, "big", big).ok());
  EXPECT_EQ(db->GetStats().vlog_syncs, 1u);

  std::string value;
  ASSERT_TRUE(db->Get({}, "big", &value).ok());
  EXPECT_EQ(value, big);
  ASSERT_TRUE(db->Get({}, TestKey(0, 3), &value).ok());
  EXPECT_EQ(value, "small");
}

// Regression for the cross-group WiscKey durability hole: a non-sync
// group appends to the value log without fsyncing it; a later group that
// separates NOTHING but fsyncs the WAL would make the earlier group's
// pointer records durable ahead of their values. The WAL fsync must be
// preceded by a value-log fsync whenever unsynced vlog bytes exist, no
// matter which group appended them.
TEST(WriteGroupTest, CrossGroupVlogDurabilityOrder) {
  std::unique_ptr<Env> base(NewMemEnv());
  WalGateEnv gate(base.get());
  Options options;
  options.env = &gate;
  options.value_separation_threshold = 64;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/wg_vlog_order", &db).ok());

  // Non-sync separated write: value appended to the vlog, flushed but not
  // fsynced; its pointer record sits unsynced in the WAL.
  const std::string big(128, 'v');
  ASSERT_TRUE(db->Put({}, "big", big).ok());
  EXPECT_EQ(gate.vlog_syncs(), 0);

  // Sync write that separates nothing: its WAL fsync makes the earlier
  // pointer durable, so it must fsync the value log first.
  WriteOptions sync_wo;
  sync_wo.sync = true;
  ASSERT_TRUE(db->Put(sync_wo, "small", "inline").ok());
  EXPECT_EQ(gate.vlog_syncs(), 1);
  EXPECT_EQ(gate.wal_syncs(), 1);

  // Once fsynced, further sync writes that separate nothing have no
  // unsynced vlog bytes to cover — no redundant fsyncs.
  ASSERT_TRUE(db->Put(sync_wo, "small2", "inline").ok());
  EXPECT_EQ(gate.vlog_syncs(), 1);

  std::string value;
  ASSERT_TRUE(db->Get({}, "big", &value).ok());
  EXPECT_EQ(value, big);
}

// A failure AFTER the group's WAL record landed (here: the fsync) leaves
// the log holding writes every caller was told failed, with last_sequence
// not advanced. The DB must go sticky-failed: a later commit would reuse
// the group's sequence numbers and recovery would resurrect it.
TEST(WriteGroupTest, PostAppendFailurePoisonsDb) {
  std::unique_ptr<Env> base(NewMemEnv());
  WalGateEnv gate(base.get());
  Options options;
  options.env = &gate;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/wg_poison", &db).ok());

  WriteOptions sync_wo;
  sync_wo.sync = true;
  ASSERT_TRUE(db->Put(sync_wo, "before", "v").ok());

  gate.FailNextSync();
  EXPECT_FALSE(db->Put(sync_wo, "poisoned", "v").ok());

  // Sticky: the record for "poisoned" is in the WAL but unacknowledged;
  // accepting this write would commit sequence numbers that diverge from
  // the log.
  EXPECT_FALSE(db->Put({}, "after", "v").ok());

  std::string value;
  EXPECT_TRUE(db->Get({}, "before", &value).ok());
  EXPECT_TRUE(db->Get({}, "poisoned", &value).IsNotFound());
  EXPECT_TRUE(db->Get({}, "after", &value).IsNotFound());
}

// A flush that fails must fail the write that triggered it before that
// write is applied, in both threading modes: the failing write stays
// invisible, every acknowledged write stays readable, and the failure is
// sticky. (Inline mode used to publish the group first and flush after.)
class WriteModeTest : public ::testing::TestWithParam<bool> {};

TEST_P(WriteModeTest, FailedFlushLeavesWriteInvisible) {
  std::unique_ptr<Env> base(NewMemEnv());
  WalGateEnv gate(base.get());
  Options options;
  options.env = &gate;
  options.background_compaction = GetParam();
  options.write_buffer_size = 16 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/wg_flush_fail", &db).ok());

  gate.FailTableFiles();
  const std::string value(100, 'x');
  int failed = -1;
  for (int i = 0; i < 5000 && failed < 0; i++) {
    if (!db->Put({}, TestKey(0, i), value).ok()) {
      failed = i;
    }
  }
  ASSERT_GE(failed, 0) << "no write observed the failed flush";

  std::string got;
  EXPECT_TRUE(db->Get({}, TestKey(0, failed), &got).IsNotFound());
  for (int i = 0; i < failed; i++) {
    ASSERT_TRUE(db->Get({}, TestKey(0, i), &got).ok()) << i;
    EXPECT_EQ(got, value);
  }
  EXPECT_FALSE(db->Put({}, "after", "v").ok());
  EXPECT_TRUE(db->Get({}, "after", &got).IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(Modes, WriteModeTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "background" : "inline";
                         });

// WriteOptions::sync keeps its durable-at-ack guarantee in the relaxed
// modes: under kSyncIntervalMs with an interval far longer than the test,
// non-sync writes ride unsynced but a sync write (a commit marker, say)
// still forces the fsync for its group.
TEST(WriteGroupTest, SyncWriteForcesSyncInRelaxedModes) {
  std::unique_ptr<Env> base(NewMemEnv());
  WalGateEnv gate(base.get());
  Options options;
  options.env = &gate;
  options.wal_sync_mode = WalSyncMode::kSyncIntervalMs;
  options.wal_sync_interval_ms = 60 * 60 * 1000;  // never fires here
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/wg_relaxed", &db).ok());

  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db->Put({}, TestKey(0, i), "v").ok());
  }
  EXPECT_EQ(gate.wal_syncs(), 0);  // interval not reached, none forced

  WriteOptions sync_wo;
  sync_wo.sync = true;
  ASSERT_TRUE(db->Put(sync_wo, "marker", "v").ok());
  EXPECT_EQ(gate.wal_syncs(), 1);

  ASSERT_TRUE(db->Put({}, "tail", "v").ok());
  EXPECT_EQ(gate.wal_syncs(), 1);

  const DBStats stats = db->GetStats();
  EXPECT_EQ(stats.wal_syncs, 1u);
  EXPECT_EQ(stats.wal_sync_skipped + stats.wal_syncs, stats.group_commits);
}

// Hammers group commit against WAL rotation: a small write buffer and the
// background pipeline force memtable freezes (which rotate the WAL) while
// leaders are mid-commit with mu_ released. log_busy_ must serialize the
// two; TSan verifies the handoff, the assertions verify no write is lost.
TEST(WriteGroupTest, GroupCommitRacesWalRotation) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  options.background_compaction = true;
  options.write_buffer_size = 16 << 10;
  options.max_file_size = 16 << 10;
  options.level0_compaction_trigger = 2;
  options.size_ratio = 4;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/wg_rotate", &db).ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 300;
  const std::string filler(100, 'r');
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        WriteOptions wo;
        wo.sync = (i % 13 == 0);
        if (!db->Put(wo, TestKey(t, i), filler).ok()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(errors.load(), 0);

  std::string value;
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPerThread; i++) {
      ASSERT_TRUE(db->Get({}, TestKey(t, i), &value).ok())
          << TestKey(t, i);
      ASSERT_EQ(value, filler);
    }
  }
  const DBStats stats = db->GetStats();
  EXPECT_EQ(stats.writes, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.group_commits + stats.group_followers, stats.writes);
}

// ------------------------------------------------ Parallel group apply --

// Parallel apply is one protocol for every memtable rep and with value
// separation, so each case runs on the plain skiplist, with separation on,
// and on the sorted-vector rep with its hash index.
struct ApplyConfig {
  const char* name;
  bool separation = false;
  bool vector_memtable = false;
};

class ParallelApplyTest : public ::testing::TestWithParam<ApplyConfig> {
 protected:
  Options ApplyOptions(Env* env) const {
    Options options;
    options.env = env;
    options.allow_concurrent_memtable_write = true;
    if (GetParam().separation) {
      options.value_separation_threshold = 64;
    }
    if (GetParam().vector_memtable) {
      options.memtable_rep = MemTable::Rep::kSortedVector;
      options.memtable_hash_index = true;
    }
    return options;
  }

  // Every variant really applied in parallel, and every committed group
  // applied exactly once, serially or in parallel.
  static void ExpectParallelApplies(DB* db) {
    const DBStats stats = db->GetStats();
    EXPECT_GT(stats.parallel_applies, 0u);
    EXPECT_EQ(stats.parallel_applies + stats.serial_applies,
              stats.group_commits);
  }
};

// The load cases mix in sync writes and slow each WAL sync down, so the
// other writers queue behind a syncing leader and form groups.
constexpr std::chrono::microseconds kGroupingSyncDelay{200};

// Odd entries carry a value above the separation threshold, so the
// separation variant applies both inline values and value-log pointers.
std::string ApplyValue(const std::string& key, int i) {
  return key + "_v" + (i % 2 == 1 ? std::string(100, 'p') : "");
}

// Stages one deterministic parallel group: X leads alone (serial apply,
// writer_count == 1) and parks in the gated sync; A, B, C queue behind it
// with multi-entry batches. Opening the gate lets A lead {A,B,C}, which
// must apply in parallel: each member inserts its own batch from its own
// thread at a pre-assigned sequence offset, and the group's sequences stay
// contiguous across members in queue order.
TEST_P(ParallelApplyTest, ParallelApplyStagedGroup) {
  std::unique_ptr<Env> base(NewMemEnv());
  WalGateEnv gate(base.get());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(ApplyOptions(&gate), "/wg_par", &db).ok());
  DBImpl* impl = static_cast<DBImpl*>(db.get());

  gate.CloseSyncGate();
  WriteOptions sync_wo;
  sync_wo.sync = true;

  std::thread x([&] { EXPECT_TRUE(db->Put(sync_wo, "x", "xv").ok()); });
  ASSERT_TRUE(WaitFor([&] { return gate.sync_waiters() == 1; }));

  // Member batches with distinct entry counts (2, 3, 4) so contiguity of
  // the pre-assigned offsets is actually exercised, not just count == 1.
  auto writer = [&](int id, int entries, Status* out) {
    WriteBatch batch;
    for (int i = 0; i < entries; i++) {
      batch.Put(TestKey(id, i), ApplyValue(TestKey(id, i), i));
    }
    *out = db->Write({}, &batch);
  };
  Status sa, sb, sc;
  std::thread a([&] { writer(1, 2, &sa); });
  ASSERT_TRUE(WaitFor([&] { return impl->TEST_WriteQueueLength() == 2; }));
  std::thread b([&] { writer(2, 3, &sb); });
  ASSERT_TRUE(WaitFor([&] { return impl->TEST_WriteQueueLength() == 3; }));
  std::thread c([&] { writer(3, 4, &sc); });
  ASSERT_TRUE(WaitFor([&] { return impl->TEST_WriteQueueLength() == 4; }));

  gate.OpenSyncGate();
  x.join();
  a.join();
  b.join();
  c.join();
  EXPECT_TRUE(sa.ok());
  EXPECT_TRUE(sb.ok());
  EXPECT_TRUE(sc.ok());

  // {X} is a single-writer group (serial apply); {A,B,C} must have gone
  // parallel. Applies of both flavors reconcile exactly with the number
  // of groups committed.
  const DBStats stats = db->GetStats();
  EXPECT_EQ(stats.group_commits, 2u);
  EXPECT_EQ(stats.parallel_applies, 1u);
  EXPECT_EQ(stats.serial_applies, 1u);
  ExpectParallelApplies(db.get());

  // 1 (x) + 2 + 3 + 4 entries, no gaps and no double assignment.
  const Snapshot* snap = db->GetSnapshot();
  EXPECT_EQ(snap->sequence(), 10u);
  db->ReleaseSnapshot(snap);

  std::string value;
  EXPECT_TRUE(db->Get({}, "x", &value).ok());
  const int counts[] = {0, 2, 3, 4};
  for (int id = 1; id <= 3; id++) {
    for (int i = 0; i < counts[id]; i++) {
      ASSERT_TRUE(db->Get({}, TestKey(id, i), &value).ok()) << TestKey(id, i);
      ASSERT_EQ(value, ApplyValue(TestKey(id, i), i));
    }
  }
}

// The load-bearing hammer: many writers with multi-entry batches and the
// parallel path enabled must still assign exactly N*K*E sequences and lose
// nothing. Run under TSan (tsan-obs leg) this is the proof that the
// unlocked concurrent inserts and the leader/follower apply handshake are
// race-free.
TEST_P(ParallelApplyTest, ParallelApplyContiguousSequencesUnderLoad) {
  std::unique_ptr<Env> base(NewMemEnv());
  WalGateEnv gate(base.get());
  gate.SetSyncDelay(kGroupingSyncDelay);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(ApplyOptions(&gate), "/wg_par_load", &db).ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 150;
  constexpr int kEntriesPerBatch = 3;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        WriteBatch batch;
        for (int e = 0; e < kEntriesPerBatch; e++) {
          const int n = i * kEntriesPerBatch + e;
          batch.Put(TestKey(t, n), ApplyValue(TestKey(t, n), n));
        }
        WriteOptions wo;
        wo.sync = (i % 7 == 0);
        if (!db->Write(wo, &batch).ok()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(errors.load(), 0);

  const Snapshot* snap = db->GetSnapshot();
  EXPECT_EQ(snap->sequence(), static_cast<uint64_t>(kThreads * kPerThread *
                                                    kEntriesPerBatch));
  db->ReleaseSnapshot(snap);

  std::string value;
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPerThread * kEntriesPerBatch; i++) {
      ASSERT_TRUE(db->Get({}, TestKey(t, i), &value).ok()) << TestKey(t, i);
      ASSERT_EQ(value, ApplyValue(TestKey(t, i), i));
    }
  }

  const DBStats stats = db->GetStats();
  EXPECT_EQ(stats.writes, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.group_commits + stats.group_followers, stats.writes);
  ExpectParallelApplies(db.get());
}

// A group becomes visible atomically: last_sequence is published once per
// group, after every member's inserts landed. Readers pin a snapshot and
// probe all entries of one batch — they must see all of them or none,
// never a prefix of a batch that is still being applied.
TEST_P(ParallelApplyTest, NoPartialGroupVisibilityMidApply) {
  std::unique_ptr<Env> base(NewMemEnv());
  WalGateEnv gate(base.get());
  gate.SetSyncDelay(kGroupingSyncDelay);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(ApplyOptions(&gate), "/wg_par_vis", &db).ok());

  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr int kBatches = 150;
  constexpr int kEntriesPerBatch = 4;
  auto batch_key = [](int writer, int batch, int entry) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "t%d_b%06d_k%d", writer, batch, entry);
    return std::string(buf);
  };

  // published[t] = writer t has been acknowledged for batches [0, n).
  std::atomic<int> published[kWriters];
  for (auto& p : published) p.store(0);
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; t++) {
    threads.emplace_back([&, t] {
      for (int bnum = 0; bnum < kBatches; bnum++) {
        WriteBatch batch;
        for (int e = 0; e < kEntriesPerBatch; e++) {
          batch.Put(batch_key(t, bnum, e), ApplyValue("v", e));
        }
        WriteOptions wo;
        wo.sync = (bnum % 5 == 0);
        ASSERT_TRUE(db->Write(wo, &batch).ok());
        published[t].store(bnum + 1, std::memory_order_release);
      }
    });
  }
  for (int r = 0; r < kReaders; r++) {
    threads.emplace_back([&, r] {
      uint64_t salt = 0x9e3779b97f4a7c15ull * (r + 1);
      while (!done.load(std::memory_order_acquire)) {
        salt = salt * 6364136223846793005ull + 1442695040888963407ull;
        const int t = static_cast<int>((salt >> 33) % kWriters);
        // Probe the batch right at the frontier: it may be mid-apply.
        const int bnum = published[t].load(std::memory_order_acquire);
        if (bnum >= kBatches) {
          continue;
        }
        const Snapshot* snap = db->GetSnapshot();
        ReadOptions ro;
        ro.snapshot = snap;
        int found = 0;
        std::string value;
        for (int e = 0; e < kEntriesPerBatch; e++) {
          if (db->Get(ro, batch_key(t, bnum, e), &value).ok()) {
            found++;
          }
        }
        db->ReleaseSnapshot(snap);
        if (found != 0 && found != kEntriesPerBatch) {
          violations.fetch_add(1);
        }
      }
    });
  }
  for (int t = 0; t < kWriters; t++) threads[t].join();
  done.store(true, std::memory_order_release);
  for (int r = 0; r < kReaders; r++) threads[kWriters + r].join();

  EXPECT_EQ(violations.load(), 0);
  ExpectParallelApplies(db.get());
}

// A follower whose batch fails to apply must fail every member of the
// group, and — because the group's WAL record is already durable and the
// memtable may hold a partial group above last_sequence — poison the DB
// for all subsequent writes. Without separation the batch carries a
// corrupted count, caught by Iterate during the parallel insert. With
// separation the writer re-encodes its batch before it queues (a corrupt
// count fails there; see CorruptBatchFailsOnlyItsWriterWithSeparation), so
// the insert failure comes from the apply hook instead.
TEST_P(ParallelApplyTest, FollowerInsertFailurePoisonsDb) {
  const bool separation = GetParam().separation;
  std::unique_ptr<Env> base(NewMemEnv());
  WalGateEnv gate(base.get());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(ApplyOptions(&gate), "/wg_par_poison", &db).ok());
  DBImpl* impl = static_cast<DBImpl*>(db.get());
  if (separation) {
    impl->TEST_SetApplyHook([](const WriteBatch& batch) {
      return batch.Contents().ToString().find("bkey") == std::string::npos
                 ? Status::OK()
                 : Status::Corruption("injected insert failure");
    });
  }

  ASSERT_TRUE(db->Put({}, "before", "bv").ok());

  gate.CloseSyncGate();
  WriteOptions sync_wo;
  sync_wo.sync = true;

  Status sx, sa, sb, sc;
  std::thread x([&] { sx = db->Put(sync_wo, "x", "xv"); });
  ASSERT_TRUE(WaitFor([&] { return gate.sync_waiters() == 1; }));

  std::thread a([&] { sa = db->Put({}, "a", "av"); });
  ASSERT_TRUE(WaitFor([&] { return impl->TEST_WriteQueueLength() == 2; }));
  std::thread b([&] {
    WriteBatch bad;
    bad.Put("bkey", "bv");
    if (!separation) {
      // One real entry, but a count claiming two: Iterate reports
      // Corruption from B's own apply thread mid-parallel-group.
      std::string rep(bad.Contents().data(), bad.Contents().size());
      EncodeFixed32(&rep[8], 2);
      bad.SetContentsFrom(rep);
    }
    sb = db->Write({}, &bad);
  });
  ASSERT_TRUE(WaitFor([&] { return impl->TEST_WriteQueueLength() == 3; }));
  std::thread c([&] { sc = db->Put({}, "c", "cv"); });
  ASSERT_TRUE(WaitFor([&] { return impl->TEST_WriteQueueLength() == 4; }));

  gate.OpenSyncGate();
  x.join();
  a.join();
  b.join();
  c.join();

  EXPECT_TRUE(sx.ok());
  EXPECT_FALSE(sa.ok());
  EXPECT_FALSE(sb.ok());
  EXPECT_FALSE(sc.ok());

  // Sticky: the WAL holds a record the memtable only partially reflects,
  // so no later write may be acknowledged.
  EXPECT_FALSE(db->Put({}, "after", "av").ok());

  // Nothing from the failed group is visible; earlier data still is.
  std::string value;
  EXPECT_TRUE(db->Get({}, "before", &value).ok());
  EXPECT_TRUE(db->Get({}, "x", &value).ok());
  for (const char* key : {"a", "bkey", "c", "after"}) {
    EXPECT_TRUE(db->Get({}, key, &value).IsNotFound()) << key;
  }
  ExpectParallelApplies(db.get());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ParallelApplyTest,
    ::testing::Values(ApplyConfig{.name = "plain"},
                      ApplyConfig{.name = "separation", .separation = true},
                      ApplyConfig{.name = "vector_hash",
                                  .vector_memtable = true}),
    [](const ::testing::TestParamInfo<ApplyConfig>& info) {
      return std::string(info.param.name);
    });

// With separation on, a writer re-encodes its batch before it queues, so
// a corrupt batch fails its own writer there, touches neither the WAL nor
// the memtable, and the writers around it commit as one parallel group.
TEST(WriteGroupTest, CorruptBatchFailsOnlyItsWriterWithSeparation) {
  std::unique_ptr<Env> base(NewMemEnv());
  WalGateEnv gate(base.get());
  Options options;
  options.env = &gate;
  options.allow_concurrent_memtable_write = true;
  options.value_separation_threshold = 64;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/wg_sep_corrupt", &db).ok());
  DBImpl* impl = static_cast<DBImpl*>(db.get());

  gate.CloseSyncGate();
  WriteOptions sync_wo;
  sync_wo.sync = true;

  Status sx, sa, sc;
  std::thread x([&] { sx = db->Put(sync_wo, "x", "xv"); });
  ASSERT_TRUE(WaitFor([&] { return gate.sync_waiters() == 1; }));
  std::thread a([&] { sa = db->Put({}, "a", "av"); });
  ASSERT_TRUE(WaitFor([&] { return impl->TEST_WriteQueueLength() == 2; }));

  // One real entry, but a count claiming two: separation fails at once.
  WriteBatch bad;
  bad.Put("bkey", std::string(100, 'b'));
  std::string rep(bad.Contents().data(), bad.Contents().size());
  EncodeFixed32(&rep[8], 2);
  bad.SetContentsFrom(rep);
  EXPECT_TRUE(db->Write({}, &bad).IsCorruption());
  EXPECT_EQ(impl->TEST_WriteQueueLength(), 2u);

  std::thread c([&] { sc = db->Put({}, "c", std::string(100, 'c')); });
  ASSERT_TRUE(WaitFor([&] { return impl->TEST_WriteQueueLength() == 3; }));

  gate.OpenSyncGate();
  x.join();
  a.join();
  c.join();
  EXPECT_TRUE(sx.ok());
  EXPECT_TRUE(sa.ok());
  EXPECT_TRUE(sc.ok());
  EXPECT_TRUE(db->Put({}, "after", "av").ok());

  std::string value;
  for (const char* key : {"x", "a", "c", "after"}) {
    EXPECT_TRUE(db->Get({}, key, &value).ok()) << key;
  }
  EXPECT_TRUE(db->Get({}, "bkey", &value).IsNotFound());
  const DBStats stats = db->GetStats();
  EXPECT_EQ(stats.parallel_applies, 1u);
  EXPECT_EQ(stats.parallel_applies + stats.serial_applies,
            stats.group_commits);
}

// max_write_group_bytes caps a commit group: the staging of
// MixedSyncGroupSyncsExactlyOnce (X parked in its sync, A, B and C queued
// behind it), with a cap below one batch, commits each writer alone.
TEST(WriteGroupTest, MaxWriteGroupBytesCapsTheGroup) {
  std::unique_ptr<Env> base(NewMemEnv());
  WalGateEnv gate(base.get());
  Options options;
  options.env = &gate;
  options.max_write_group_bytes = 1;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/wg_cap", &db).ok());
  DBImpl* impl = static_cast<DBImpl*>(db.get());

  gate.CloseSyncGate();
  WriteOptions sync_wo;
  sync_wo.sync = true;
  std::thread x([&] { EXPECT_TRUE(db->Put(sync_wo, "x", "xv").ok()); });
  ASSERT_TRUE(WaitFor([&] { return gate.sync_waiters() == 1; }));
  std::thread a([&] { EXPECT_TRUE(db->Put(sync_wo, "a", "av").ok()); });
  std::thread b([&] { EXPECT_TRUE(db->Put({}, "b", "bv").ok()); });
  std::thread c([&] { EXPECT_TRUE(db->Put({}, "c", "cv").ok()); });
  ASSERT_TRUE(WaitFor([&] { return impl->TEST_WriteQueueLength() == 4; }));
  gate.OpenSyncGate();
  x.join();
  a.join();
  b.join();
  c.join();

  const DBStats stats = db->GetStats();
  EXPECT_EQ(stats.group_commits, 4u);
  EXPECT_EQ(stats.group_followers, 0u);
  std::string value;
  for (const char* key : {"x", "a", "b", "c"}) {
    EXPECT_TRUE(db->Get({}, key, &value).ok()) << key;
  }
}

// Under kSyncBytes a commit syncs the WAL once wal_sync_bytes unsynced
// bytes have built up: a bound below one record syncs every commit, one
// of three records about every third, and one past the load never.
TEST(WriteGroupTest, SyncBytesModeSyncsEveryWalSyncBytes) {
  int syncs[3] = {0, 0, 0};
  const uint64_t kBounds[3] = {1, 0, uint64_t{1} << 30};
  for (int b = 0; b < 3; b++) {
    std::unique_ptr<Env> base(NewMemEnv());
    WalGateEnv gate(base.get());
    Options options;
    options.env = &gate;
    options.wal_sync_mode = WalSyncMode::kSyncBytes;
    std::string record;
    {
      WriteBatch batch;
      batch.Put(TestKey(0, 0), std::string(100, 'v'));
      record = batch.Contents().ToString();
    }
    options.wal_sync_bytes = b == 1 ? 3 * record.size() : kBounds[b];
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/wg_bytes", &db).ok());
    for (int i = 0; i < 12; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(0, i), std::string(100, 'v')).ok());
    }
    syncs[b] = gate.wal_syncs();
    const DBStats stats = db->GetStats();
    EXPECT_EQ(stats.wal_syncs, static_cast<uint64_t>(syncs[b]));
    EXPECT_EQ(stats.wal_sync_skipped + stats.wal_syncs, stats.group_commits);
  }
  EXPECT_EQ(syncs[0], 12);
  EXPECT_EQ(syncs[1], 4);
  EXPECT_EQ(syncs[2], 0);
}

}  // namespace
}  // namespace lsmlab
