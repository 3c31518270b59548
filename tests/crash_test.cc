// Crash-recovery testing with fault injection: the environment rolls every
// file back to its last-synced prefix (what an OS crash can expose) and
// the DB must recover to a consistent state — synced data intact, torn
// tails dropped silently, never corruption.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <condition_variable>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "core/db_impl.h"
#include "core/filename.h"
#include "core/sharded_db.h"
#include "obs/event_listener.h"
#include "storage/fault_env.h"
#include "util/random.h"
#include "workload/keygen.h"
#include "workload/workload.h"

namespace lsmlab {
namespace {

class CrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_env_.reset(NewMemEnv());
    env_ = std::make_unique<FaultInjectionEnv>(base_env_.get());
    options_.env = env_.get();
    options_.write_buffer_size = 8 << 10;
    options_.max_file_size = 8 << 10;
    options_.level0_compaction_trigger = 2;
    options_.size_ratio = 3;
  }

  void Open() { ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok()); }

  void CrashAndReopen() {
    env_->Kill();  // the "process" dies; its buffered state is lost
    db_.reset();   // a teardown that can no longer write
    ASSERT_TRUE(env_->Crash().ok());
    Open();
  }

  std::unique_ptr<Env> base_env_;
  std::unique_ptr<FaultInjectionEnv> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(CrashTest, SyncedWritesSurviveCrash) {
  Open();
  WriteOptions sync;
  sync.sync = true;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db_->Put(sync, EncodeKey(i), "v" + std::to_string(i)).ok());
  }
  CrashAndReopen();
  std::string value;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db_->Get({}, EncodeKey(i), &value).ok()) << i;
    EXPECT_EQ(value, "v" + std::to_string(i));
  }
}

TEST_F(CrashTest, UnsyncedWritesMayVanishButNeverCorrupt) {
  Open();
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db_->Put({}, EncodeKey(i), "v" + std::to_string(i)).ok());
  }
  CrashAndReopen();
  // Any surviving key must carry exactly the value that was written.
  std::string value;
  for (int i = 0; i < 500; i++) {
    Status s = db_->Get({}, EncodeKey(i), &value);
    if (s.ok()) {
      EXPECT_EQ(value, "v" + std::to_string(i)) << i;
    } else {
      EXPECT_TRUE(s.IsNotFound()) << s.ToString();
    }
  }
}

TEST_F(CrashTest, FlushedDataSurvivesWithoutWal) {
  Open();
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(db_->Put({}, EncodeKey(i), std::to_string(i * 3)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());  // tables + manifest are synced
  CrashAndReopen();
  std::string value;
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(db_->Get({}, EncodeKey(i), &value).ok()) << i;
    EXPECT_EQ(value, std::to_string(i * 3));
  }
}

TEST_F(CrashTest, CompactedDataSurvivesCrash) {
  Open();
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db_->Put({}, EncodeKey(i % 500),
                         "round" + std::to_string(i / 500))
                    .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  CrashAndReopen();
  std::string value;
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db_->Get({}, EncodeKey(i), &value).ok()) << i;
    EXPECT_EQ(value, "round5");
  }
}

TEST_F(CrashTest, RepeatedCrashesKeepDurablePrefix) {
  Open();
  WriteOptions sync;
  sync.sync = true;
  std::map<std::string, std::string> durable;
  Random rng(71);
  for (int round = 0; round < 8; round++) {
    // Some synced writes (durable), then some unsynced ones.
    for (int i = 0; i < 50; i++) {
      const std::string k = EncodeKey(rng.Uniform(300));
      const std::string v = "r" + std::to_string(round) + "-" +
                            std::to_string(i);
      ASSERT_TRUE(db_->Put(sync, k, v).ok());
      durable[k] = v;
    }
    for (int i = 0; i < 50; i++) {
      const std::string k = EncodeKey(rng.Uniform(300));
      ASSERT_TRUE(db_->Put({}, k, "volatile").ok());
      // May or may not survive; remove from the durable expectations.
      durable.erase(k);
    }
    CrashAndReopen();
    std::string value;
    for (const auto& [k, v] : durable) {
      ASSERT_TRUE(db_->Get({}, k, &value).ok())
          << "round " << round << " key " << DecodeKey(k);
      EXPECT_EQ(value, v);
    }
  }
}

TEST_F(CrashTest, DeletesAreDurableWhenSynced) {
  Open();
  WriteOptions sync;
  sync.sync = true;
  ASSERT_TRUE(db_->Put(sync, "k", "v").ok());
  ASSERT_TRUE(db_->Delete(sync, "k").ok());
  CrashAndReopen();
  std::string value;
  EXPECT_TRUE(db_->Get({}, "k", &value).IsNotFound());
}

TEST_F(CrashTest, SeparatedValuesSurviveSyncedCrash) {
  options_.value_separation_threshold = 64;
  Open();
  WriteOptions sync;
  sync.sync = true;
  const std::string big(2048, 'B');
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db_->Put(sync, EncodeKey(i), big).ok());
  }
  CrashAndReopen();
  std::string value;
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db_->Get({}, EncodeKey(i), &value).ok()) << i;
    EXPECT_EQ(value, big);
  }
}

TEST_F(CrashTest, SeparatedValuesSurviveCrashAfterFlush) {
  options_.value_separation_threshold = 64;
  Open();
  const std::string big(1024, 'F');
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db_->Put({}, EncodeKey(i), big).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());  // vlog synced before pointers
  CrashAndReopen();
  std::string value;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db_->Get({}, EncodeKey(i), &value).ok()) << i;
    EXPECT_EQ(value, big);
  }
}

// A clean close leaves the value-log segment the session wrote open, and
// the next session's recovery flush makes durable the pointers into it,
// so the segment's tail must be durable by then: a crash after the second
// close must not lose the values of the first session's non-sync puts.
TEST_F(CrashTest, PreviousSessionsValueLogTailSurvivesCrash) {
  options_.value_separation_threshold = 64;
  Open();
  const std::string big(1000, 'T');
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(db_->Put({}, EncodeKey(i), big).ok());
  }
  db_.reset();  // clean close: nothing synced the segment's tail
  Open();       // replays the WAL and flushes pointers into that segment
  CrashAndReopen();
  std::string value;
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(db_->Get({}, EncodeKey(i), &value).ok()) << i;
    EXPECT_EQ(value, big);
  }
}

// Three sessions. The first writes sync puts, flushes part of them and
// closes. The second reopens under every kill point of its recovery: the
// manifest it starts, CURRENT, the WAL replay's flush, the compaction that
// flush triggers and their manifest installs. After a crash the third
// must read every acknowledged write. A CURRENT rewritten in place dies
// with the crash, and the third session then starts an empty database.
TEST_F(CrashTest, ReopenKillPointsKeepEverySyncedWrite) {
  WriteOptions sync;
  sync.sync = true;
  const std::string pad(100, 'p');
  auto first_session = [&] {
    db_.reset();
    base_env_.reset(NewMemEnv());
    env_ = std::make_unique<FaultInjectionEnv>(base_env_.get());
    options_.env = env_.get();
    Open();
    for (int i = 0; i < 40; i++) {
      ASSERT_TRUE(db_->Put(sync, EncodeKey(i), "v" + std::to_string(i) + pad)
                      .ok());
      if (i == 19) {
        ASSERT_TRUE(db_->Flush().ok());
      }
    }
    db_.reset();
  };
  // The un-killed second session counts the write ops to sweep.
  first_session();
  const uint64_t before = env_->write_ops();
  Open();
  db_.reset();
  const uint64_t reopen_ops = env_->write_ops() - before;
  ASSERT_GT(reopen_ops, 5u);  // manifest, CURRENT, flush, compaction

  bool killed_in_current = false;
  for (uint64_t k = 0; k <= reopen_ops; k++) {
    first_session();
    env_->ArmKillPoint(k);
    {
      std::unique_ptr<DB> db;
      // status-ok: the kill may fail the open; the crash below decides.
      DB::Open(options_, "/db", &db).IgnoreError();
      env_->Kill();  // the process dies before its teardown
    }
    const std::string victim = env_->kill_file();
    killed_in_current = killed_in_current ||
                        victim.find("CURRENT") != std::string::npos ||
                        victim.find(".dbtmp") != std::string::npos;
    ASSERT_TRUE(env_->Crash().ok());
    ASSERT_NO_FATAL_FAILURE(Open())
        << "kill point " << k << " (file " << victim << ")";
    for (int i = 0; i < 40; i++) {
      std::string value;
      ASSERT_TRUE(db_->Get({}, EncodeKey(i), &value).ok())
          << "kill point " << k << " (file " << victim << "), key " << i;
      EXPECT_EQ(value, "v" + std::to_string(i) + pad);
    }
  }
  EXPECT_TRUE(killed_in_current);
}

// A directory holding tables but no CURRENT is a database that lost its
// CURRENT, not an empty one: Open refuses it and keeps the tables. A
// leftover temp file of a CURRENT replacement is swept at open.
TEST_F(CrashTest, OpenRefusesTablesWithoutCurrent) {
  Open();
  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  ASSERT_TRUE(db_->Flush().ok());
  db_.reset();
  ASSERT_TRUE(WriteStringToFile(env_.get(), "MANIFEST-000099\n",
                                TempFileName("/db", 99))
                  .ok());
  Open();
  EXPECT_FALSE(env_->FileExists(TempFileName("/db", 99)));
  std::string value;
  ASSERT_TRUE(db_->Get({}, "k", &value).ok());
  db_.reset();

  ASSERT_TRUE(env_->RemoveFile(CurrentFileName("/db")).ok());
  std::vector<std::string> before;
  ASSERT_TRUE(env_->GetChildren("/db", &before).ok());
  std::unique_ptr<DB> db;
  const Status s = DB::Open(options_, "/db", &db);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  std::vector<std::string> after;
  ASSERT_TRUE(env_->GetChildren("/db", &after).ok());
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  EXPECT_EQ(after, before);
}

// A sync put that rotates the value log must not strand the values of
// the unsynced puts before it: its WAL fsync makes their pointers durable,
// so the full segment they landed in must be durable too.
TEST_F(CrashTest, SeparatedValuesSurviveSegmentRotation) {
  options_.value_separation_threshold = 64;
  options_.max_vlog_file_bytes = 4096;
  Open();
  WriteOptions sync;
  sync.sync = true;
  int n = 0;
  for (int round = 0; round < 4; round++) {
    // Five 1000-B values fill a 4 KiB segment; the sync put rotates it.
    for (int j = 0; j < 5; j++, n++) {
      ASSERT_TRUE(
          db_->Put({}, EncodeKey(n), ValueForKey(EncodeKey(n), 1000)).ok());
    }
    ASSERT_TRUE(
        db_->Put(sync, EncodeKey(n), ValueForKey(EncodeKey(n), 1000)).ok());
    n++;
  }
  const int acked = n;
  for (int j = 0; j < 3; j++, n++) {  // an unsynced tail may vanish
    ASSERT_TRUE(
        db_->Put({}, EncodeKey(n), ValueForKey(EncodeKey(n), 1000)).ok());
  }
  CrashAndReopen();
  std::string value;
  for (int i = 0; i < n; i++) {
    Status s = db_->Get({}, EncodeKey(i), &value);
    if (i >= acked && s.IsNotFound()) {
      continue;
    }
    ASSERT_TRUE(s.ok()) << i << ": " << s.ToString();
    EXPECT_EQ(value, ValueForKey(EncodeKey(i), 1000)) << i;
  }
}

// Value-log GC re-puts each live value into the current segment, then
// deletes the closed ones. A crash after it must lose no acknowledged
// value: the re-puts (non-sync writes) must be durable, values and
// pointers both, before the old copies go.
TEST_F(CrashTest, SeparatedValuesSurviveCrashAfterGarbageCollection) {
  options_.value_separation_threshold = 64;
  options_.max_vlog_file_bytes = 4096;
  Open();
  WriteOptions sync;
  sync.sync = true;
  constexpr int kKeys = 20;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(
        db_->Put(sync, EncodeKey(i), ValueForKey(EncodeKey(i), 1000)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->GarbageCollectValues().ok());
  CrashAndReopen();
  std::string value;
  for (int i = 0; i < kKeys; i++) {
    Status s = db_->Get({}, EncodeKey(i), &value);
    ASSERT_TRUE(s.ok()) << i << ": " << s.ToString();
    EXPECT_EQ(value, ValueForKey(EncodeKey(i), 1000)) << i;
  }
}

TEST_F(CrashTest, RandomizedCrashPointsArePrefixConsistent) {
  // Crash at pseudo-random moments of a mixed workload. After recovery the
  // DB must correspond to the state after some single cut point c in the
  // write sequence (WAL truncation keeps a prefix; flushes only extend
  // it), with c at least the last synced write. No reordering, no holes,
  // no resurrections.
  Open();
  Random rng(0x5eed);
  WriteOptions sync;
  sync.sync = true;

  // Global write log: (key, value-or-tombstone), index = op.
  std::vector<std::pair<std::string, std::optional<std::string>>> log;
  int durable_op = -1;  // ops <= durable_op must survive the next crash

  for (int round = 0; round < 6; round++) {
    const int ops = 100 + static_cast<int>(rng.Uniform(300));
    for (int i = 0; i < ops; i++) {
      const std::string k = EncodeKey(rng.Uniform(200));
      const bool synced = rng.OneIn(4);
      if (rng.OneIn(5)) {
        ASSERT_TRUE(db_->Delete(synced ? sync : WriteOptions(), k).ok());
        log.emplace_back(k, std::nullopt);
      } else {
        const std::string v = "v" + std::to_string(log.size());
        ASSERT_TRUE(db_->Put(synced ? sync : WriteOptions(), k, v).ok());
        log.emplace_back(k, v);
      }
      if (synced) {
        durable_op = static_cast<int>(log.size()) - 1;
      }
    }
    CrashAndReopen();

    // Observe the DB state for every key ever touched.
    std::map<std::string, std::optional<std::string>> observed;
    for (const auto& [k, v] : log) {
      if (observed.count(k)) {
        continue;
      }
      std::string value;
      Status s = db_->Get({}, k, &value);
      ASSERT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
      observed[k] = s.ok() ? std::optional<std::string>(value)
                           : std::nullopt;
    }

    // Find a cut c (>= durable_op) whose induced state matches exactly.
    const int last_op = static_cast<int>(log.size()) - 1;
    int found_cut = -2;
    for (int cut = std::max(durable_op, -1); cut <= last_op; cut++) {
      std::map<std::string, std::optional<std::string>> state;
      for (int w = 0; w <= cut; w++) {
        state[log[w].first] = log[w].second;
      }
      bool match = true;
      for (const auto& [k, v] : observed) {
        auto it = state.find(k);
        const std::optional<std::string> expect =
            it == state.end() ? std::nullopt : it->second;
        if (expect != v) {
          match = false;
          break;
        }
      }
      if (match) {
        found_cut = cut;
        break;
      }
    }
    ASSERT_NE(found_cut, -2)
        << "round " << round << ": no prefix cut >= " << durable_op
        << " explains the recovered state";

    // History rewrites itself: everything past the cut never happened, and
    // recovery flushed what survived, so the whole prefix is now durable.
    log.resize(found_cut + 1);
    durable_op = found_cut;
  }
}

TEST_F(CrashTest, KillPointFailsAllWritesAfterTrigger) {
  Open();
  const uint64_t base_ops = env_->write_ops();  // Open's own manifest traffic
  env_->ArmKillPoint(3);  // three more write ops, then the process "dies"
  WriteOptions sync;
  sync.sync = true;
  int failures = 0;
  for (int i = 0; i < 10; i++) {
    if (!db_->Put(sync, EncodeKey(i), "v").ok()) {
      failures++;
    }
  }
  EXPECT_GT(failures, 0);
  EXPECT_FALSE(env_->kill_file().empty());
  EXPECT_EQ(env_->write_ops() - base_ops, 3u);
}

/// Arms the env's kill point at the end of the next flush, so the count
/// starts at the compaction the background worker runs right after it,
/// and reports that compaction's status.
class KillAfterFlush : public EventListener {
 public:
  explicit KillAfterFlush(FaultInjectionEnv* env) : env_(env) {}

  void Arm(uint64_t ops) {
    std::lock_guard<std::mutex> lock(mu_);
    ops_ = ops;
  }
  void OnFlushEnd(const FlushJobInfo& /*info*/) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (ops_.has_value()) {
      env_->ArmKillPoint(*ops_);
      ops_.reset();
      armed_ = true;
    }
  }
  void OnCompactionEnd(const CompactionJobInfo& info) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (armed_) {
      status_ = info.status;
      cv_.notify_all();
    }
  }
  /// The status of the first compaction after the armed flush.
  Status Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return status_.has_value(); });
    return *status_;
  }

 private:
  FaultInjectionEnv* const env_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<uint64_t> ops_;
  bool armed_ = false;
  std::optional<Status> status_;
};

/// The DB's rows, from a full scan.
std::map<std::string, std::string> ScanAll(DB* db) {
  std::map<std::string, std::string> rows;
  std::unique_ptr<Iterator> it(db->NewIterator({}));
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    rows.emplace(it->key().ToString(), it->value().ToString());
  }
  EXPECT_TRUE(it->status().ok()) << it->status().ToString();
  return rows;
}

/// Copies every file of `dbname` from `from` to `to`.
void CopyDb(Env* from, Env* to, const std::string& dbname) {
  std::vector<std::string> files;
  ASSERT_TRUE(from->GetChildren(dbname, &files).ok());
  for (const std::string& f : files) {
    std::string data;
    ASSERT_TRUE(ReadFileToString(from, dbname + "/" + f, &data).ok());
    ASSERT_TRUE(WriteStringToFile(to, data, dbname + "/" + f).ok());
  }
}

/// The sorted file numbers of `level` in `db`'s current version.
std::vector<uint64_t> LevelFiles(DB* db, int level) {
  std::vector<uint64_t> numbers;
  const VersionPtr v = static_cast<DBImpl*>(db)->TEST_CurrentVersion();
  for (const Run& run : v->levels()[level].runs) {
    for (const FileMetaPtr& f : run.files) {
      numbers.push_back(f->number);
    }
  }
  std::sort(numbers.begin(), numbers.end());
  return numbers;
}

// A background compaction split into subranges, killed at each write-op
// boundary in turn: in one subrange's table while the other subranges
// build theirs, or in a manifest install. The merge installs its finished
// subranges as it goes, so a failure may come after some installs, which
// stay: every acknowledged key still reads back, and the failure sticks in
// bg_error_ as any background failure does. Reopened on a healthy disk,
// a CompactAll turns the tree into one run that reads as the model.
TEST_F(CrashTest, FailedSubcompactionKeepsInstalledPrefix) {
  options_.background_compaction = true;
  options_.write_buffer_size = 16 << 10;
  options_.max_file_size = 4 << 10;
  options_.size_ratio = 10;
  constexpr int kKeys = 1000;
  std::map<std::string, std::string> model;
  auto put = [&](DB* db, int i, const std::string& value) {
    const std::string key = EncodeKey(static_cast<uint64_t>(i));
    ASSERT_TRUE(db->Put({}, key, value).ok());
    model[key] = value;
  };
  // The starting tree, copied for every kill point: one L1 run under one
  // L0 run.
  Open();
  for (int i = 0; i < kKeys; i++) {
    put(db_.get(), i, std::string(40, 'o'));
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  for (int i = 0; i < kKeys; i += 7) {
    put(db_.get(), i, "a");
  }
  ASSERT_TRUE(db_->Flush().ok());
  const DBStats shape = db_->GetStats();
  ASSERT_EQ(shape.runs_per_level[0], 1) << db_->DebugShape();
  ASSERT_EQ(shape.runs_per_level[1], 1) << db_->DebugShape();
  const std::vector<uint64_t> level1 = LevelFiles(db_.get(), 1);
  db_.reset();
  for (int i = 3; i < kKeys; i += 7) {
    model[EncodeKey(static_cast<uint64_t>(i))] = "b";
  }

  int failures = 0;
  int installed_prefixes = 0;
  bool completed = false;
  for (uint64_t kill_at = 1; !completed; kill_at += 11) {
    ASSERT_LT(kill_at, 5000u) << "the compaction never completed";
    std::unique_ptr<Env> disk(NewMemEnv());
    CopyDb(base_env_.get(), disk.get(), "/db");
    FaultInjectionEnv env(disk.get());
    auto listener = std::make_shared<KillAfterFlush>(&env);
    Options options = options_;
    options.env = &env;
    options.listeners.push_back(listener);
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    // Every other kill point merges on one thread, in key order, so kills
    // past its first install leave an installed prefix however the
    // threads of the others are scheduled.
    static_cast<DBImpl*>(db.get())->TEST_SetSubcompactionHelpers(
        kill_at % 2 == 0 ? 0 : 3);
    // A second L0 run over the whole L1 run: its flush triggers an
    // L0 -> L1 merge of several subranges.
    for (int i = 3; i < kKeys; i += 7) {
      ASSERT_TRUE(db->Put({}, EncodeKey(static_cast<uint64_t>(i)), "b").ok());
    }
    listener->Arm(kill_at);
    // The flush itself succeeds; Flush may return after the compaction
    // that follows it has already failed, with that failure.
    const Status flushed = db->Flush();
    const Status s = listener->Wait();
    env.ArmKillPoint(std::numeric_limits<uint64_t>::max());  // disk works
    if (!flushed.ok()) {
      EXPECT_EQ(flushed.ToString(), s.ToString()) << kill_at;
    }
    if (s.ok()) {
      completed = true;
    } else {
      failures++;
      // Installs before the failure put their outputs in the L1 run,
      // beside what is left of its old files; both L0 runs stay.
      const DBStats failed = db->GetStats();
      EXPECT_EQ(failed.runs_per_level[0], 2) << kill_at << db->DebugShape();
      EXPECT_EQ(failed.runs_per_level[1], 1) << kill_at << db->DebugShape();
      installed_prefixes += LevelFiles(db.get(), 1) != level1;
      EXPECT_FALSE(db->Put({}, "after", "x").ok()) << kill_at;
    }
    std::string value;
    for (const auto& [key, want] : model) {
      ASSERT_TRUE(db->Get({}, key, &value).ok()) << kill_at;
      ASSERT_EQ(value, want) << kill_at;
    }
    ASSERT_TRUE(ScanAll(db.get()) == model) << kill_at;
    if (!s.ok()) {
      db.reset();
      options.listeners.clear();
      ASSERT_TRUE(DB::Open(options, "/db", &db).ok()) << kill_at;
      ASSERT_TRUE(db->CompactAll().ok()) << kill_at;
      EXPECT_EQ(db->GetStats().total_runs, 1) << kill_at << db->DebugShape();
      ASSERT_TRUE(ScanAll(db.get()) == model) << kill_at;
    }
  }
  EXPECT_GE(failures, 10);
  EXPECT_GT(installed_prefixes, 0);
}

// A move installs by one manifest record. CompactAll over a level-0 run
// that overlaps nothing below moves it into the empty level 1 first; that
// CompactAll, killed at each write op of the record in turn and then
// crashed, recovers on either side of the record's sync: the run still in
// level 0, or the same files in level 1. Either tree reads as the model
// and passes the consistency check, and every table file on disk is one
// the tree holds: no moved file is deleted or left behind.
TEST_F(CrashTest, MoveKillPointsRecoverOnEitherSideOfTheSync) {
  options_.max_file_size = 4 << 10;
  constexpr int kKeys = 1500;
  std::map<std::string, std::string> model;
  Open();
  auto put = [&](int i) {
    const std::string key = EncodeKey(static_cast<uint64_t>(i));
    model[key] = ValueForKey(key, 40);
    ASSERT_TRUE(db_->Put({}, key, model[key]).ok());
  };
  for (int i = 0; i < kKeys; i++) {
    put(i);
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  for (int i = kKeys; i < kKeys + 20; i++) {  // above every key below
    put(i);
  }
  ASSERT_TRUE(db_->Flush().ok());
  const DBStats shape = db_->GetStats();
  ASSERT_EQ(shape.total_runs, 2) << db_->DebugShape();
  ASSERT_EQ(shape.runs_per_level[0], 1) << db_->DebugShape();
  ASSERT_EQ(shape.runs_per_level[1], 0) << db_->DebugShape();
  const std::vector<uint64_t> moving = LevelFiles(db_.get(), 0);
  db_.reset();

  bool before_sync = false;
  bool after_sync = false;
  for (uint64_t kill_at = 1; !after_sync; kill_at++) {
    ASSERT_LT(kill_at, 20u) << "the move never became durable";
    std::unique_ptr<Env> disk(NewMemEnv());
    CopyDb(base_env_.get(), disk.get(), "/db");
    FaultInjectionEnv env(disk.get());
    Options options = options_;
    options.env = &env;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    env.ArmKillPoint(kill_at);
    EXPECT_FALSE(db->CompactAll().ok()) << kill_at;
    env.Kill();
    db.reset();
    ASSERT_TRUE(env.Crash().ok());
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok()) << kill_at;
    ASSERT_TRUE(ScanAll(db.get()) == model) << kill_at << db->DebugShape();
    EXPECT_TRUE(
        static_cast<DBImpl*>(db.get())->TEST_CheckConsistency().ok());
    const std::vector<uint64_t> level0 = LevelFiles(db.get(), 0);
    const std::vector<uint64_t> level1 = LevelFiles(db.get(), 1);
    if (level0 == moving && level1.empty()) {
      before_sync = true;
    } else {
      ASSERT_TRUE(level0.empty() && level1 == moving)
          << kill_at << db->DebugShape();
      after_sync = true;
    }
    std::vector<std::string> children;
    ASSERT_TRUE(disk->GetChildren("/db", &children).ok());
    int tables = 0;
    for (const std::string& name : children) {
      uint64_t number;
      FileType type;
      tables += ParseFileName(name, &number, &type) &&
                type == FileType::kTableFile;
    }
    EXPECT_EQ(tables, db->GetStats().total_files) << kill_at;
  }
  EXPECT_TRUE(before_sync);
}

// A CompactAll killed at write-op boundaries in turn, then crashed and
// reopened. Its merge installs its finished subranges as it goes, so some
// kills fall between two installs: the recovered L1 run holds the
// installed prefix beside the rest of its old files, L0 keeps its run,
// and the outputs built after the last install are gone. Every recovered
// tree must read as the model, and a CompactAll on a healthy disk must
// turn it into one run that still does.
TEST_F(CrashTest, CompactAllKillPointsKeepInstalledPrefix) {
  options_.write_buffer_size = 64 << 10;
  options_.max_file_size = 4 << 10;
  options_.size_ratio = 10;
  constexpr int kKeys = 1500;
  std::map<std::string, std::string> model;
  Open();
  for (int i = 0; i < kKeys; i++) {
    const std::string key = EncodeKey(static_cast<uint64_t>(i));
    model[key] = ValueForKey(key, 40);
    ASSERT_TRUE(db_->Put({}, key, model[key]).ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  for (int i = 0; i < kKeys; i += 5) {
    const std::string key = EncodeKey(static_cast<uint64_t>(i));
    if (i % 15 == 0) {
      model.erase(key);
      ASSERT_TRUE(db_->Delete({}, key).ok());
    } else {
      model[key] = "new";
      ASSERT_TRUE(db_->Put({}, key, model[key]).ok());
    }
  }
  ASSERT_TRUE(db_->Flush().ok());
  const DBStats shape = db_->GetStats();
  ASSERT_EQ(shape.total_runs, 2) << db_->DebugShape();
  ASSERT_EQ(shape.runs_per_level[1], 1) << db_->DebugShape();
  db_.reset();

  // Trees recovered between two installs, told apart by their level-1
  // bytes.
  std::set<uint64_t> prefix_trees;
  int kills = 0;
  bool completed = false;
  for (uint64_t kill_at = 1; !completed; kill_at += 3) {
    ASSERT_LT(kill_at, 5000u) << "the compaction never completed";
    std::unique_ptr<Env> disk(NewMemEnv());
    CopyDb(base_env_.get(), disk.get(), "/db");
    FaultInjectionEnv env(disk.get());
    Options options = options_;
    options.env = &env;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    static_cast<DBImpl*>(db.get())->TEST_SetSubcompactionHelpers(0);
    env.ArmKillPoint(kill_at);
    completed = db->CompactAll().ok();
    kills += !completed;
    env.Kill();
    db.reset();
    ASSERT_TRUE(env.Crash().ok());
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok()) << kill_at;
    ASSERT_TRUE(ScanAll(db.get()) == model) << kill_at << db->DebugShape();
    const DBStats recovered = db->GetStats();
    EXPECT_EQ(recovered.runs_per_level[1], 1) << kill_at << db->DebugShape();
    if (recovered.runs_per_level[0] == 1 &&
        recovered.bytes_per_level[1] != shape.bytes_per_level[1]) {
      prefix_trees.insert(recovered.bytes_per_level[1]);
    }
    ASSERT_TRUE(db->CompactAll().ok()) << kill_at;
    EXPECT_EQ(db->GetStats().total_runs, 1) << kill_at << db->DebugShape();
    ASSERT_TRUE(ScanAll(db.get()) == model) << kill_at;
  }
  EXPECT_GT(kills, 10);
  // At least two such trees: the first of them was followed by another
  // install before the last.
  EXPECT_GE(prefix_trees.size(), 2u);
}

TEST_F(CrashTest, KillPointMatrixIsPrefixConsistent) {
  // Deterministic kill-point matrix: replay one fixed workload, killing the
  // run at every write-operation boundary in turn — mid WAL record, between
  // a WAL append and its sync, inside an SSTable build, during a manifest
  // install. After each kill + crash + reopen, the recovered state must
  // equal the state after some single cut point in the acknowledged writes,
  // at least the last synced one. The env records which file each kill
  // landed in, so the sweep also proves it exercised all three structures.
  struct Op {
    std::string key;
    std::optional<std::string> value;  // nullopt = delete
    bool sync;
  };
  std::vector<Op> workload;
  {
    Random gen(0x4b11);
    const std::string pad(80, 'p');
    for (int i = 0; i < 160; i++) {
      Op op;
      op.key = EncodeKey(gen.Uniform(50));
      op.sync = (i % 13) == 0;
      if ((i % 7) == 6) {
        op.value = std::nullopt;
      } else {
        op.value = "v" + std::to_string(i) + pad;
      }
      workload.push_back(std::move(op));
    }
  }

  // The per-iteration runner: fresh world, kill after `kill_at` write ops
  // (no kill when kill_at < 0). Returns how many leading ops were
  // acknowledged and the index of the last acked synced op.
  auto run = [&](int64_t kill_at, int* acked, int* durable,
                 std::string* kill_file, uint64_t* total_ops) {
    db_.reset();  // before its env goes away
    base_env_.reset(NewMemEnv());
    env_ = std::make_unique<FaultInjectionEnv>(base_env_.get());
    options_.env = env_.get();
    if (kill_at >= 0) {
      env_->ArmKillPoint(static_cast<uint64_t>(kill_at));
    }
    *acked = 0;
    *durable = -1;
    std::unique_ptr<DB> db;
    if (DB::Open(options_, "/db", &db).ok()) {
      db_ = std::move(db);
      WriteOptions sync;
      sync.sync = true;
      for (size_t i = 0; i < workload.size(); i++) {
        const Op& op = workload[i];
        const WriteOptions& wo = op.sync ? sync : WriteOptions();
        Status s = op.value ? db_->Put(wo, op.key, *op.value)
                            : db_->Delete(wo, op.key);
        if (!s.ok()) {
          break;  // dead from here on; later ops would fail too
        }
        *acked = static_cast<int>(i) + 1;
        if (op.sync) {
          *durable = static_cast<int>(i);
        }
      }
    }
    *kill_file = env_->kill_file();
    *total_ops = env_->write_ops();
  };

  // Baseline: un-killed run counts the write ops the sweep must cover.
  int acked, durable;
  std::string kill_file;
  uint64_t total_ops;
  run(-1, &acked, &durable, &kill_file, &total_ops);
  ASSERT_EQ(acked, static_cast<int>(workload.size()));
  ASSERT_GT(total_ops, 100u);  // sanity: WAL + flush + manifest traffic

  std::map<std::string, int> kills_by_kind;
  const int sweep_end =
      std::min<int>(static_cast<int>(total_ops), 400);
  for (int k = 0; k < sweep_end; k++) {
    run(k, &acked, &durable, &kill_file, &total_ops);

    // Classify where this kill landed (suffix of the victim file).
    if (!kill_file.empty()) {
      std::string kind = "other";
      if (kill_file.size() > 4 &&
          kill_file.compare(kill_file.size() - 4, 4, ".wal") == 0) {
        kind = "wal";
      } else if (kill_file.size() > 4 &&
                 kill_file.compare(kill_file.size() - 4, 4, ".sst") == 0) {
        kind = "sst";
      } else if (kill_file.find("MANIFEST-") != std::string::npos) {
        kind = "manifest";
      }
      kills_by_kind[kind]++;
    }

    env_->Kill();
    db_.reset();
    ASSERT_TRUE(env_->Crash().ok());
    Open();

    // Observe every key the workload touches.
    std::map<std::string, std::optional<std::string>> observed;
    for (const Op& op : workload) {
      if (observed.count(op.key)) {
        continue;
      }
      std::string value;
      Status s = db_->Get({}, op.key, &value);
      ASSERT_TRUE(s.ok() || s.IsNotFound()) << "k=" << k << " " << s.ToString();
      observed[op.key] =
          s.ok() ? std::optional<std::string>(value) : std::nullopt;
    }

    // Some cut c >= the last acked synced op must explain the state. The
    // op that failed may have been partially applied-and-made-durable
    // (e.g. its inline flush installed before the kill), so the search
    // includes it.
    const int last_candidate = std::min<int>(acked,
        static_cast<int>(workload.size()) - 1);
    bool explained = false;
    for (int cut = durable; cut <= last_candidate && !explained; cut++) {
      std::map<std::string, std::optional<std::string>> state;
      for (int w = 0; w <= cut; w++) {
        state[workload[w].key] = workload[w].value;
      }
      bool match = true;
      for (const auto& [key, v] : observed) {
        auto it = state.find(key);
        const std::optional<std::string> expect =
            it == state.end() ? std::nullopt : it->second;
        if (expect != v) {
          match = false;
          break;
        }
      }
      explained = match;
    }
    ASSERT_TRUE(explained)
        << "kill point " << k << " (file " << kill_file << "): no prefix cut"
        << " in [" << durable << ", " << last_candidate
        << "] explains the recovered state";
    db_.reset();
  }

  // The sweep must have died inside each structure at least once.
  EXPECT_GT(kills_by_kind["wal"], 0);
  EXPECT_GT(kills_by_kind["sst"], 0);
  EXPECT_GT(kills_by_kind["manifest"], 0);
}

TEST_F(CrashTest, GroupCommitKillPointsArePrefixConsistent) {
  // Kill-point sweep over a *concurrent* workload: four writer threads race
  // through the group-commit queue, so successive kill points land at every
  // boundary of a group's life — between the group's single WAL append and
  // its sync, and between the sync and the memtable apply/ack. After each
  // kill + crash + reopen, every thread's recovered writes must form a
  // prefix of the order that thread submitted them (a follower's write can
  // never surface without its leader-assigned predecessors: the group is
  // one WAL record, and groups commit in queue order), covering at least
  // the thread's last acknowledged synced op.
  constexpr int kThreads = 4;
  constexpr int kOps = 25;
  const std::string pad(60, 'g');
  auto key_of = [](int t, int j) {
    return "t" + std::to_string(t) + "-" + std::to_string(100 + j);
  };
  auto value_of = [&](int t, int j) {
    return "v" + std::to_string(t) + "." + std::to_string(j) + pad;
  };

  // Fresh world; kill after `kill_at` write ops (< 0 = never). Each thread
  // reports how many of its leading ops were acked and the index of its
  // last acked synced op.
  auto run = [&](int64_t kill_at, std::array<int, kThreads>* acked,
                 std::array<int, kThreads>* durable, uint64_t* total_ops) {
    db_.reset();
    base_env_.reset(NewMemEnv());
    env_ = std::make_unique<FaultInjectionEnv>(base_env_.get());
    options_.env = env_.get();
    if (kill_at >= 0) {
      env_->ArmKillPoint(static_cast<uint64_t>(kill_at));
    }
    acked->fill(0);
    durable->fill(-1);
    std::unique_ptr<DB> db;
    if (DB::Open(options_, "/db", &db).ok()) {
      db_ = std::move(db);
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
          WriteOptions wo;
          for (int j = 0; j < kOps; j++) {
            wo.sync = (j % 5 == 0);
            if (!db_->Put(wo, key_of(t, j), value_of(t, j)).ok()) {
              return;  // env is dead; every later op would fail too
            }
            (*acked)[t] = j + 1;
            if (wo.sync) {
              (*durable)[t] = j;
            }
          }
        });
      }
      for (auto& th : threads) {
        th.join();
      }
    }
    *total_ops = env_->write_ops();
  };

  std::array<int, kThreads> acked, durable;
  uint64_t total_ops;
  run(-1, &acked, &durable, &total_ops);
  for (int t = 0; t < kThreads; t++) {
    ASSERT_EQ(acked[t], kOps);
  }
  ASSERT_GT(total_ops, 50u);

  // Thread scheduling reshuffles groups between runs, so each kill point k
  // lands at whatever boundary that run's interleaving produced; across
  // the sweep that covers appends, syncs, and the gaps between them.
  const int sweep_end = std::min<int>(static_cast<int>(total_ops), 160);
  for (int k = 0; k < sweep_end; k++) {
    run(k, &acked, &durable, &total_ops);
    env_->Kill();
    db_.reset();
    ASSERT_TRUE(env_->Crash().ok());
    Open();

    for (int t = 0; t < kThreads; t++) {
      // Length of the recovered prefix for this thread.
      int prefix = 0;
      std::string value;
      while (prefix < kOps) {
        Status s = db_->Get({}, key_of(t, prefix), &value);
        ASSERT_TRUE(s.ok() || s.IsNotFound())
            << "k=" << k << " " << s.ToString();
        if (!s.ok()) {
          break;
        }
        ASSERT_EQ(value, value_of(t, prefix)) << "k=" << k;
        prefix++;
      }
      // Everything past the prefix must be absent (no holes: an op may
      // never surface without its predecessors).
      for (int j = prefix + 1; j < kOps; j++) {
        ASSERT_TRUE(db_->Get({}, key_of(t, j), &value).IsNotFound())
            << "kill point " << k << ": thread " << t << " lost op "
            << prefix << " but kept op " << j;
      }
      // Acked synced ops survive; unsubmitted ops never appear. (The op
      // that failed, index acked[t], may legitimately surface: its group
      // could have become durable before the ack was suppressed.)
      EXPECT_GE(prefix, durable[t] + 1)
          << "kill point " << k << ": thread " << t
          << " lost an acknowledged synced write";
      EXPECT_LE(prefix, acked[t] + 1)
          << "kill point " << k << ": thread " << t
          << " resurrected a write it never submitted";
    }
    db_.reset();
  }
}

TEST_F(CrashTest, ShardedKillPointsArePerShardPrefixConsistent) {
  // The sharded analogue of the group-commit sweep above: four writer
  // threads spray a 4-shard DB while a kill point lands after k write
  // ops — inside some shard's WAL append, mid-sync, or mid-flush (the
  // values are big enough that shards flush during the run). Each shard
  // has its own WAL and group-commit queue, so after crash + recovery the
  // PR 6 window applies *per (thread, shard)*: the recovered subsequence
  // of a thread's ops restricted to one shard is a hole-free prefix of
  // what the thread submitted to that shard, covering at least its last
  // acknowledged synced op there and never exceeding acks+1. A shard that
  // loses its unsynced tail must not punch holes in another shard's
  // recovered prefix (shards recover independently).
  constexpr int kThreads = 4;
  constexpr int kShards = 4;
  constexpr int kOps = 20;
  const std::string pad(500, 's');
  options_.num_shards = kShards;
  auto key_of = [](int t, int j) {
    return "t" + std::to_string(t) + "-" + std::to_string(100 + j);
  };
  auto value_of = [&](int t, int j) {
    return "v" + std::to_string(t) + "." + std::to_string(j) + pad;
  };
  auto shard_of = [&](int t, int j) {
    return static_cast<int>(ShardOfKey(Slice(key_of(t, j)), kShards));
  };
  // Op indices of thread t that route to shard s, in submission order.
  std::array<std::array<std::vector<int>, kShards>, kThreads> ops_on;
  for (int t = 0; t < kThreads; t++) {
    for (int j = 0; j < kOps; j++) {
      ops_on[t][shard_of(t, j)].push_back(j);
    }
  }

  std::array<int, kThreads> acked;
  std::array<std::array<int, kShards>, kThreads> durable;
  uint64_t total_ops = 0;
  auto run = [&](int64_t kill_at) {
    db_.reset();
    base_env_.reset(NewMemEnv());
    env_ = std::make_unique<FaultInjectionEnv>(base_env_.get());
    options_.env = env_.get();
    if (kill_at >= 0) {
      env_->ArmKillPoint(static_cast<uint64_t>(kill_at));
    }
    acked.fill(0);
    for (auto& d : durable) {
      d.fill(-1);
    }
    std::unique_ptr<DB> db;
    if (DB::Open(options_, "/db", &db).ok()) {
      db_ = std::move(db);
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
          WriteOptions wo;
          for (int j = 0; j < kOps; j++) {
            wo.sync = (j % 5 == 0);
            if (!db_->Put(wo, key_of(t, j), value_of(t, j)).ok()) {
              return;  // env is dead; every later op would fail too
            }
            acked[t] = j + 1;
            if (wo.sync) {
              // This sync covered shard_of(t,j)'s WAL only; the thread's
              // earlier ops there are durable with it.
              durable[t][shard_of(t, j)] = j;
            }
          }
        });
      }
      for (auto& th : threads) {
        th.join();
      }
    }
    total_ops = env_->write_ops();
  };

  run(-1);
  for (int t = 0; t < kThreads; t++) {
    ASSERT_EQ(acked[t], kOps);
  }
  // Big values on small buffers: every shard must have flushed at least
  // once, or the sweep would never kill anyone mid-flush.
  {
    auto* sharded = static_cast<ShardedDB*>(db_.get());
    for (int s = 0; s < kShards; s++) {
      ASSERT_GT(sharded->TEST_Shard(s)->GetStats().flushes, 0u)
          << "shard " << s << " never flushed; grow the values";
    }
  }
  ASSERT_GT(total_ops, 100u);

  const int sweep_end = std::min<int>(static_cast<int>(total_ops), 240);
  for (int k = 0; k < sweep_end; k += 2) {
    run(k);
    env_->Kill();
    db_.reset();
    ASSERT_TRUE(env_->Crash().ok());
    Open();

    for (int t = 0; t < kThreads; t++) {
      for (int s = 0; s < kShards; s++) {
        const std::vector<int>& ops = ops_on[t][s];
        // Recovered prefix of this thread's ops on this shard.
        size_t prefix = 0;
        std::string value;
        while (prefix < ops.size()) {
          Status st = db_->Get({}, key_of(t, ops[prefix]), &value);
          ASSERT_TRUE(st.ok() || st.IsNotFound())
              << "k=" << k << " " << st.ToString();
          if (!st.ok()) {
            break;
          }
          ASSERT_EQ(value, value_of(t, ops[prefix])) << "k=" << k;
          prefix++;
        }
        // No holes within the shard: an op never surfaces without its
        // same-shard predecessors.
        for (size_t i = prefix + 1; i < ops.size(); i++) {
          ASSERT_TRUE(db_->Get({}, key_of(t, ops[i]), &value).IsNotFound())
              << "kill point " << k << ": thread " << t << " shard " << s
              << " lost op " << ops[prefix] << " but kept op " << ops[i];
        }
        // Window lower bound: acked synced ops on this shard survive,
        // independent of what other shards lost.
        size_t durable_count = 0;
        while (durable_count < ops.size() &&
               ops[durable_count] <= durable[t][s]) {
          durable_count++;
        }
        EXPECT_GE(prefix, durable_count)
            << "kill point " << k << ": thread " << t << " shard " << s
            << " lost an acknowledged synced write";
        // Window upper bound: ops the thread never submitted (index >
        // acked; the in-flight op at index acked may survive) stay gone.
        for (size_t i = 0; i < prefix; i++) {
          EXPECT_LE(ops[i], acked[t])
              << "kill point " << k << ": thread " << t << " shard " << s
              << " resurrected a write it never submitted";
        }
      }
    }
    db_.reset();
  }
}

}  // namespace
}  // namespace lsmlab
