// Concurrency: writers, readers, and snapshot reads racing against the
// background flush/compaction pipeline. Run under -DLSMLAB_SANITIZE=thread
// to prove the pipeline is data-race free (see README).

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/db.h"
#include "core/sharded_db.h"
#include "memtable/memtable.h"
#include "obs/event_listener.h"
#include "storage/env.h"
#include "util/random.h"

namespace lsmlab {
namespace {

std::string TestKey(int writer, int n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "w%d_%06d", writer, n);
  return buf;
}

// Self-describing value: "<key>#<version>#<64 copies of a version-derived
// byte>". A reader can verify any observed value is internally consistent,
// i.e. never a torn mix of two versions.
std::string TestValue(const std::string& key, int version) {
  std::string v = key;
  v.push_back('#');
  v.append(std::to_string(version));
  v.push_back('#');
  v.append(64, static_cast<char>('a' + version % 26));
  return v;
}

bool ValueConsistent(const std::string& key, const std::string& value,
                     int* version_out) {
  if (value.size() < key.size() + 2 ||
      value.compare(0, key.size(), key) != 0 || value[key.size()] != '#') {
    return false;
  }
  const size_t ver_begin = key.size() + 1;
  const size_t ver_end = value.find('#', ver_begin);
  if (ver_end == std::string::npos || ver_end == ver_begin) {
    return false;
  }
  const int version = std::stoi(value.substr(ver_begin, ver_end - ver_begin));
  if (value.size() != ver_end + 1 + 64) {
    return false;
  }
  const char expect = static_cast<char>('a' + version % 26);
  for (size_t i = ver_end + 1; i < value.size(); i++) {
    if (value[i] != expect) {
      return false;
    }
  }
  *version_out = version;
  return true;
}

Options BackgroundOptions(Env* env) {
  Options options;
  options.env = env;
  options.background_compaction = true;
  options.write_buffer_size = 32 << 10;
  options.max_file_size = 16 << 10;
  options.level0_compaction_trigger = 2;
  options.size_ratio = 4;
  return options;
}

TEST(ConcurrencyTest, WritersReadersSnapshotsRaceBackgroundCompaction) {
  std::unique_ptr<Env> env(NewMemEnv());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(BackgroundOptions(env.get()), "/conc", &db).ok());

  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kKeysPerWriter = 2000;
  constexpr int kVersions = 3;

  std::atomic<int> write_errors{0};
  std::atomic<int> torn_values{0};
  std::atomic<int> stale_versions{0};
  std::atomic<int> snapshot_violations{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      for (int ver = 0; ver < kVersions; ver++) {
        for (int i = 0; i < kKeysPerWriter; i++) {
          const std::string key = TestKey(w, i);
          if (!db->Put({}, key, TestValue(key, ver)).ok()) {
            write_errors.fetch_add(1);
            return;
          }
        }
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      uint64_t x = 88172645463325252ull + static_cast<uint64_t>(r);
      std::string value;
      while (!done.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::string key =
            TestKey(static_cast<int>(x % kWriters),
                    static_cast<int>((x >> 8) % kKeysPerWriter));
        if (db->Get({}, key, &value).ok()) {
          int version = -1;
          if (!ValueConsistent(key, value, &version)) {
            torn_values.fetch_add(1);
          } else if (version < 0 || version >= kVersions) {
            stale_versions.fetch_add(1);
          }
        }
      }
    });
  }

  // Snapshot reader: two reads of the same key at one snapshot must agree
  // even while flushes and compactions churn underneath.
  std::thread snapshotter([&] {
    std::string first;
    std::string again;
    while (!done.load(std::memory_order_relaxed)) {
      const Snapshot* snap = db->GetSnapshot();
      ReadOptions ro;
      ro.snapshot = snap;
      const std::string key = TestKey(0, 7);
      const bool found1 = db->Get(ro, key, &first).ok();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const bool found2 = db->Get(ro, key, &again).ok();
      if (found1 != found2 || (found1 && first != again)) {
        snapshot_violations.fetch_add(1);
      }
      db->ReleaseSnapshot(snap);
    }
  });

  for (std::thread& t : writers) {
    t.join();
  }
  done.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  snapshotter.join();

  EXPECT_EQ(write_errors.load(), 0);
  EXPECT_EQ(torn_values.load(), 0);
  EXPECT_EQ(stale_versions.load(), 0);
  EXPECT_EQ(snapshot_violations.load(), 0);

  // Quiesce and verify every key holds its final version.
  ASSERT_TRUE(db->CompactAll().ok());
  std::string value;
  for (int w = 0; w < kWriters; w++) {
    for (int i = 0; i < kKeysPerWriter; i++) {
      const std::string key = TestKey(w, i);
      ASSERT_TRUE(db->Get({}, key, &value).ok()) << key;
      int version = -1;
      ASSERT_TRUE(ValueConsistent(key, value, &version)) << key;
      EXPECT_EQ(version, kVersions - 1) << key;
    }
  }
}

TEST(ConcurrencyTest, IteratorsStayConsistentDuringBackgroundChurn) {
  std::unique_ptr<Env> env(NewMemEnv());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(BackgroundOptions(env.get()), "/iter", &db).ok());

  constexpr int kKeys = 3000;
  std::atomic<bool> done{false};
  std::atomic<int> scan_errors{0};

  std::thread writer([&] {
    for (int ver = 0; ver < 3; ver++) {
      for (int i = 0; i < kKeys; i++) {
        const std::string key = TestKey(0, i);
        ASSERT_TRUE(db->Put({}, key, TestValue(key, ver)).ok());
      }
    }
  });

  std::thread scanner([&] {
    while (!done.load(std::memory_order_relaxed)) {
      std::unique_ptr<Iterator> it(db->NewIterator({}));
      std::string prev;
      int n = 0;
      for (it->SeekToFirst(); it->Valid() && n < 500; it->Next(), n++) {
        const std::string key = it->key().ToString();
        if (!prev.empty() && key <= prev) {
          scan_errors.fetch_add(1);  // ordering violated
        }
        int version = -1;
        std::string value = it->value().ToString();
        if (!ValueConsistent(key, value, &version)) {
          scan_errors.fetch_add(1);
        }
        prev = key;
      }
      if (!it->status().ok()) {
        scan_errors.fetch_add(1);
      }
    }
  });

  writer.join();
  done.store(true);
  scanner.join();
  EXPECT_EQ(scan_errors.load(), 0);
}

// The sorted-vector memtable and its hash index are read with no DB lock
// while writers insert into them (the insert reallocates the vector).
// Every value a reader sees through Get, MultiGet or a full scan must be
// intact and never older than a version it already saw for that key.
TEST(ConcurrencyTest, SortedVectorMemtableReadersRaceWriters) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options = BackgroundOptions(env.get());
  options.memtable_rep = MemTable::Rep::kSortedVector;
  options.memtable_hash_index = true;
  options.allow_concurrent_memtable_write = true;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/vec", &db).ok());

  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kKeysPerWriter = 400;
  constexpr int kVersions = 3;
  std::atomic<bool> done{false};
  std::atomic<int> write_errors{0};
  std::atomic<int> violations{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      for (int ver = 0; ver < kVersions; ver++) {
        for (int i = 0; i < kKeysPerWriter; i++) {
          const std::string key = TestKey(w, i);
          if (!db->Put({}, key, TestValue(key, ver)).ok()) {
            write_errors.fetch_add(1);
            return;
          }
        }
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      // newest[w * kKeysPerWriter + i]: the newest version seen for the key.
      std::vector<int> newest(kWriters * kKeysPerWriter, -1);
      auto check = [&](const std::string& key, const std::string& value) {
        int w = 0;
        int i = 0;
        int version = -1;
        if (std::sscanf(key.c_str(), "w%d_%d", &w, &i) != 2 || w < 0 ||
            w >= kWriters || i < 0 || i >= kKeysPerWriter ||
            !ValueConsistent(key, value, &version) || version < 0 ||
            version >= kVersions) {
          violations.fetch_add(1);
          return;
        }
        int& seen = newest[w * kKeysPerWriter + i];
        if (version < seen) {
          violations.fetch_add(1);
        } else {
          seen = version;
        }
      };
      Random rng(17 + r);
      std::string value;
      while (!done.load(std::memory_order_relaxed)) {
        const std::string key =
            TestKey(static_cast<int>(rng.Uniform(kWriters)),
                    static_cast<int>(rng.Uniform(kKeysPerWriter)));
        if (db->Get({}, key, &value).ok()) {
          check(key, value);
        }

        std::vector<std::string> keys;
        for (int k = 0; k < 8; k++) {
          keys.push_back(
              TestKey(static_cast<int>(rng.Uniform(kWriters)),
                      static_cast<int>(rng.Uniform(kKeysPerWriter))));
        }
        const std::vector<Slice> slices(keys.begin(), keys.end());
        std::vector<std::string> values;
        std::vector<Status> statuses;
        db->MultiGet({}, slices, &values, &statuses);
        for (size_t k = 0; k < keys.size(); k++) {
          if (statuses[k].ok()) {
            check(keys[k], values[k]);
          }
        }

        std::unique_ptr<Iterator> it(db->NewIterator({}));
        for (it->SeekToFirst(); it->Valid(); it->Next()) {
          check(it->key().ToString(), it->value().ToString());
        }
        if (!it->status().ok()) {
          violations.fetch_add(1);
        }
      }
    });
  }

  for (std::thread& t : writers) {
    t.join();
  }
  done.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(write_errors.load(), 0);
  EXPECT_EQ(violations.load(), 0);

  std::string value;
  for (int w = 0; w < kWriters; w++) {
    for (int i = 0; i < kKeysPerWriter; i++) {
      const std::string key = TestKey(w, i);
      ASSERT_TRUE(db->Get({}, key, &value).ok()) << key;
      int version = -1;
      ASSERT_TRUE(ValueConsistent(key, value, &version)) << key;
      EXPECT_EQ(version, kVersions - 1) << key;
    }
  }
}

TEST(ConcurrencyTest, StallAndSlowdownCountersFire) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  options.background_compaction = true;
  options.write_buffer_size = 8 << 10;
  options.max_file_size = 8 << 10;
  options.level0_compaction_trigger = 2;
  options.l0_slowdown_trigger = 1;  // any L0 run delays the writer
  options.l0_stop_trigger = 2;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/stall", &db).ok());

  const std::string value(128, 'v');
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db->Put({}, TestKey(0, i), value).ok());
  }
  const DBStats stats = db->GetStats();
  EXPECT_GT(stats.write_slowdowns + stats.write_stalls, 0u);
  EXPECT_GT(stats.write_slowdown_micros + stats.write_stall_micros, 0u);

  std::string got;
  ASSERT_TRUE(db->Get({}, TestKey(0, 0), &got).ok());
  EXPECT_EQ(got, value);
  ASSERT_TRUE(db->Get({}, TestKey(0, 1999), &got).ok());
  EXPECT_EQ(got, value);
}

TEST(ConcurrencyTest, FlushWaitsForBackgroundInstall) {
  std::unique_ptr<Env> env(NewMemEnv());
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(BackgroundOptions(env.get()), "/flush", &db).ok());

  const std::string value(64, 'v');
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db->Put({}, TestKey(0, i), value).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  // After Flush returns, all data is in level-0 runs (memtable drained).
  const DBStats stats = db->GetStats();
  EXPECT_GT(stats.flushes, 0u);
  std::string got;
  ASSERT_TRUE(db->Get({}, TestKey(0, 499), &got).ok());
  EXPECT_EQ(got, value);
}

TEST(ConcurrencyTest, RecoversDataPendingInBackgroundPipeline) {
  std::unique_ptr<Env> env(NewMemEnv());
  const std::string value(64, 'r');
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(BackgroundOptions(env.get()), "/recover", &db).ok());
    for (int i = 0; i < 1500; i++) {
      ASSERT_TRUE(db->Put({}, TestKey(0, i), value).ok());
    }
    // Close without Flush: whatever sits in mem_/imm_ must survive via WAL.
  }
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(BackgroundOptions(env.get()), "/recover", &db).ok());
    std::string got;
    for (int i = 0; i < 1500; i++) {
      ASSERT_TRUE(db->Get({}, TestKey(0, i), &got).ok()) << i;
      EXPECT_EQ(got, value);
    }
  }
}

TEST(ConcurrencyTest, ShardedBackgroundJobsOverlapAcrossShards) {
  // 8 writer threads × 4 shards with flushes and compactions continuously
  // in flight. The point under test: the shared background pool really
  // runs jobs from different shards concurrently (the old engine had one
  // serialized worker). The assertion is the pool's concurrency
  // high-water counter — a monotonic ticker maintained at task start —
  // not a timing measurement: each shard admits at most one background
  // job at a time, so a high-water mark of >= 2 can only mean two
  // different shards' jobs overlapped.
  constexpr int kWriters = 8;
  constexpr int kShards = 4;
  constexpr int kOpsPerRound = 400;
  constexpr int kMaxRounds = 40;
  std::unique_ptr<Env> env(NewMemEnv());
  Options options = BackgroundOptions(env.get());
  options.num_shards = kShards;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/sharded_conc", &db).ok());
  auto* sharded = static_cast<ShardedDB*>(db.get());

  int rounds = 0;
  for (; rounds < kMaxRounds && sharded->TEST_BgJobsHighWater() < 2;
       rounds++) {
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; w++) {
      writers.emplace_back([&, w] {
        for (int j = 0; j < kOpsPerRound; j++) {
          const std::string key = TestKey(w, rounds * kOpsPerRound + j);
          ASSERT_TRUE(db->Put({}, key, TestValue(key, rounds)).ok());
        }
      });
    }
    for (auto& t : writers) {
      t.join();
    }
  }
  EXPECT_GE(sharded->TEST_BgJobsHighWater(), 2)
      << "no two shards' background jobs ever overlapped after " << rounds
      << " rounds";

  // The load really exercised the background pipeline on every shard.
  uint64_t min_flushes = ~0ull;
  for (int s = 0; s < kShards; s++) {
    min_flushes =
        std::min(min_flushes, sharded->TEST_Shard(s)->GetStats().flushes);
  }
  EXPECT_GT(min_flushes, 0u) << "some shard never flushed";

  // And the data is intact: every thread's writes read back consistent.
  std::string value;
  for (int w = 0; w < kWriters; w++) {
    for (int j = 0; j < rounds * kOpsPerRound; j += 97) {
      const std::string key = TestKey(w, j);
      ASSERT_TRUE(db->Get({}, key, &value).ok()) << key;
      int version = -1;
      ASSERT_TRUE(ValueConsistent(key, value, &version)) << key;
    }
  }
}

// An empty skiplist memtable already reports one 4 KiB arena block. With
// write_buffer_size at that floor, every fresh memtable looks full; the
// write controller must not freeze memtables that hold nothing, or the
// first Put never returns. Returns a process exit code: 0 on success.
int PutsAtArenaFloor() {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options = BackgroundOptions(env.get());
  options.write_buffer_size = 4 << 10;
  std::unique_ptr<DB> db;
  if (!DB::Open(options, "/floor", &db).ok()) {
    return 1;
  }
  const std::string value(64, 'f');
  for (int i = 0; i < 100; i++) {
    if (!db->Put({}, TestKey(0, i), value).ok()) {
      return 2;
    }
  }
  std::string got;
  if (db->GetStats().flushes == 0 || !db->Get({}, TestKey(0, 99), &got).ok() ||
      got != value) {
    return 3;
  }
  return 0;
}

// The Puts run in a child process under a 20 s alarm, so a livelock fails
// the test (killed by SIGALRM) instead of hanging it.
TEST(ConcurrencyTest, WriteBufferAtArenaFloorMakesProgress) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        alarm(20);
        std::_Exit(PutsAtArenaFloor());
      },
      ::testing::ExitedWithCode(0), "");
}

// FIFO never merges level 0, so in background mode level 0 reaches the
// stop trigger while its runs are far under the size budget. The write
// controller's stop stall waits for a merge; once the worker finds
// nothing to pick, the writer must go on instead of waiting again and
// again. Returns a process exit code: 0 on success.
int FifoPutsPastTheStopTrigger() {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  options.background_compaction = true;
  options.merge_policy = MergePolicy::kFifo;
  options.write_buffer_size = 64 << 10;
  std::unique_ptr<DB> db;
  if (!DB::Open(options, "/fifo", &db).ok()) {
    return 1;
  }
  const std::string value(1000, 'q');
  constexpr int kPuts = 2000;  // about 30 memtables, past 12 level-0 runs
  for (int i = 0; i < kPuts; i++) {
    if (!db->Put({}, TestKey(0, i), value).ok()) {
      return 2;
    }
  }
  const DBStats stats = db->GetStats();
  std::string got;
  if (stats.runs_per_level.empty() ||
      stats.runs_per_level[0] < options.l0_stop_trigger ||
      !db->Get({}, TestKey(0, kPuts - 1), &got).ok() || got != value) {
    return 3;
  }
  return 0;
}

// The Puts run in a child process under a 20 s alarm, so a livelock fails
// the test (killed by SIGALRM) instead of hanging it.
TEST(ConcurrencyTest, FifoAtTheStopTriggerMakesProgress) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        alarm(20);
        std::_Exit(FifoPutsPastTheStopTrigger());
      },
      ::testing::ExitedWithCode(0), "");
}

/// Records the inputs of every successful compaction and counts the ones
/// an earlier compaction already took. A merge consumes its inputs, so no
/// later compaction may take them. A move takes its inputs out of their
/// level only: a later compaction may take them from the level they moved
/// to, but not from the one they left.
class CompactionInputRecorder : public EventListener {
 public:
  void OnCompactionEnd(const CompactionJobInfo& info) override {
    if (!info.status.ok()) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    for (const TableFileInfo& f : info.inputs) {
      const std::pair<uint64_t, int> at(f.file_number, f.level);
      if (consumed_.count(f.file_number) != 0 || moved_.count(at) != 0) {
        reused_++;
      }
      if (info.moved) {
        moved_.insert(at);
      } else {
        consumed_.insert(f.file_number);
      }
    }
    compactions_++;
  }
  int reused() {
    std::lock_guard<std::mutex> lock(mu_);
    return reused_;
  }
  int compactions() {
    std::lock_guard<std::mutex> lock(mu_);
    return compactions_;
  }

 private:
  std::mutex mu_;
  std::set<uint64_t> consumed_;
  std::set<std::pair<uint64_t, int>> moved_;  ///< (file number, level left)
  int reused_ = 0;
  int compactions_ = 0;
};

// Inline mode: CompactAll merges with the DB mutex released while a writer
// keeps filling, flushing and compacting on its own thread. While
// CompactAll holds the compaction token the writer must leave compaction
// picks alone, or both install the same input files. No file may be the
// input of two successful compactions from the same level.
TEST(ConcurrencyTest, InlineCompactAllExcludesWriteCompactions) {
  std::unique_ptr<Env> env(NewMemEnv());
  auto recorder = std::make_shared<CompactionInputRecorder>();
  Options options;
  options.env = env.get();
  options.write_buffer_size = 8 << 10;
  options.max_file_size = 8 << 10;
  options.level0_compaction_trigger = 2;
  options.size_ratio = 4;
  options.listeners.push_back(recorder);
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/inline_manual", &db).ok());

  std::atomic<bool> done{false};
  std::atomic<int> compact_failures{0};
  std::thread compactor([&] {
    while (!done.load()) {
      if (!db->CompactAll().ok()) {
        compact_failures.fetch_add(1);
      }
    }
  });
  Random rng(301);
  const std::string value(48, 'c');
  Status write_status;
  for (int i = 0; i < 20000 && write_status.ok(); i++) {
    const std::string key = TestKey(0, static_cast<int>(rng.Uniform(2000)));
    write_status = rng.OneIn(4) ? db->Delete({}, key)
                                : db->Put({}, key, value);
  }
  done.store(true);
  compactor.join();
  EXPECT_TRUE(write_status.ok()) << write_status.ToString();
  EXPECT_EQ(compact_failures.load(), 0);
  EXPECT_GT(recorder->compactions(), 0);
  EXPECT_EQ(recorder->reused(), 0)
      << "files merged by two compactions out of "
      << recorder->compactions();
}

}  // namespace
}  // namespace lsmlab
