#include "vlog/value_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "core/write_batch.h"
#include "storage/env.h"
#include "workload/keygen.h"
#include "workload/workload.h"

namespace lsmlab {
namespace {

// ------------------------------------------------------ ValueLog (unit) --

class ValueLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_.reset(NewMemEnv());
    vlog_ = std::make_unique<ValueLog>(env_.get(), "/vlog", 4 << 10);
    ASSERT_TRUE(vlog_->Open().ok());
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<ValueLog> vlog_;
};

TEST_F(ValueLogTest, AddGetRoundtrip) {
  std::string p1, p2;
  ASSERT_TRUE(vlog_->Add("hello", &p1).ok());
  ASSERT_TRUE(vlog_->Add(std::string(1000, 'x'), &p2).ok());
  std::string v;
  ASSERT_TRUE(vlog_->Get(Slice(p1), &v).ok());
  EXPECT_EQ(v, "hello");
  ASSERT_TRUE(vlog_->Get(Slice(p2), &v).ok());
  EXPECT_EQ(v, std::string(1000, 'x'));
}

TEST_F(ValueLogTest, RotatesAtSizeLimit) {
  std::string p;
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(vlog_->Add(std::string(1 << 10, 'a' + i % 26), &p).ok());
  }
  EXPECT_GT(vlog_->NumFiles(), 2u);
  // Old records remain readable after rotation.
  std::string first_pointer;
  {
    ValueLog fresh(env_.get(), "/vlog2", 1 << 10);
    ASSERT_TRUE(fresh.Open().ok());
    ASSERT_TRUE(fresh.Add("early", &first_pointer).ok());
    std::string filler;
    for (int i = 0; i < 10; i++) {
      ASSERT_TRUE(fresh.Add(std::string(2000, 'z'), &filler).ok());
    }
    std::string v;
    ASSERT_TRUE(fresh.Get(Slice(first_pointer), &v).ok());
    EXPECT_EQ(v, "early");
  }
}

TEST_F(ValueLogTest, SurvivesReopen) {
  std::string p;
  ASSERT_TRUE(vlog_->Add("durable", &p).ok());
  vlog_.reset();
  vlog_ = std::make_unique<ValueLog>(env_.get(), "/vlog", 4 << 10);
  ASSERT_TRUE(vlog_->Open().ok());
  std::string v;
  ASSERT_TRUE(vlog_->Get(Slice(p), &v).ok());
  EXPECT_EQ(v, "durable");
  // New adds go to a fresh file, never clobbering old data.
  std::string p2;
  ASSERT_TRUE(vlog_->Add("fresh", &p2).ok());
  ASSERT_TRUE(vlog_->Get(Slice(p), &v).ok());
  EXPECT_EQ(v, "durable");
}

TEST_F(ValueLogTest, DetectsCorruption) {
  std::string p;
  ASSERT_TRUE(vlog_->Add("precious", &p).ok());
  // Flip a byte in the current log file.
  std::string name;
  {
    std::vector<std::string> children;
    ASSERT_TRUE(env_->GetChildren("/vlog", &children).ok());
    ASSERT_FALSE(children.empty());
    name = "/vlog/" + children[0];
  }
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_.get(), name, &data).ok());
  data[data.size() - 2] ^= 0x20;
  ASSERT_TRUE(WriteStringToFile(env_.get(), data, name).ok());

  ValueLog reopened(env_.get(), "/vlog", 4 << 10);
  ASSERT_TRUE(reopened.Open().ok());
  std::string v;
  EXPECT_TRUE(reopened.Get(Slice(p), &v).IsCorruption());
}

TEST_F(ValueLogTest, MalformedPointerRejected) {
  std::string v;
  EXPECT_FALSE(vlog_->Get("", &v).ok());
  EXPECT_FALSE(vlog_->Get("\x01", &v).ok());
}

TEST_F(ValueLogTest, DeleteFilesSkipsCurrent) {
  std::string p;
  ASSERT_TRUE(vlog_->Add("keep", &p).ok());
  std::vector<uint64_t> all;
  all.push_back(vlog_->current_file_number());
  ASSERT_TRUE(vlog_->DeleteFiles(all).ok());
  std::string v;
  EXPECT_TRUE(vlog_->Get(Slice(p), &v).ok());  // still readable
}

// -------------------------------------------------- DB with separation --

class KvSeparationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_.reset(NewMemEnv());
    options_.env = env_.get();
    options_.write_buffer_size = 16 << 10;
    options_.max_file_size = 16 << 10;
    options_.value_separation_threshold = 128;
    options_.max_vlog_file_bytes = 32 << 10;
    Open();
  }

  void Open() { ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok()); }
  void Reopen() {
    db_.reset();
    Open();
  }

  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(KvSeparationTest, SmallAndLargeValuesRoundtrip) {
  const std::string small = "tiny";
  const std::string large(4096, 'L');
  ASSERT_TRUE(db_->Put({}, "small", small).ok());
  ASSERT_TRUE(db_->Put({}, "large", large).ok());
  std::string v;
  ASSERT_TRUE(db_->Get({}, "small", &v).ok());
  EXPECT_EQ(v, small);
  ASSERT_TRUE(db_->Get({}, "large", &v).ok());
  EXPECT_EQ(v, large);
  DBStats stats = db_->GetStats();
  EXPECT_GE(stats.separated_reads, 1u);
  EXPECT_GT(stats.value_log_bytes, 4000u);
}

// Separation re-encodes a writer's batch into its own copy: the caller's
// batch keeps its raw values (only the 8-byte sequence header may change),
// so writing it a second time stores the same values again.
TEST_F(KvSeparationTest, ReusedBatchKeepsValues) {
  const std::string large(128, 'L');
  WriteBatch batch;
  batch.Put("small", "v");
  batch.Put("large", large);
  const std::string before = batch.Contents().ToString();
  for (int round = 0; round < 2; round++) {
    ASSERT_TRUE(db_->Write({}, &batch).ok());
    EXPECT_EQ(batch.Contents().ToString().substr(8), before.substr(8))
        << "round " << round;
    std::string v;
    ASSERT_TRUE(db_->Get({}, "small", &v).ok());
    EXPECT_EQ(v, "v") << "round " << round;
    ASSERT_TRUE(db_->Get({}, "large", &v).ok());
    EXPECT_EQ(v, large) << "round " << round;
  }
}

TEST_F(KvSeparationTest, LargeValuesSurviveFlushCompactReopen) {
  const int n = 300;
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(
        db_->Put({}, EncodeKey(i), ValueForKey(EncodeKey(i), 1024)).ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  Reopen();
  std::string v;
  for (int i = 0; i < n; i += 7) {
    ASSERT_TRUE(db_->Get({}, EncodeKey(i), &v).ok()) << i;
    EXPECT_EQ(v, ValueForKey(EncodeKey(i), 1024));
  }
}

TEST_F(KvSeparationTest, IteratorAndScanResolvePointers) {
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(
        db_->Put({}, EncodeKey(i), ValueForKey(EncodeKey(i), 512)).ok());
  }
  std::unique_ptr<Iterator> it(db_->NewIterator({}));
  int count = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next(), count++) {
    EXPECT_EQ(it->value().ToString(),
              ValueForKey(it->key().ToString(), 512));
  }
  EXPECT_EQ(count, 50);

  std::vector<std::pair<std::string, std::string>> results;
  ASSERT_TRUE(db_->Scan({}, EncodeKey(10), EncodeKey(19), 100, &results).ok());
  ASSERT_EQ(results.size(), 10u);
  for (const auto& [k, v] : results) {
    EXPECT_EQ(v, ValueForKey(k, 512));
  }
}

// Separated values are resolved on value(), not on every move: a scan
// pays one value-log read per returned row, never one for the row just
// past `end` that ends it, and a key-only walk pays none.
TEST_F(KvSeparationTest, ScanResolvesOnlyReturnedValues) {
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(
        db_->Put({}, EncodeKey(i), ValueForKey(EncodeKey(i), 512)).ok());
  }
  auto separated_reads = [&] { return db_->GetStats().separated_reads; };
  std::vector<std::pair<std::string, std::string>> results;
  uint64_t before = separated_reads();
  ASSERT_TRUE(db_->Scan({}, EncodeKey(10), EncodeKey(19), 100, &results).ok());
  ASSERT_EQ(results.size(), 10u);
  EXPECT_EQ(separated_reads() - before, results.size());
  for (const auto& [k, v] : results) {
    EXPECT_EQ(v, ValueForKey(k, 512));
  }

  before = separated_reads();
  ASSERT_TRUE(db_->Scan({}, EncodeKey(0), EncodeKey(29), 5, &results).ok());
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(separated_reads() - before, results.size());

  before = separated_reads();
  std::unique_ptr<Iterator> it(db_->NewIterator({}));
  int count = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    count++;
  }
  EXPECT_TRUE(it->status().ok());
  EXPECT_EQ(count, 30);
  EXPECT_EQ(separated_reads(), before);
}

TEST_F(KvSeparationTest, CompactionMovesPointersNotValues) {
  // With separation, compaction write volume must be tiny relative to the
  // payload (the WiscKey headline).
  const int n = 500;
  const size_t value_size = 2048;
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(
        db_->Put({}, EncodeKey(i), ValueForKey(EncodeKey(i), value_size))
            .ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  DBStats stats = db_->GetStats();
  // Tree bytes hold only keys+pointers: far below the ~1 MB of payload.
  EXPECT_LT(stats.total_bytes, n * 256);
  EXPECT_GT(stats.value_log_bytes, n * value_size);
}

TEST_F(KvSeparationTest, GarbageCollectionReclaimsDeadValues) {
  const int n = 200;
  for (int round = 0; round < 4; round++) {
    for (int i = 0; i < n; i++) {
      ASSERT_TRUE(db_->Put({}, EncodeKey(i),
                           ValueForKey(EncodeKey(i * 1000 + round), 1024))
                      .ok());
    }
  }
  const uint64_t before = db_->GetStats().value_log_bytes;
  ASSERT_TRUE(db_->GarbageCollectValues().ok());
  const uint64_t after = db_->GetStats().value_log_bytes;
  EXPECT_LT(after, before / 2);  // 3 of 4 rounds were garbage

  // All latest values still readable.
  std::string v;
  for (int i = 0; i < n; i += 11) {
    ASSERT_TRUE(db_->Get({}, EncodeKey(i), &v).ok());
    EXPECT_EQ(v, ValueForKey(EncodeKey(i * 1000 + 3), 1024));
  }
}

TEST_F(KvSeparationTest, GcRefusedWithLiveSnapshot) {
  ASSERT_TRUE(db_->Put({}, "k", std::string(1024, 'v')).ok());
  const Snapshot* snap = db_->GetSnapshot();
  EXPECT_TRUE(db_->GarbageCollectValues().IsInvalidArgument());
  db_->ReleaseSnapshot(snap);
}

TEST_F(KvSeparationTest, GcNotSupportedWithoutSeparation) {
  Options plain;
  plain.env = env_.get();
  std::unique_ptr<DB> db2;
  ASSERT_TRUE(DB::Open(plain, "/plain", &db2).ok());
  EXPECT_TRUE(db2->GarbageCollectValues().IsNotSupported());
}

TEST_F(KvSeparationTest, DeletesWorkAcrossSeparation) {
  ASSERT_TRUE(db_->Put({}, "k", std::string(1024, 'v')).ok());
  ASSERT_TRUE(db_->Delete({}, "k").ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string v;
  EXPECT_TRUE(db_->Get({}, "k", &v).IsNotFound());
}

TEST_F(KvSeparationTest, WalRecoveryOfPointers) {
  // Values written but not flushed: WAL carries pointers; the vlog carries
  // payloads; recovery reunites them.
  const std::string large(2000, 'R');
  ASSERT_TRUE(db_->Put({}, "unflushed", large).ok());
  Reopen();
  std::string v;
  ASSERT_TRUE(db_->Get({}, "unflushed", &v).ok());
  EXPECT_EQ(v, large);
}

// Background mode: writers append separated values (and the leaders of
// their sync puts fsync the value log) while the worker's flushes fsync
// it too, before each install. They all share the value log's unsynced
// state; the ctest TSan run of this suite checks that sharing.
TEST(KvSeparationBackgroundTest, WritersAppendWhileFlushesSyncTheValueLog) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  options.background_compaction = true;
  options.write_buffer_size = 8 << 10;
  options.max_file_size = 8 << 10;
  options.level0_compaction_trigger = 2;
  options.value_separation_threshold = 128;
  options.max_vlog_file_bytes = 16 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/bgvlog", &db).ok());

  constexpr int kWriters = 2;
  constexpr int kPutsPerWriter = 300;
  auto key_of = [](int w, int i) {
    return EncodeKey(static_cast<uint64_t>(w * kPutsPerWriter + i));
  };
  std::atomic<bool> failed{false};
  std::atomic<int> writers_done{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      WriteOptions sync;
      sync.sync = true;
      for (int i = 0; i < kPutsPerWriter; i++) {
        const std::string key = key_of(w, i);
        if (!db->Put(i % 10 == 0 ? sync : WriteOptions(), key,
                     ValueForKey(key, 512))
                 .ok()) {
          failed = true;
        }
      }
      writers_done++;
    });
  }
  threads.emplace_back([&] {
    while (writers_done.load() < kWriters) {
      if (!db->Flush().ok()) {
        failed = true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (std::thread& t : threads) {
    t.join();
  }
  ASSERT_FALSE(failed.load());
  const DBStats stats = db->GetStats();
  EXPECT_GT(stats.flushes, 0u);
  EXPECT_GT(stats.vlog_syncs, 0u);

  std::string value;
  for (int w = 0; w < kWriters; w++) {
    for (int i = 0; i < kPutsPerWriter; i++) {
      const std::string key = key_of(w, i);
      ASSERT_TRUE(db->Get({}, key, &value).ok()) << key;
      EXPECT_EQ(value, ValueForKey(key, 512)) << key;
    }
  }
}

}  // namespace
}  // namespace lsmlab
