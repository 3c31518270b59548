// Shape-level tests: each merge policy must produce its characteristic
// tree shape (tutorial I-2, II-iv), and partial-compaction pickers must
// behave per their definitions.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cache/block_cache.h"
#include "core/db.h"
#include "storage/env.h"
#include "util/comparator.h"
#include "workload/keygen.h"
#include "workload/workload.h"

namespace lsmlab {
namespace {

class CompactionShapeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_.reset(NewMemEnv());
    options_.env = env_.get();
    options_.write_buffer_size = 8 << 10;
    options_.max_file_size = 8 << 10;
    options_.size_ratio = 3;
    options_.level0_compaction_trigger = 3;
  }

  void LoadUniform(int n) {
    ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
    auto gen = NewUniformGenerator(1 << 24, 42);
    for (int i = 0; i < n; i++) {
      const std::string key = EncodeKey(gen->Next());
      ASSERT_TRUE(db_->Put({}, key, ValueForKey(key, 32)).ok());
    }
  }

  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(CompactionShapeTest, LevelingKeepsOneRunPerLevel) {
  options_.merge_policy = MergePolicy::kLeveling;
  LoadUniform(20000);
  DBStats stats = db_->GetStats();
  for (size_t level = 1; level < stats.runs_per_level.size(); level++) {
    EXPECT_LE(stats.runs_per_level[level], 1)
        << "level " << level << "\n"
        << db_->DebugShape();
  }
  EXPECT_LT(stats.runs_per_level[0], options_.level0_compaction_trigger + 1);
}

TEST_F(CompactionShapeTest, TieringAllowsTRunsPerLevel) {
  options_.merge_policy = MergePolicy::kTiering;
  LoadUniform(20000);
  DBStats stats = db_->GetStats();
  bool some_level_has_multiple_runs = false;
  for (size_t level = 1; level < stats.runs_per_level.size(); level++) {
    EXPECT_LE(stats.runs_per_level[level], options_.size_ratio)
        << db_->DebugShape();
    if (stats.runs_per_level[level] > 1) {
      some_level_has_multiple_runs = true;
    }
  }
  EXPECT_TRUE(some_level_has_multiple_runs) << db_->DebugShape();
}

TEST_F(CompactionShapeTest, LazyLevelingKeepsLargestLevelAsOneRun) {
  options_.merge_policy = MergePolicy::kLazyLeveling;
  LoadUniform(30000);
  DBStats stats = db_->GetStats();
  int largest = -1;
  for (size_t level = 0; level < stats.runs_per_level.size(); level++) {
    if (stats.runs_per_level[level] > 0) {
      largest = static_cast<int>(level);
    }
  }
  ASSERT_GE(largest, 1) << db_->DebugShape();
  EXPECT_EQ(stats.runs_per_level[largest], 1) << db_->DebugShape();
}

TEST_F(CompactionShapeTest, TieringWritesLessThanLeveling) {
  // The core read/write tradeoff (E1): at equal data, tiering's write
  // amplification is lower.
  options_.merge_policy = MergePolicy::kLeveling;
  LoadUniform(30000);
  const double leveled_wa = db_->GetStats().WriteAmplification();
  db_.reset();
  ASSERT_TRUE(DestroyDB(options_, "/db").ok());

  options_.merge_policy = MergePolicy::kTiering;
  LoadUniform(30000);
  const double tiered_wa = db_->GetStats().WriteAmplification();

  EXPECT_LT(tiered_wa, leveled_wa);
}

TEST_F(CompactionShapeTest, TieringReadsMoreRunsThanLeveling) {
  options_.merge_policy = MergePolicy::kLeveling;
  LoadUniform(30000);
  const int leveled_runs = db_->GetStats().total_runs;
  db_.reset();
  ASSERT_TRUE(DestroyDB(options_, "/db").ok());

  options_.merge_policy = MergePolicy::kTiering;
  LoadUniform(30000);
  const int tiered_runs = db_->GetStats().total_runs;

  EXPECT_GT(tiered_runs, leveled_runs);
}

TEST_F(CompactionShapeTest, CompactionsGarbageCollectOverwrites) {
  options_.merge_policy = MergePolicy::kLeveling;
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  // Write the same small key set many times over.
  for (int round = 0; round < 50; round++) {
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(
          db_->Put({}, EncodeKey(i), "round" + std::to_string(round)).ok());
    }
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  DBStats stats = db_->GetStats();
  // 500 live keys of ~30 bytes each; without GC this would be 25000 entries.
  EXPECT_LT(stats.total_bytes, 500u * 200);
  std::string value;
  ASSERT_TRUE(db_->Get({}, EncodeKey(3), &value).ok());
  EXPECT_EQ(value, "round49");
}

TEST_F(CompactionShapeTest, TombstonesPurgedAtBottomLevel) {
  options_.merge_policy = MergePolicy::kLeveling;
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put({}, EncodeKey(i), std::string(64, 'v')).ok());
  }
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Delete({}, EncodeKey(i)).ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  DBStats stats = db_->GetStats();
  // Everything deleted and fully merged: almost no bytes should remain.
  EXPECT_LT(stats.total_bytes, 16u << 10) << db_->DebugShape();
}

TEST_F(CompactionShapeTest, FileCountRespectsMaxFileSize) {
  options_.merge_policy = MergePolicy::kLeveling;
  options_.max_file_size = 4 << 10;
  LoadUniform(10000);
  DBStats stats = db_->GetStats();
  // Files split at ~4 KiB; with ~40-byte entries we expect many files.
  EXPECT_GT(stats.total_files, 10);
}

class FilePickerTest : public CompactionShapeTest,
                       public ::testing::WithParamInterface<
                           CompactionFilePicker> {
 protected:
  std::unique_ptr<BlockCache> cache_;
};

TEST_P(FilePickerTest, PartialCompactionKeepsDBCorrect) {
  options_.merge_policy = MergePolicy::kLeveling;
  options_.file_picker = GetParam();
  if (GetParam() == CompactionFilePicker::kCold) {
    cache_ = std::make_unique<BlockCache>(256 << 10);
    options_.block_cache = cache_.get();
  }
  LoadUniform(20000);
  // Correctness: spot-check lookups.
  auto gen = NewUniformGenerator(1 << 24, 42);
  for (int i = 0; i < 20000; i++) {
    const std::string key = EncodeKey(gen->Next());
    if (i % 97 == 0) {
      std::string value;
      ASSERT_TRUE(db_->Get({}, key, &value).ok()) << i;
      EXPECT_EQ(value, ValueForKey(key, 32));
    }
  }
  // Partial pickers must keep each level a single sorted run.
  DBStats stats = db_->GetStats();
  for (size_t level = 1; level < stats.runs_per_level.size(); level++) {
    EXPECT_LE(stats.runs_per_level[level], 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pickers, FilePickerTest,
    ::testing::Values(CompactionFilePicker::kRoundRobin,
                      CompactionFilePicker::kMinOverlap,
                      CompactionFilePicker::kCold,
                      CompactionFilePicker::kOldest),
    [](const ::testing::TestParamInfo<CompactionFilePicker>& info) {
      switch (info.param) {
        case CompactionFilePicker::kRoundRobin:
          return "RoundRobin";
        case CompactionFilePicker::kMinOverlap:
          return "MinOverlap";
        case CompactionFilePicker::kCold:
          return "Cold";
        case CompactionFilePicker::kOldest:
          return "Oldest";
        default:
          return "Whole";
      }
    });

TEST_F(CompactionShapeTest, PartialCompactionSmoothsWork) {
  // Partial compaction moves less data per compaction than whole-level
  // (the tail-latency motivation of tutorial I-2).
  options_.merge_policy = MergePolicy::kLeveling;
  options_.file_picker = CompactionFilePicker::kWholeLevel;
  LoadUniform(20000);
  const DBStats whole = db_->GetStats();
  db_.reset();
  ASSERT_TRUE(DestroyDB(options_, "/db").ok());

  options_.file_picker = CompactionFilePicker::kMinOverlap;
  LoadUniform(20000);
  const DBStats partial = db_->GetStats();

  ASSERT_GT(whole.compactions, 0u);
  ASSERT_GT(partial.compactions, 0u);
  const double whole_avg =
      static_cast<double>(whole.bytes_compacted) / whole.compactions;
  const double partial_avg =
      static_cast<double>(partial.bytes_compacted) / partial.compactions;
  EXPECT_LT(partial_avg, whole_avg);
}

/// Bytewise order that counts its comparisons.
class CountingComparator : public Comparator {
 public:
  int Compare(const Slice& a, const Slice& b) const override {
    count.fetch_add(1, std::memory_order_relaxed);
    return BytewiseComparator()->Compare(a, b);
  }
  const char* Name() const override { return "test.CountingComparator"; }
  void FindShortestSeparator(std::string* start,
                             const Slice& limit) const override {
    BytewiseComparator()->FindShortestSeparator(start, limit);
  }
  void FindShortSuccessor(std::string* key) const override {
    BytewiseComparator()->FindShortSuccessor(key);
  }

  mutable std::atomic<uint64_t> count{0};
};

// A compaction merges one iterator per sorted run, however many files the
// run is cut into, so its comparisons per entry written follow the number
// of runs, not files. The same keys loaded with 1/8 the file size give ~8x
// the files in the same runs; a merge with one child per file would make
// ~8x the comparisons per entry.
TEST_F(CompactionShapeTest, MergeCostFollowsRunsNotFiles) {
  options_.merge_policy = MergePolicy::kLeveling;
  options_.write_buffer_size = 64 << 10;
  options_.level0_compaction_trigger = 4;
  CountingComparator cmp;
  options_.comparator = &cmp;
  const int kKeys = 40000;

  struct Cost {
    int files = 0;
    double compares_per_entry = 0;
  };
  auto compact_all = [&](size_t max_file_size) -> Cost {
    options_.max_file_size = max_file_size;
    LoadUniform(kKeys);
    EXPECT_TRUE(db_->Flush().ok());
    const DBStats before = db_->GetStats();
    cmp.count = 0;
    EXPECT_TRUE(db_->CompactAll().ok());
    const uint64_t compares = cmp.count;
    const DBStats after = db_->GetStats();
    EXPECT_EQ(after.total_runs, 1) << db_->DebugShape();
    db_.reset();
    EXPECT_TRUE(DestroyDB(options_, "/db").ok());
    // Entries have a fixed size and the final run holds each loaded key
    // once (bar a few duplicate draws, alike in both loads), so its bytes
    // per key convert the bytes compacted into entries written.
    const double bytes_per_entry = static_cast<double>(after.total_bytes) /
                                   static_cast<double>(kKeys);
    const double entries_written =
        static_cast<double>(after.bytes_compacted - before.bytes_compacted) /
        bytes_per_entry;
    return {before.total_files,
            static_cast<double>(compares) / entries_written};
  };

  const Cost large = compact_all(64 << 10);
  const Cost small = compact_all(8 << 10);
  ASSERT_GE(small.files, 6 * large.files);
  EXPECT_LE(small.compares_per_entry, 1.5 * large.compares_per_entry)
      << "files " << large.files << " -> " << small.files
      << ", compares per entry " << large.compares_per_entry << " -> "
      << small.compares_per_entry;
}

// Background merges read each input run through one iterator that opens
// the run's tables only as the merge reaches them, so table opens happen
// mid-merge on the worker while readers open and probe tables through the
// same TableCache. Small files make every run many tables; the TSan CI leg
// runs this test for that race.
TEST_F(CompactionShapeTest, BackgroundRunMergesRaceReaders) {
  options_.merge_policy = MergePolicy::kLeveling;
  options_.background_compaction = true;
  options_.write_buffer_size = 16 << 10;
  options_.max_file_size = 4 << 10;
  options_.level0_compaction_trigger = 2;
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());

  constexpr int kKeys = 4000;
  std::atomic<bool> done{false};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&, r] {
      std::string value;
      for (int n = r; !done.load(std::memory_order_relaxed); n += 7) {
        const std::string key = EncodeKey(static_cast<uint64_t>(n % kKeys));
        const Status s = db_->Get({}, key, &value);
        if (!s.ok() && !s.IsNotFound()) {
          bad_reads.fetch_add(1);
        }
        std::unique_ptr<Iterator> it(db_->NewIterator({}));
        int steps = 0;
        for (it->Seek(key); it->Valid() && steps < 20; it->Next()) {
          steps++;
        }
        if (!it->status().ok()) {
          bad_reads.fetch_add(1);
        }
      }
    });
  }
  Status s;
  for (int round = 0; round < 2 && s.ok(); round++) {
    for (int i = 0; i < kKeys && s.ok(); i++) {
      const std::string key = EncodeKey(static_cast<uint64_t>(i));
      s = db_->Put({}, key, ValueForKey(key, 32 + round));
    }
  }
  if (s.ok()) {
    s = db_->CompactAll();
  }
  done.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_GT(db_->GetStats().compactions, 0u);
  std::string value;
  for (int i = 0; i < kKeys; i++) {
    const std::string key = EncodeKey(static_cast<uint64_t>(i));
    ASSERT_TRUE(db_->Get({}, key, &value).ok()) << i;
    EXPECT_EQ(value, ValueForKey(key, 33)) << i;
  }
}

}  // namespace
}  // namespace lsmlab
