// Shape-level tests: each merge policy must produce its characteristic
// tree shape (tutorial I-2, II-iv), and partial-compaction pickers must
// behave per their definitions.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/block_cache.h"
#include "core/db.h"
#include "core/db_impl.h"
#include "core/filename.h"
#include "obs/event_listener.h"
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

/// Env that records which threads create table files.
class TableThreadsEnv : public Env {
 public:
  explicit TableThreadsEnv(Env* base) : base_(base) {}

  Status NewRandomAccessFile(
      const std::string& f, std::unique_ptr<RandomAccessFile>* r) override {
    return base_->NewRandomAccessFile(f, r);
  }
  Status NewWritableFile(const std::string& f,
                         std::unique_ptr<WritableFile>* r) override {
    uint64_t number;
    FileType type;
    const size_t slash = f.rfind('/');
    if (ParseFileName(f.substr(slash + 1), &number, &type) &&
        type == FileType::kTableFile) {
      std::lock_guard<std::mutex> lock(mu_);
      threads_.insert(std::this_thread::get_id());
    }
    return base_->NewWritableFile(f, r);
  }
  Status NewSequentialFile(const std::string& f,
                           std::unique_ptr<SequentialFile>* r) override {
    return base_->NewSequentialFile(f, r);
  }
  bool FileExists(const std::string& f) override {
    return base_->FileExists(f);
  }
  Status GetChildren(const std::string& d,
                     std::vector<std::string>* r) override {
    return base_->GetChildren(d, r);
  }
  Status RemoveFile(const std::string& f) override {
    return base_->RemoveFile(f);
  }
  Status CreateDir(const std::string& d) override {
    return base_->CreateDir(d);
  }
  Status GetFileSize(const std::string& f, uint64_t* size) override {
    return base_->GetFileSize(f, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }

  /// Distinct threads that created a table file since the last call.
  size_t TakeTableThreads() {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t n = threads_.size();
    threads_.clear();
    return n;
  }

 private:
  Env* base_;
  std::mutex mu_;
  std::set<std::thread::id> threads_;
};

/// Keeps the outputs of the last successful compaction, in key order.
class CompactionOutputRecorder : public EventListener {
 public:
  void OnCompactionEnd(const CompactionJobInfo& info) override {
    if (info.status.ok()) {
      outputs = info.outputs;
    }
  }

  std::vector<TableFileInfo> outputs;
};

// A merge of at least two subranges' worth of input is cut at user keys
// taken from its input files and built subrange by subrange on several
// threads. The tree it leaves does not depend on the thread count: one
// thread building every subrange in turn writes byte-identical tables
// with identical boundaries and file numbers.
TEST_F(CompactionShapeTest, SubcompactionsMatchSerialMerge) {
  options_.merge_policy = MergePolicy::kLeveling;
  options_.write_buffer_size = 16 << 10;
  options_.max_file_size = 4 << 10;
  {
    // One input tree, copied for each thread count. Overwrites and
    // deletes make shadowed versions and tombstones meet at the subrange
    // edges.
    ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
    auto gen = NewUniformGenerator(1 << 14, 7);
    for (int i = 0; i < 12000; i++) {
      const std::string key = EncodeKey(gen->Next());
      ASSERT_TRUE((i % 5 == 4 ? db_->Delete({}, key)
                              : db_->Put({}, key, ValueForKey(key, 24)))
                      .ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
    ASSERT_GE(db_->GetStats().total_runs, 3) << db_->DebugShape();
    db_.reset();
  }
  std::vector<std::string> files;
  ASSERT_TRUE(env_->GetChildren("/db", &files).ok());

  struct Tree {
    std::vector<std::pair<std::string, std::string>> bounds;
    std::vector<uint64_t> numbers;
    std::vector<std::string> tables;  // file images, in key order
    size_t table_threads = 0;
  };
  auto compact = [&](int helpers) -> Tree {
    const std::string dbname = "/db" + std::to_string(helpers);
    for (const std::string& f : files) {
      std::string data;
      EXPECT_TRUE(ReadFileToString(env_.get(), "/db/" + f, &data).ok());
      EXPECT_TRUE(WriteStringToFile(env_.get(), data, dbname + "/" + f).ok());
    }
    TableThreadsEnv env(env_.get());
    auto recorder = std::make_shared<CompactionOutputRecorder>();
    Options options = options_;
    options.env = &env;
    options.listeners.push_back(recorder);
    std::unique_ptr<DB> db;
    EXPECT_TRUE(DB::Open(options, dbname, &db).ok());
    static_cast<DBImpl*>(db.get())->TEST_SetSubcompactionHelpers(helpers);
    EXPECT_TRUE(db->CompactAll().ok());
    Tree tree;
    tree.table_threads = env.TakeTableThreads();
    EXPECT_EQ(db->GetStats().total_runs, 1) << db->DebugShape();
    for (const TableFileInfo& t : recorder->outputs) {
      tree.bounds.emplace_back(t.smallest_user_key, t.largest_user_key);
      tree.numbers.push_back(t.file_number);
      std::string image;
      EXPECT_TRUE(ReadFileToString(env_.get(),
                                   TableFileName(dbname, t.file_number),
                                   &image)
                      .ok());
      tree.tables.push_back(std::move(image));
    }
    return tree;
  };

  const Tree serial = compact(0);
  const Tree parallel = compact(3);
  EXPECT_EQ(serial.table_threads, 1u);
  EXPECT_GT(parallel.table_threads, 1u);
  ASSERT_GE(serial.bounds.size(), 8u);
  EXPECT_EQ(serial.bounds, parallel.bounds);
  EXPECT_EQ(serial.numbers, parallel.numbers);
  EXPECT_TRUE(serial.tables == parallel.tables);
  for (size_t i = 1; i < parallel.bounds.size(); i++) {
    EXPECT_LT(parallel.bounds[i - 1].second, parallel.bounds[i].first) << i;
    EXPECT_LT(parallel.numbers[i - 1], parallel.numbers[i]) << i;
  }
}

// Under a partial file picker no merge is split: each subrange would end
// its own short last file, which the picker later moves alone for few
// bytes. The same load under the whole-level picker is split.
TEST_F(CompactionShapeTest, PartialPickerMergesAreNotSplit) {
  for (const CompactionFilePicker picker :
       {CompactionFilePicker::kWholeLevel, CompactionFilePicker::kMinOverlap,
        CompactionFilePicker::kRoundRobin}) {
    TableThreadsEnv env(env_.get());
    Options options = options_;
    options.env = &env;
    options.merge_policy = MergePolicy::kLeveling;
    options.file_picker = picker;
    options.write_buffer_size = 16 << 10;
    options.max_file_size = 4 << 10;
    const std::string dbname = "/db" + std::to_string(static_cast<int>(picker));
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
    static_cast<DBImpl*>(db.get())->TEST_SetSubcompactionHelpers(3);
    auto gen = NewUniformGenerator(1 << 14, 7);
    for (int i = 0; i < 12000; i++) {
      const std::string key = EncodeKey(gen->Next());
      ASSERT_TRUE(db->Put({}, key, ValueForKey(key, 24)).ok());
    }
    ASSERT_TRUE(db->CompactAll().ok());
    ASSERT_GE(db->GetStats().total_files, 8) << db->DebugShape();
    if (picker == CompactionFilePicker::kWholeLevel) {
      EXPECT_GT(env.TakeTableThreads(), 1u);
    } else {
      EXPECT_EQ(env.TakeTableThreads(), 1u) << static_cast<int>(picker);
    }
  }
}

// Background merges read each input run through one iterator per
// subrange that opens the run's tables only as the merge reaches them, so
// table opens happen mid-merge on the worker and its subcompaction
// helpers while readers open and probe tables through the same
// TableCache. Small files make every run many tables and every merge
// several subranges; the TSan CI leg runs this test for those races.
TEST_F(CompactionShapeTest, BackgroundSubcompactionsRaceReaders) {
  TableThreadsEnv env(env_.get());
  options_.env = &env;
  options_.merge_policy = MergePolicy::kLeveling;
  options_.background_compaction = true;
  options_.write_buffer_size = 16 << 10;
  options_.max_file_size = 4 << 10;
  options_.level0_compaction_trigger = 2;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options_, "/db", &db).ok());
  static_cast<DBImpl*>(db.get())->TEST_SetSubcompactionHelpers(3);

  constexpr int kKeys = 4000;
  std::atomic<bool> done{false};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&, r] {
      std::string value;
      for (int n = r; !done.load(std::memory_order_relaxed); n += 7) {
        const std::string key = EncodeKey(static_cast<uint64_t>(n % kKeys));
        const Status s = db->Get({}, key, &value);
        if (!s.ok() && !s.IsNotFound()) {
          bad_reads.fetch_add(1);
        }
        std::unique_ptr<Iterator> it(db->NewIterator({}));
        int steps = 0;
        for (it->Seek(key); it->Valid() && steps < 20; it->Next()) {
          steps++;
        }
        if (!it->status().ok()) {
          bad_reads.fetch_add(1);
        }
        std::vector<std::string> batch_keys;
        for (int k = 0; k < 8; k++) {
          batch_keys.push_back(
              EncodeKey(static_cast<uint64_t>((n + k * 509) % kKeys)));
        }
        std::vector<Slice> slices(batch_keys.begin(), batch_keys.end());
        std::vector<std::string> values;
        std::vector<Status> statuses;
        db->MultiGet({}, slices, &values, &statuses);
        for (const Status& ks : statuses) {
          if (!ks.ok() && !ks.IsNotFound()) {
            bad_reads.fetch_add(1);
          }
        }
      }
    });
  }
  Status s;
  for (int round = 0; round < 2 && s.ok(); round++) {
    for (int i = 0; i < kKeys && s.ok(); i++) {
      const std::string key = EncodeKey(static_cast<uint64_t>(i));
      s = db->Put({}, key, ValueForKey(key, 32 + round));
    }
  }
  if (s.ok()) {
    s = db->CompactAll();
  }
  done.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(bad_reads.load(), 0);
  EXPECT_GT(db->GetStats().compactions, 0u);
  // The worker, the writer (CompactAll) and at least one helper.
  EXPECT_GT(env.TakeTableThreads(), 2u);
  std::string value;
  for (int i = 0; i < kKeys; i++) {
    const std::string key = EncodeKey(static_cast<uint64_t>(i));
    ASSERT_TRUE(db->Get({}, key, &value).ok()) << i;
    EXPECT_EQ(value, ValueForKey(key, 33)) << i;
  }
}

}  // namespace
}  // namespace lsmlab
