// Shape-level tests: each merge policy must produce its characteristic
// tree shape (tutorial I-2, II-iv), and partial-compaction pickers must
// behave per their definitions.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/block_cache.h"
#include "core/compaction/compaction_job.h"
#include "core/compaction/compaction_policy.h"
#include "core/db.h"
#include "core/db_impl.h"
#include "core/dbformat.h"
#include "core/filename.h"
#include "core/table_cache.h"
#include "core/version.h"
#include "memtable/memtable.h"
#include "obs/event_listener.h"
#include "storage/env.h"
#include "util/comparator.h"
#include "util/hash.h"
#include "util/random.h"
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

/// Env that records which threads create table files, counts manifest
/// syncs (one per version install), and runs `on_table`, when set, before
/// it creates each table file: there a test can read the tree a merge has
/// installed so far, or fail the table's creation by returning an error.
class ObservingEnv : public Env {
 public:
  explicit ObservingEnv(Env* base) : base_(base) {}

  Status NewRandomAccessFile(
      const std::string& f, std::unique_ptr<RandomAccessFile>* r) override {
    return base_->NewRandomAccessFile(f, r);
  }
  Status NewWritableFile(const std::string& f,
                         std::unique_ptr<WritableFile>* r) override {
    uint64_t number;
    FileType type;
    const size_t slash = f.rfind('/');
    if (ParseFileName(f.substr(slash + 1), &number, &type)) {
      if (type == FileType::kTableFile) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          threads_.insert(std::this_thread::get_id());
        }
        if (on_table) {
          Status s = on_table();
          if (!s.ok()) {
            return s;
          }
        }
        std::unique_ptr<WritableFile> file;
        Status s = base_->NewWritableFile(f, &file);
        if (s.ok()) {
          *r = std::make_unique<CountingFile>(std::move(file), nullptr,
                                              &table_bytes_);
        }
        return s;
      } else if (type == FileType::kManifestFile) {
        std::unique_ptr<WritableFile> file;
        Status s = base_->NewWritableFile(f, &file);
        if (s.ok()) {
          *r = std::make_unique<CountingFile>(std::move(file),
                                              &manifest_syncs_, nullptr);
        }
        return s;
      }
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
  int manifest_syncs() const { return manifest_syncs_.load(); }
  /// Bytes appended to table files.
  uint64_t table_bytes() const { return table_bytes_.load(); }

  /// Set while no DB runs on this env.
  std::function<Status()> on_table;

 private:
  /// Counts syncs and appended bytes (either counter may be null).
  class CountingFile : public WritableFile {
   public:
    CountingFile(std::unique_ptr<WritableFile> base, std::atomic<int>* syncs,
                 std::atomic<uint64_t>* bytes)
        : base_(std::move(base)), syncs_(syncs), bytes_(bytes) {}
    Status Append(const Slice& data) override {
      if (bytes_ != nullptr) {
        bytes_->fetch_add(data.size());
      }
      return base_->Append(data);
    }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      if (syncs_ != nullptr) {
        syncs_->fetch_add(1);
      }
      return base_->Sync();
    }
    Status Close() override { return base_->Close(); }

   private:
    std::unique_ptr<WritableFile> base_;
    std::atomic<int>* syncs_;
    std::atomic<uint64_t>* bytes_;
  };

  Env* base_;
  std::mutex mu_;
  std::set<std::thread::id> threads_;
  std::atomic<int> manifest_syncs_{0};
  std::atomic<uint64_t> table_bytes_{0};
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
    ObservingEnv env(env_.get());
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
    ObservingEnv env(env_.get());
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
// TableCache. Each merge installs its finished subranges as it goes, so
// readers also cross the trees between installs: every Get, MultiGet slot and
// iterator row must hold a value written for its key. Small files make
// every run many tables and every merge several subranges; the TSan CI
// leg runs this test for those races.
TEST_F(CompactionShapeTest, BackgroundSubcompactionsRaceReaders) {
  ObservingEnv env(env_.get());
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
  // Round r writes ValueForKey(key, 32 + r) to every key in order, so
  // key i's put of round r is put number r * kKeys + i. The state of key
  // i once `puts` puts are acknowledged: 0 = absent, 1 + r = round r's
  // value.
  std::atomic<int> acked{0};
  auto state = [](uint64_t i, int puts) {
    const int index = static_cast<int>(i);
    return puts <= index ? 0 : puts <= kKeys + index ? 1 : 2;
  };
  // Whether a read that began once `before` puts were acknowledged and
  // ended before put `after` + 2 (one put may be in flight) may see
  // `value` (null: absent) for key i.
  auto fits = [&](uint64_t i, const std::string* value, int before,
                  int after) {
    const std::string key = EncodeKey(i);
    const int seen = value == nullptr                   ? 0
                     : *value == ValueForKey(key, 32) ? 1
                     : *value == ValueForKey(key, 33) ? 2
                                                      : -1;
    return i < static_cast<uint64_t>(kKeys) && seen >= state(i, before) &&
           seen <= state(i, after + 1);
  };
  std::atomic<bool> done{false};
  std::atomic<int> bad_reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&, r] {
      std::string value;
      for (int n = r; !done.load(std::memory_order_relaxed); n += 7) {
        const uint64_t i = static_cast<uint64_t>(n % kKeys);
        const std::string key = EncodeKey(i);
        int before = acked.load();
        const Status s = db->Get({}, key, &value);
        if (s.ok() ? !fits(i, &value, before, acked.load())
                   : !s.IsNotFound() || !fits(i, nullptr, before,
                                              acked.load())) {
          bad_reads.fetch_add(1);
        }
        before = acked.load();
        std::unique_ptr<Iterator> it(db->NewIterator({}));
        std::vector<std::pair<std::string, std::string>> rows;
        for (it->Seek(key); it->Valid() && rows.size() < 20; it->Next()) {
          rows.emplace_back(it->key().ToString(), it->value().ToString());
        }
        if (!it->status().ok()) {
          bad_reads.fetch_add(1);
        }
        const int after = acked.load();
        for (size_t k = 0; k < rows.size(); k++) {
          if (rows[k].first < key ||
              (k > 0 && rows[k].first <= rows[k - 1].first) ||
              !fits(DecodeKey(rows[k].first), &rows[k].second, before,
                    after)) {
            bad_reads.fetch_add(1);
          }
        }
        std::vector<std::string> batch_keys;
        for (int k = 0; k < 8; k++) {
          batch_keys.push_back(
              EncodeKey(static_cast<uint64_t>((n + k * 509) % kKeys)));
        }
        std::vector<Slice> slices(batch_keys.begin(), batch_keys.end());
        std::vector<std::string> values;
        std::vector<Status> statuses;
        before = acked.load();
        db->MultiGet({}, slices, &values, &statuses);
        const int batch_after = acked.load();
        for (size_t k = 0; k < statuses.size(); k++) {
          const uint64_t ki = DecodeKey(batch_keys[k]);
          if (statuses[k].ok()
                  ? !fits(ki, &values[k], before, batch_after)
                  : !statuses[k].IsNotFound() ||
                        !fits(ki, nullptr, before, batch_after)) {
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
      acked.fetch_add(1);
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

/// The DB's rows, from a full scan.
std::map<std::string, std::string> ScanAll(DB* db,
                                           const ReadOptions& options = {}) {
  std::map<std::string, std::string> rows;
  std::unique_ptr<Iterator> it(db->NewIterator(options));
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    rows.emplace(it->key().ToString(), it->value().ToString());
  }
  EXPECT_TRUE(it->status().ok()) << it->status().ToString();
  return rows;
}

/// Empty when `db` reads as `model` through a full scan (rows in order),
/// scans of 20 rows from every 97th of `keys`, Get on every fifth of them
/// and one MultiGet, all with `options`; else the first difference.
std::string Mismatch(DB* db, const std::map<std::string, std::string>& model,
                     int keys, const ReadOptions& options = {}) {
  std::unique_ptr<Iterator> it(db->NewIterator(options));
  auto m = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++m) {
    if (m == model.end() || it->key() != Slice(m->first) ||
        it->value() != Slice(m->second)) {
      return "scan row " + it->key().ToString();
    }
  }
  if (!it->status().ok() || m != model.end()) {
    return "scan ends early: " + it->status().ToString();
  }
  for (int i = 0; i < keys; i += 97) {
    const std::string start = EncodeKey(static_cast<uint64_t>(i));
    m = model.lower_bound(start);
    it->Seek(start);
    for (int rows = 0; rows < 20; rows++, it->Next(), ++m) {
      if (!it->Valid() || m == model.end()) {
        if (it->Valid() != (m != model.end())) {
          return "scan from key " + std::to_string(i) + " ends at row " +
                 std::to_string(rows);
        }
        break;
      }
      if (it->key() != Slice(m->first) || it->value() != Slice(m->second)) {
        return "scan from key " + std::to_string(i) + ", row " +
               std::to_string(rows);
      }
    }
  }
  auto expect = [&](const std::string& key, const Status& s,
                    const std::string& value) -> std::string {
    auto want = model.find(key);
    if (want == model.end() ? !s.IsNotFound()
                            : !s.ok() || value != want->second) {
      return "read of " + key + ": " + s.ToString();
    }
    return "";
  };
  std::string value;
  for (int i = 0; i < keys; i += 5) {
    const std::string key = EncodeKey(static_cast<uint64_t>(i));
    const Status s = db->Get(options, key, &value);
    if (std::string why = expect(key, s, value); !why.empty()) {
      return "Get " + why;
    }
  }
  std::vector<std::string> batch;
  for (int i = 0; i < keys; i += keys / 16 + 1) {
    batch.push_back(EncodeKey(static_cast<uint64_t>(i)));
  }
  std::vector<Slice> slices(batch.begin(), batch.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db->MultiGet(options, slices, &values, &statuses);
  for (size_t k = 0; k < batch.size(); k++) {
    if (std::string why = expect(batch[k], statuses[k], values[k]);
        !why.empty()) {
      return "MultiGet " + why;
    }
  }
  return "";
}

// A whole-level merge installs its finished subranges in key order and
// frees each output-level input once every subrange it overlaps is
// installed. CompactAll's transient is then the source level plus the
// subranges in flight (at most 2 x threads + 1, of about 4 x
// max_file_size of input each), not a second copy of the output level.
// MemEnv's live-bytes gauge counts it deterministically, as RSS cannot.
TEST_F(CompactionShapeTest, InstallsBoundTheCompactAllTransient) {
  for (const int helpers : {0, 3}) {
    SCOPED_TRACE(helpers);
    std::unique_ptr<Env> base(NewMemEnv());
    ObservingEnv env(base.get());
    Options options = options_;
    options.env = &env;
    options.merge_policy = MergePolicy::kLeveling;
    options.write_buffer_size = 64 << 10;
    options.max_file_size = 4 << 10;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    static_cast<DBImpl*>(db.get())->TEST_SetSubcompactionHelpers(helpers);
    constexpr int kKeys = 12000;
    std::map<std::string, std::string> model;
    for (int i = 0; i < kKeys; i++) {
      const std::string key = EncodeKey(static_cast<uint64_t>(i));
      model[key] = ValueForKey(key, 64);
      ASSERT_TRUE(db->Put({}, key, model[key]).ok());
    }
    ASSERT_TRUE(db->CompactAll().ok());
    // A newer level-0 run over the whole key range.
    for (int i = 0; i < kKeys; i += 37) {
      const std::string key = EncodeKey(static_cast<uint64_t>(i));
      model[key] = "new";
      ASSERT_TRUE(db->Put({}, key, model[key]).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    const DBStats shape = db->GetStats();
    ASSERT_EQ(shape.total_runs, 2) << db->DebugShape();
    const uint64_t source = shape.bytes_per_level[0];
    const uint64_t output = shape.total_bytes - source;
    const uint64_t bound =
        source + (2 * (helpers + 1) + 1) * 4 * options.max_file_size;
    ASSERT_GT(output, 4 * bound) << db->DebugShape();

    IoStats* io = base->io_stats();
    io->Reset();
    const uint64_t start = io->live_file_bytes.load();
    const int syncs = env.manifest_syncs();
    ASSERT_TRUE(db->CompactAll().ok());
    const uint64_t transient = io->live_file_bytes_peak.load() - start;
    EXPECT_LE(transient, bound) << "output level: " << output << " bytes";
    // The final merge installs several times; the one before it (the
    // level-0 run into the empty level 1) once.
    EXPECT_GT(env.manifest_syncs() - syncs, 3);
    EXPECT_EQ(db->GetStats().total_runs, 1) << db->DebugShape();
    EXPECT_TRUE(ScanAll(db.get()) == model);
  }
}

// Between the installs of one merge, readers see the tree the installs
// have left so far. Before each output table is created, the env hook
// reads that tree: scans, Gets and a MultiGet must match the model. Level
// 1 is sparse, so its files span wide key ranges. With two level-0 runs
// the policy merges them into level 1's run, with one CompactAll does;
// the outputs installed so far join that run beside the files not yet
// rewritten. With 80-byte level-1 values level 1 is five files and the
// dense level-0 runs supply most cuts, which fall inside level-1 files:
// an install may end only where a level-1 file starts, and the merge
// still installs between its table builds. With 400-byte values level 1
// is the largest run and every cut falls where one of its files starts.
// Either way the merge's transient stays within the bound of
// InstallsBoundTheCompactAllTransient. Level-0 tombstones over level-1
// keys are dropped by these bottommost merges, so removing a
// source-level file before the final install would resurrect what they
// delete.
TEST_F(CompactionShapeTest, TreesBetweenInstallsReadAsTheModel) {
  for (const int level1_value : {80, 400}) {
    for (const int l0_runs : {2, 1}) {
      for (const int helpers : {0, 3}) {
        SCOPED_TRACE("level-1 values " + std::to_string(level1_value) +
                     ", level-0 runs " + std::to_string(l0_runs) +
                     ", helpers " + std::to_string(helpers));
        std::unique_ptr<Env> base(NewMemEnv());
        ObservingEnv env(base.get());
        Options options = options_;
        options.env = &env;
        options.merge_policy = MergePolicy::kLeveling;
        options.write_buffer_size = 1 << 20;  // flushes only when asked
        options.max_file_size = 4 << 10;
        options.level0_compaction_trigger = 2;
        options.size_ratio = 10;
        std::unique_ptr<DB> db;
        ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
        static_cast<DBImpl*>(db.get())->TEST_SetSubcompactionHelpers(helpers);
        constexpr int kKeys = 3000;
        std::map<std::string, std::string> model;
        auto put = [&](int i, const std::string& value) {
          const std::string key = EncodeKey(static_cast<uint64_t>(i));
          model[key] = value;
          ASSERT_TRUE(db->Put({}, key, value).ok());
        };
        for (int round = 0; round < 2; round++) {
          for (int i = 0; i < kKeys; i += 15) {
            put(i, std::to_string(round) + std::string(level1_value, 's'));
          }
          ASSERT_TRUE(db->Flush().ok());
        }
        ASSERT_TRUE(db->CompactAll().ok());
        ASSERT_EQ(db->GetStats().runs_per_level[1], 1) << db->DebugShape();
        for (int r = 0; r < l0_runs; r++) {
          for (int i = r; i < kKeys; i++) {
            if (i % 90 == 30) {
              continue;  // only level 1 holds it
            }
            if (r + 1 == l0_runs && i % 45 == 0) {
              const std::string key = EncodeKey(static_cast<uint64_t>(i));
              model.erase(key);
              ASSERT_TRUE(db->Delete({}, key).ok());
            } else {
              put(i, ValueForKey(EncodeKey(static_cast<uint64_t>(i)), 40 + r));
            }
          }
          ASSERT_TRUE(db->Flush().ok());
        }
        ASSERT_EQ(db->GetStats().runs_per_level[0], l0_runs);

        const uint64_t source = db->GetStats().bytes_per_level[0];
        IoStats* io = base->io_stats();
        io->Reset();
        const uint64_t start = io->live_file_bytes.load();
        std::atomic<int> checks{0};
        std::atomic<int> between_checks{0};
        std::mutex mu;
        std::string first_mismatch;
        const int syncs = env.manifest_syncs();
        env.on_table = [&] {
          checks++;
          between_checks += env.manifest_syncs() > syncs;
          const std::string why = Mismatch(db.get(), model, kKeys);
          std::lock_guard<std::mutex> lock(mu);
          if (first_mismatch.empty()) {
            first_mismatch = why;
          }
          return Status::OK();
        };
        const Status s = db->CompactAll();
        env.on_table = nullptr;
        ASSERT_TRUE(s.ok()) << s.ToString();
        EXPECT_EQ(first_mismatch, "");
        EXPECT_GT(checks.load(), 10);
        EXPECT_GT(between_checks.load(), 0);
        const uint64_t bound =
            source + (2 * (helpers + 1) + 1) * 4 * options.max_file_size;
        EXPECT_LE(io->live_file_bytes_peak.load() - start, bound);
        EXPECT_EQ(Mismatch(db.get(), model, kKeys), "");
        const DBStats after = db->GetStats();
        EXPECT_EQ(after.total_runs, 1) << db->DebugShape();
        EXPECT_EQ(after.runs_per_level[1], 1) << db->DebugShape();
      }
    }
  }
}

// A merge that removes no output-level input, such as a tiered push into a
// fresh run, has nothing to free early: it installs once, however many
// subranges it builds.
TEST_F(CompactionShapeTest, MergeThatRemovesNothingInstallsOnce) {
  ObservingEnv env(env_.get());
  options_.env = &env;
  options_.merge_policy = MergePolicy::kTiering;
  options_.write_buffer_size = 1 << 20;  // flushes only when asked
  options_.max_file_size = 4 << 10;
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  static_cast<DBImpl*>(db_.get())->TEST_SetSubcompactionHelpers(3);
  for (int run = 0; run < options_.level0_compaction_trigger; run++) {
    for (int i = run; i < 6000; i += 3) {
      const std::string key = EncodeKey(static_cast<uint64_t>(i));
      ASSERT_TRUE(db_->Put({}, key, ValueForKey(key, 32)).ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  }
  ASSERT_EQ(db_->GetStats().runs_per_level[0],
            options_.level0_compaction_trigger);
  env.TakeTableThreads();
  const int syncs = env.manifest_syncs();
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ(env.manifest_syncs() - syncs, 1);
  EXPECT_GT(env.TakeTableThreads(), 1u);  // split into subranges
  const DBStats after = db_->GetStats();
  EXPECT_EQ(after.total_runs, 1) << db_->DebugShape();
  EXPECT_EQ(after.runs_per_level[1], 1) << db_->DebugShape();
}

// CompactAll collapses a tree that lives in level 0 alone into one run
// there, while a background flush may add a newer level-0 run. The
// collapsed run takes its place in the run order before the merge starts,
// so the flushed run stays newer and is probed first: a read between that
// install and the next merge sees the flushed value, not the one it
// overwrote.
TEST_F(CompactionShapeTest, CollapseInstallsBelowAnOverlappingFlush) {
  ObservingEnv env(env_.get());
  options_.env = &env;
  options_.merge_policy = MergePolicy::kLeveling;
  options_.background_compaction = true;
  options_.write_buffer_size = 1 << 20;  // flushes only when asked
  options_.max_file_size = 4 << 10;
  options_.level0_compaction_trigger = 8;
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  const std::string key = EncodeKey(7);
  for (int run = 0; run < 3; run++) {
    for (int i = run; i < 3000; i += 3) {
      const std::string k = EncodeKey(static_cast<uint64_t>(i));
      ASSERT_TRUE(db_->Put({}, k, ValueForKey(k, 32)).ok());
    }
    ASSERT_TRUE(db_->Put({}, key, "old").ok());
    ASSERT_TRUE(db_->Flush().ok());
  }
  ASSERT_EQ(db_->GetStats().runs_per_level[0], 3) << db_->DebugShape();

  // The first table the collapse builds flushes a newer value of `key`;
  // every table built once that flush is in reads it back.
  std::atomic<bool> flushing{false};
  std::atomic<bool> flushed{false};
  std::atomic<int> reads{0};
  std::atomic<int> stale{0};
  env.on_table = [&]() -> Status {
    if (!flushing.exchange(true)) {
      Status s = db_->Put({}, key, "new");
      s = s.ok() ? db_->Flush() : s;
      flushed = s.ok();
      return s;
    }
    if (!flushed) {
      return Status::OK();
    }
    std::string value;
    const Status s = db_->Get({}, key, &value);
    reads++;
    stale += !s.ok() || value != "new";
    return Status::OK();
  };
  const Status s = db_->CompactAll();
  env.on_table = nullptr;
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(stale.load(), 0);
  std::string value;
  ASSERT_TRUE(db_->Get({}, key, &value).ok());
  EXPECT_EQ(value, "new");
}

// A tree left between two installs of one merge holds the installed
// source-level entries twice: in the source level and in the outputs.
// With a snapshot older than those entries neither copy is shadowed, so
// the next merge of that tree must drop the repeat itself, or it writes
// one key twice into a table. Here a later subrange fails (inline mode:
// CompactAll returns the error), and CompactAll runs again on a healthy
// disk.
TEST_F(CompactionShapeTest, RemergeOfInstalledPrefixWritesEachEntryOnce) {
  ObservingEnv env(env_.get());
  auto recorder = std::make_shared<CompactionOutputRecorder>();
  options_.env = &env;
  options_.merge_policy = MergePolicy::kLeveling;
  options_.write_buffer_size = 64 << 10;
  options_.max_file_size = 4 << 10;
  options_.listeners.push_back(recorder);
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  auto* impl = static_cast<DBImpl*>(db_.get());
  impl->TEST_SetSubcompactionHelpers(0);
  constexpr int kKeys = 6000;
  std::map<std::string, std::string> model;
  for (int i = 0; i < kKeys; i++) {
    const std::string key = EncodeKey(static_cast<uint64_t>(i));
    model[key] = ValueForKey(key, 64);
    ASSERT_TRUE(db_->Put({}, key, model[key]).ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  const std::vector<int> runs = db_->GetStats().runs_per_level;
  const int bottom = static_cast<int>(
      std::find(runs.begin(), runs.end(), 1) - runs.begin());
  ASSERT_LT(bottom, static_cast<int>(runs.size())) << db_->DebugShape();
  const Snapshot* snapshot = db_->GetSnapshot();
  const std::map<std::string, std::string> old_model = model;
  for (int i = 0; i < kKeys; i += 5) {
    const std::string key = EncodeKey(static_cast<uint64_t>(i));
    model[key] = "new";
    ASSERT_TRUE(db_->Put({}, key, model[key]).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());

  // Fail the third table created once an install has changed the bottom
  // level's bytes; that tree then holds the source level too.
  const uint64_t bottom_bytes = db_->GetStats().bytes_per_level[bottom];
  int after_install = 0;
  DBStats prefix;
  env.on_table = [&] {
    const DBStats shape = db_->GetStats();
    if (after_install < 3 &&
        shape.bytes_per_level[bottom] != bottom_bytes &&
        ++after_install == 3) {
      prefix = shape;
      return Status::IOError("injected table failure");
    }
    return Status::OK();
  };
  Status s = db_->CompactAll();
  env.on_table = nullptr;
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  ASSERT_EQ(after_install, 3);
  ASSERT_GT(prefix.total_runs, 1);  // source is live
  // The outputs installed before the failure joined the bottom level's
  // run; the source level is still live.
  EXPECT_EQ(db_->GetStats().runs_per_level[bottom], 1) << db_->DebugShape();
  EXPECT_GT(db_->GetStats().total_runs, 1) << db_->DebugShape();
  EXPECT_TRUE(ScanAll(db_.get()) == model);

  recorder->outputs.clear();
  s = db_->CompactAll();
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_FALSE(recorder->outputs.empty());
  EXPECT_EQ(db_->GetStats().total_runs, 1) << db_->DebugShape();
  InternalKeyComparator icmp(BytewiseComparator());
  StatsRegistry stats;
  TableCache tables("/db", &options_, &icmp, &stats);
  for (const TableFileInfo& t : recorder->outputs) {
    auto meta = std::make_shared<FileMetaData>();
    meta->number = t.file_number;
    meta->file_size = t.file_size;
    const std::vector<FileMetaPtr> files = {meta};
    std::unique_ptr<Iterator> it(tables.NewRunIterator(files, t.level));
    std::string last;
    int repeats = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      repeats += !last.empty() && icmp.Compare(Slice(last), it->key()) >= 0;
      last = it->key().ToString();
    }
    ASSERT_TRUE(it->status().ok()) << it->status().ToString();
    EXPECT_EQ(repeats, 0) << "table " << t.file_number;
  }
  EXPECT_TRUE(ScanAll(db_.get()) == model);
  ReadOptions at_snapshot;
  at_snapshot.snapshot = snapshot;
  EXPECT_TRUE(ScanAll(db_.get(), at_snapshot) == old_model);
  db_->ReleaseSnapshot(snapshot);
}


// An iterator opened between two installs of one merge pins that tree:
// level 1's run holds the outputs installed so far beside the old files
// not yet rewritten, and level 0 keeps the source runs. When later merges
// consume those files, the iterator still reads them (it opens its tables
// only as it reaches them), and once it is gone they are deleted.
TEST_F(CompactionShapeTest, IteratorPinsATreeBetweenInstalls) {
  for (const int helpers : {0, 3}) {
    SCOPED_TRACE(helpers);
    std::unique_ptr<Env> base(NewMemEnv());
    ObservingEnv env(base.get());
    Options options = options_;
    options.env = &env;
    options.merge_policy = MergePolicy::kLeveling;
    options.write_buffer_size = 1 << 20;  // flushes only when asked
    options.max_file_size = 4 << 10;
    options.level0_compaction_trigger = 2;
    options.size_ratio = 10;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    static_cast<DBImpl*>(db.get())->TEST_SetSubcompactionHelpers(helpers);
    constexpr int kKeys = 3000;
    std::map<std::string, std::string> model;
    auto put_runs = [&](int runs, int step, int size) {
      for (int r = 0; r < runs; r++) {
        for (int i = r; i < kKeys; i += step) {
          const std::string key = EncodeKey(static_cast<uint64_t>(i));
          model[key] = ValueForKey(key, size + r);
          ASSERT_TRUE(db->Put({}, key, model[key]).ok());
        }
        ASSERT_TRUE(db->Flush().ok());
      }
    };
    put_runs(2, 15, 80);
    ASSERT_TRUE(db->CompactAll().ok());
    ASSERT_EQ(db->GetStats().runs_per_level[1], 1) << db->DebugShape();
    // Two level-0 runs: the policy merges them into level 1's run in
    // several installs.
    put_runs(2, 1, 40);
    const uint64_t level1_bytes = db->GetStats().bytes_per_level[1];

    std::unique_ptr<Iterator> held;
    std::map<std::string, std::string> held_model;
    std::mutex mu;
    env.on_table = [&] {
      std::lock_guard<std::mutex> lock(mu);
      const DBStats shape = db->GetStats();
      if (held == nullptr && shape.runs_per_level[0] == 2 &&
          shape.bytes_per_level[1] != level1_bytes) {
        EXPECT_EQ(shape.runs_per_level[1], 1) << db->DebugShape();
        held.reset(db->NewIterator({}));
        held_model = model;
      }
      return Status::OK();
    };
    ASSERT_TRUE(db->CompactAll().ok());
    env.on_table = nullptr;
    ASSERT_NE(held, nullptr);
    ASSERT_EQ(db->GetStats().total_runs, 1) << db->DebugShape();

    // A newer pair of level-0 runs over the whole range: their merge
    // consumes every level-1 file, the early outputs included.
    put_runs(2, 2, 60);
    ASSERT_TRUE(db->CompactAll().ok());
    EXPECT_TRUE(ScanAll(db.get()) == model);

    auto m = held_model.begin();
    size_t rows = 0;
    for (held->SeekToFirst(); held->Valid(); held->Next(), ++m, rows++) {
      ASSERT_TRUE(m != held_model.end());
      ASSERT_EQ(held->key().ToString(), m->first);
      ASSERT_EQ(held->value().ToString(), m->second);
    }
    ASSERT_TRUE(held->status().ok()) << held->status().ToString();
    EXPECT_EQ(rows, held_model.size());
    held.reset();

    // Every table file left on disk is live.
    std::vector<std::string> children;
    ASSERT_TRUE(env.GetChildren("/db", &children).ok());
    int tables = 0;
    for (const std::string& name : children) {
      uint64_t number;
      FileType type;
      tables += ParseFileName(name, &number, &type) &&
                type == FileType::kTableFile;
    }
    EXPECT_EQ(tables, db->GetStats().total_files);
  }
}

/// Empty when every run of `v` holds files whose user-key ranges strictly
/// increase; else the first run that does not.
std::string OverlappingRun(const Version& v) {
  const Comparator* ucmp = BytewiseComparator();
  for (int level = 0; level < v.num_levels(); level++) {
    for (const Run& run : v.levels()[level].runs) {
      for (size_t i = 1; i < run.files.size(); i++) {
        if (ucmp->Compare(ExtractUserKey(Slice(run.files[i - 1]->largest)),
                          ExtractUserKey(Slice(run.files[i]->smallest))) >=
            0) {
          return "level " + std::to_string(level) + " run " +
                 std::to_string(run.run_seq) + " file " +
                 std::to_string(run.files[i]->number);
        }
      }
    }
  }
  return "";
}

// A merge of level 1 into level 2 that stops between two installs (here a
// failed table; a crash leaves the same tree) leaves level 2 with one run:
// the outputs installed below the prefix's end cut, then the old files at
// or above it, while level 1 keeps every file. After a reopen, a
// seek-triggered pick of the level-1 file that starts past the installed
// outputs joins that run, rewriting the old files it overlaps; the run
// must stay disjoint and every key must read as the model.
TEST_F(CompactionShapeTest, PickAfterAStoppedMergeKeepsRunsDisjoint) {
  ObservingEnv env(env_.get());
  Options options = options_;
  options.env = &env;
  options.merge_policy = MergePolicy::kLeveling;
  options.max_file_size = 4 << 10;
  options.level0_compaction_trigger = 2;
  constexpr int kKeys = 3000;
  std::map<std::string, std::string> model;
  auto put = [&](int i, int size) {
    const std::string key = EncodeKey(static_cast<uint64_t>(i));
    model[key] = ValueForKey(key, size);
    ASSERT_TRUE(db_->Put({}, key, model[key]).ok());
  };
  auto reopen = [&](size_t write_buffer_size, int size_ratio,
                    uint64_t seek_threshold) {
    db_.reset();
    options.write_buffer_size = write_buffer_size;
    options.size_ratio = size_ratio;
    options.seek_compaction_threshold = seek_threshold;
    ASSERT_TRUE(DB::Open(options, "/db", &db_).ok());
  };

  // Sparse keys in level 1, then pushed into level 2: the small write
  // buffer makes level 1's capacity (8 KB) smaller than them and level
  // 2's (32 KB) larger.
  reopen(1 << 20, 4, 0);  // flushes only when asked
  for (int round = 0; round < 2; round++) {
    for (int i = 0; i < kKeys; i += 15) {
      put(i, 80 + round);
    }
    ASSERT_TRUE(db_->Flush().ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  reopen(1 << 10, 4, 0);
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_EQ(db_->GetStats().runs_per_level[2], 1) << db_->DebugShape();
  ASSERT_EQ(db_->GetStats().total_runs, 1) << db_->DebugShape();

  // Dense keys in level 1 (its capacity now out of reach).
  reopen(1 << 20, 100, 0);
  for (int round = 0; round < 2; round++) {
    for (int i = 0; i < kKeys; i++) {
      put(i, 60 + round);
    }
    ASSERT_TRUE(db_->Flush().ok());
  }
  auto* impl = static_cast<DBImpl*>(db_.get());
  std::set<uint64_t> old_level2;
  for (const FileMetaPtr& f :
       impl->TEST_CurrentVersion()->levels()[2].runs.at(0).files) {
    old_level2.insert(f->number);
  }
  // CompactAll merges level 1 into level 2. From its third table once an
  // install has changed level 2's bytes on, table creation fails, so the
  // compaction that follows the failure cannot change the tree either.
  impl->TEST_SetSubcompactionHelpers(0);
  const uint64_t level2_bytes = db_->GetStats().bytes_per_level[2];
  int after_install = 0;
  env.on_table = [&] {
    if (after_install >= 2 ||
        db_->GetStats().bytes_per_level[2] != level2_bytes) {
      if (++after_install >= 3) {
        return Status::IOError("injected table failure");
      }
    }
    return Status::OK();
  };
  Status s = db_->CompactAll();
  env.on_table = nullptr;
  ASSERT_TRUE(s.IsIOError()) << s.ToString();

  // The installed outputs lead level 2's run; the level-1 file that
  // starts past the last of them.
  const VersionPtr v = impl->TEST_CurrentVersion();
  const auto& level2 = v->levels()[2].runs;
  ASSERT_EQ(level2.size(), 1u) << db_->DebugShape();
  ASSERT_EQ(OverlappingRun(*v), "") << db_->DebugShape();
  std::string prefix_end;
  for (const FileMetaPtr& f : level2[0].files) {
    if (old_level2.count(f->number) == 0) {
      prefix_end = ExtractUserKey(Slice(f->largest)).ToString();
    }
  }
  ASSERT_FALSE(prefix_end.empty()) << db_->DebugShape();
  const Comparator* ucmp = BytewiseComparator();
  FileMetaPtr g;
  for (const FileMetaPtr& f : v->levels()[1].runs.at(0).files) {
    if (ucmp->Compare(ExtractUserKey(Slice(f->smallest)), prefix_end) > 0) {
      g = f;
      break;
    }
  }
  ASSERT_NE(g, nullptr);
  const std::string g_smallest =
      ExtractUserKey(Slice(g->smallest)).ToString();

  reopen(1 << 20, 100, 10);
  impl = static_cast<DBImpl*>(db_.get());
  // Absent keys inside the file's range, probed past its filter.
  ReadOptions no_filter;
  no_filter.use_filter = false;
  std::string value;
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(
        db_->Get(no_filter, g_smallest + "x", &value).IsNotFound());
  }
  // The next write runs the pick.
  put(0, 50);
  EXPECT_EQ(OverlappingRun(*impl->TEST_CurrentVersion()), "")
      << db_->DebugShape();
  EXPECT_EQ(Mismatch(db_.get(), model, kKeys), "");
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ(db_->GetStats().total_runs, 1) << db_->DebugShape();
  EXPECT_EQ(Mismatch(db_.get(), model, kKeys), "");
}

// A merge into level 1's run that stops between two installs (a failed
// table) leaves level 1 one run of disjoint files: each install's outputs
// join the run at once, since the merge is cut only where one of the
// run's files starts. Level 0 keeps both source runs, and every key reads
// as the model, before and after a reopen and a CompactAll on a healthy
// disk.
TEST_F(CompactionShapeTest, MergeStoppedBetweenInstallsLeavesOneRun) {
  ObservingEnv env(env_.get());
  options_.env = &env;
  options_.merge_policy = MergePolicy::kLeveling;
  options_.write_buffer_size = 1 << 20;  // flushes only when asked
  options_.max_file_size = 4 << 10;
  options_.level0_compaction_trigger = 2;
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  auto* impl = static_cast<DBImpl*>(db_.get());
  impl->TEST_SetSubcompactionHelpers(0);
  constexpr int kKeys = 3000;
  std::map<std::string, std::string> model;
  auto put_run = [&](int step, int size) {
    for (int i = 0; i < kKeys; i += step) {
      const std::string key = EncodeKey(static_cast<uint64_t>(i));
      model[key] = ValueForKey(key, size);
      ASSERT_TRUE(db_->Put({}, key, model[key]).ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  };
  put_run(15, 80);
  put_run(15, 81);
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_EQ(db_->GetStats().runs_per_level[1], 1) << db_->DebugShape();
  put_run(1, 40);
  put_run(1, 41);
  ASSERT_EQ(db_->GetStats().runs_per_level[0], 2) << db_->DebugShape();

  // Every table fails once an install has changed level 1's bytes, so the
  // compactions that follow the failure leave the tree as it stopped.
  const uint64_t level1_bytes = db_->GetStats().bytes_per_level[1];
  int failed = 0;
  env.on_table = [&] {
    if (db_->GetStats().bytes_per_level[1] == level1_bytes) {
      return Status::OK();
    }
    failed++;
    return Status::IOError("injected table failure");
  };
  Status s = db_->CompactAll();
  env.on_table = nullptr;
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  ASSERT_GT(failed, 0);
  const DBStats stopped = db_->GetStats();
  EXPECT_NE(stopped.bytes_per_level[1], level1_bytes);
  EXPECT_EQ(stopped.runs_per_level[0], 2) << db_->DebugShape();
  EXPECT_EQ(stopped.runs_per_level[1], 1) << db_->DebugShape();
  EXPECT_EQ(OverlappingRun(*impl->TEST_CurrentVersion()), "")
      << db_->DebugShape();
  EXPECT_EQ(Mismatch(db_.get(), model, kKeys), "");

  // The failed merge that followed stuck in bg_error_; a reopen clears it.
  db_.reset();
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  EXPECT_EQ(Mismatch(db_.get(), model, kKeys), "");
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ(db_->GetStats().total_runs, 1) << db_->DebugShape();
  EXPECT_EQ(Mismatch(db_.get(), model, kKeys), "");
}

// ------------------------------------------------------------------ Moves --

/// Counts compactions and keeps the end event of each move.
class MoveRecorder : public EventListener {
 public:
  void OnCompactionEnd(const CompactionJobInfo& info) override {
    std::lock_guard<std::mutex> lock(mu_);
    compactions_++;
    if (info.moved) {
      moves_.push_back(info);
    }
  }
  int compactions() {
    std::lock_guard<std::mutex> lock(mu_);
    return compactions_;
  }
  std::vector<CompactionJobInfo> moves() {
    std::lock_guard<std::mutex> lock(mu_);
    return moves_;
  }

 private:
  std::mutex mu_;
  int compactions_ = 0;
  std::vector<CompactionJobInfo> moves_;
};

/// The sorted file numbers of `level` in `v`.
std::vector<uint64_t> LevelFiles(const Version& v, int level) {
  std::vector<uint64_t> numbers;
  for (const Run& run : v.levels()[level].runs) {
    for (const FileMetaPtr& f : run.files) {
      numbers.push_back(f->number);
    }
  }
  std::sort(numbers.begin(), numbers.end());
  return numbers;
}

/// Table files in `dir` of `env`.
int TableFilesOnDisk(Env* env, const std::string& dir) {
  std::vector<std::string> children;
  EXPECT_TRUE(env->GetChildren(dir, &children).ok());
  int tables = 0;
  for (const std::string& name : children) {
    uint64_t number;
    FileType type;
    tables += ParseFileName(name, &number, &type) &&
              type == FileType::kTableFile;
  }
  return tables;
}

/// A leveled tree loaded with random keys until its first move: level 1,
/// built by merges, overflows into the empty level 2. Each put runs at
/// most one compaction, so the put that moves runs nothing else after its
/// flush. Before that put the fixture took a snapshot and an iterator, and
/// noted level 1's files and the table bytes written so far.
class MoveTest : public CompactionShapeTest {
 protected:
  static constexpr int kKeys = 2000;

  void LoadUntilMove() {
    env_wrapper_ = std::make_unique<ObservingEnv>(env_.get());
    options_.env = env_wrapper_.get();
    options_.merge_policy = MergePolicy::kLeveling;
    options_.write_buffer_size = 8 << 10;
    options_.max_file_size = 4 << 10;
    options_.level0_compaction_trigger = 2;
    options_.size_ratio = 2;
    options_.max_compactions_per_write = 1;
    options_.listeners.push_back(recorder_);
    ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
    impl_ = static_cast<DBImpl*>(db_.get());
    Random rnd(301);
    for (int n = 0; recorder_->moves().empty(); n++) {
      ASSERT_LT(n, 50000) << db_->DebugShape();
      if (snapshot_ != nullptr) {
        db_->ReleaseSnapshot(snapshot_);
      }
      snapshot_ = db_->GetSnapshot();
      held_.reset(db_->NewIterator({}));
      before_ = model_;
      level1_ = LevelFiles(*impl_->TEST_CurrentVersion(), 1);
      table_bytes_ = env_wrapper_->table_bytes();
      flushed_ = db_->GetStats().bytes_flushed;
      Put(static_cast<int>(rnd.Uniform(kKeys)), 40 + n % 50);
    }
  }

  void Put(int i, int size) {
    const std::string key = EncodeKey(static_cast<uint64_t>(i));
    model_[key] = ValueForKey(key, size);
    ASSERT_TRUE(db_->Put({}, key, model_[key]).ok());
  }

  std::unique_ptr<ObservingEnv> env_wrapper_;
  std::shared_ptr<MoveRecorder> recorder_ = std::make_shared<MoveRecorder>();
  DBImpl* impl_ = nullptr;
  std::map<std::string, std::string> model_;
  std::map<std::string, std::string> before_;  // the model at snapshot_
  const Snapshot* snapshot_ = nullptr;
  std::unique_ptr<Iterator> held_;  // opened at snapshot_'s sequence
  std::vector<uint64_t> level1_;
  uint64_t table_bytes_ = 0;
  uint64_t flushed_ = 0;
};

// A whole-level push of level 1 into an empty level 2 overlaps nothing
// there, so it installs as a move: level 2 then holds level 1's files
// under their numbers, the move writes no table byte, and the tree reads
// as the model at its head and at a snapshot taken before the move.
TEST_F(MoveTest, MoveIntoAnEmptyLevelKeepsItsFiles) {
  LoadUntilMove();
  const std::vector<CompactionJobInfo> moves = recorder_->moves();
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].input_level, 1);
  EXPECT_EQ(moves[0].output_level, 2);
  EXPECT_EQ(moves[0].bytes_written, 0u);
  EXPECT_TRUE(moves[0].outputs.empty());
  std::vector<uint64_t> inputs;
  for (const TableFileInfo& f : moves[0].inputs) {
    inputs.push_back(f.file_number);
  }
  std::sort(inputs.begin(), inputs.end());
  EXPECT_EQ(inputs, level1_);
  const VersionPtr v = impl_->TEST_CurrentVersion();
  EXPECT_TRUE(v->levels()[1].runs.empty()) << db_->DebugShape();
  EXPECT_EQ(LevelFiles(*v, 2), level1_);
  // The put that moved wrote table bytes for its flush alone.
  EXPECT_EQ(env_wrapper_->table_bytes() - table_bytes_,
            db_->GetStats().bytes_flushed - flushed_);
  EXPECT_TRUE(impl_->TEST_CheckConsistency().ok());

  EXPECT_EQ(Mismatch(db_.get(), model_, kKeys), "");
  ReadOptions at_snapshot;
  at_snapshot.snapshot = snapshot_;
  EXPECT_EQ(Mismatch(db_.get(), before_, kKeys, at_snapshot), "");
  db_->ReleaseSnapshot(snapshot_);
}

// An iterator opened before a move pins the tree that lists the moved
// files at their old level. When a later merge consumes them, the
// iterator still reads them, and once it is gone they are deleted: no
// table file is left that the tree does not hold.
TEST_F(MoveTest, IteratorOpenedBeforeAMoveReadsAfterAMerge) {
  LoadUntilMove();
  db_->ReleaseSnapshot(snapshot_);
  Random rnd(302);
  auto moved_file_live = [&] {
    const std::vector<uint64_t> live =
        LevelFiles(*impl_->TEST_CurrentVersion(), 2);
    for (uint64_t number : level1_) {
      if (std::binary_search(live.begin(), live.end(), number)) {
        return true;
      }
    }
    return false;
  };
  for (int n = 0; moved_file_live(); n++) {
    ASSERT_LT(n, 50000) << db_->DebugShape();
    Put(static_cast<int>(rnd.Uniform(kKeys)), 30);
  }
  EXPECT_EQ(Mismatch(db_.get(), model_, kKeys), "");

  auto m = before_.begin();
  for (held_->SeekToFirst(); held_->Valid(); held_->Next(), ++m) {
    ASSERT_TRUE(m != before_.end());
    ASSERT_EQ(held_->key().ToString(), m->first);
    ASSERT_EQ(held_->value().ToString(), m->second);
  }
  ASSERT_TRUE(held_->status().ok()) << held_->status().ToString();
  EXPECT_TRUE(m == before_.end());
  held_.reset();
  EXPECT_EQ(TableFilesOnDisk(env_wrapper_.get(), "/db"),
            db_->GetStats().total_files);
}

// Sequential keys flush into runs that overlap nothing below them, so
// every compaction of the load moves its runs down, from level 0 and from
// level 1 alike: the tables written are about the flushed bytes. A tree
// that merged every pick instead writes over three times the user bytes.
TEST_F(CompactionShapeTest, SequentialLoadMovesRunsInsteadOfMerging) {
  ObservingEnv env(env_.get());
  auto recorder = std::make_shared<MoveRecorder>();
  options_.env = &env;
  options_.merge_policy = MergePolicy::kLeveling;
  options_.write_buffer_size = 16 << 10;
  options_.max_file_size = 16 << 10;
  options_.listeners.push_back(recorder);
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  constexpr int kKeys = 20000;
  std::map<std::string, std::string> model;
  uint64_t user_bytes = 0;
  for (int i = 0; i < kKeys; i++) {
    const std::string key = EncodeKey(static_cast<uint64_t>(i));
    model[key] = ValueForKey(key, 100);
    user_bytes += key.size() + model[key].size();
    ASSERT_TRUE(db_->Put({}, key, model[key]).ok());
  }
  std::set<int> moved_from;
  for (const CompactionJobInfo& move : recorder->moves()) {
    moved_from.insert(move.input_level);
  }
  EXPECT_TRUE(moved_from.count(0)) << db_->DebugShape();
  EXPECT_TRUE(moved_from.count(1)) << db_->DebugShape();
  EXPECT_GE(db_->GetStats().num_levels, 3) << db_->DebugShape();
  EXPECT_LE(static_cast<double>(env.table_bytes()), 1.5 * user_bytes)
      << db_->DebugShape();
  EXPECT_EQ(Mismatch(db_.get(), model, kKeys), "");
  EXPECT_TRUE(
      static_cast<DBImpl*>(db_.get())->TEST_CheckConsistency().ok());
}

// Two level-0 runs whose ranges meet at one user key, the newer run
// holding its newer version: their internal keys are disjoint, but one
// run would hold the key in two files, which a point lookup's binary
// search cannot serve. They merge; runs that do not share the key move.
TEST_F(CompactionShapeTest, RunsSharingABoundaryUserKeyNeverMoveAsOne) {
  for (const int newer_end : {100, 99}) {
    SCOPED_TRACE(newer_end);
    std::unique_ptr<Env> base(NewMemEnv());
    auto recorder = std::make_shared<MoveRecorder>();
    Options options = options_;
    options.env = base.get();
    options.merge_policy = MergePolicy::kLeveling;
    options.write_buffer_size = 1 << 20;  // flushes only when asked
    options.level0_compaction_trigger = 2;
    options.listeners.push_back(recorder);
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    std::map<std::string, std::string> model;
    auto put_run = [&](int lo, int hi, const std::string& value) {
      for (int i = lo; i <= hi; i++) {
        const std::string key = EncodeKey(static_cast<uint64_t>(i));
        model[key] = value;
        ASSERT_TRUE(db->Put({}, key, value).ok());
      }
      ASSERT_TRUE(db->Flush().ok());
    };
    put_run(100, 199, "old");
    put_run(0, newer_end, "new");
    ASSERT_EQ(db->GetStats().runs_per_level[0], 2) << db->DebugShape();
    ASSERT_TRUE(db->CompactAll().ok());
    EXPECT_EQ(recorder->compactions(), 1);
    EXPECT_EQ(recorder->moves().size(), newer_end == 100 ? 0u : 1u);
    EXPECT_EQ(db->GetStats().runs_per_level[1], 1) << db->DebugShape();
    EXPECT_TRUE(static_cast<DBImpl*>(db.get())->TEST_CheckConsistency().ok());
    EXPECT_EQ(Mismatch(db.get(), model, 200), "");
  }
}

// Monkey gives each level its own filter bits per key, and a moved table
// keeps the filter it was built with: under Monkey the sequential load
// that moves every run under uniform bits merges instead.
TEST_F(CompactionShapeTest, MonkeyWithUnequalBitsDoesNotMove) {
  auto recorder = std::make_shared<MoveRecorder>();
  options_.merge_policy = MergePolicy::kLeveling;
  options_.filter_allocation = FilterAllocation::kMonkey;
  options_.write_buffer_size = 16 << 10;
  options_.max_file_size = 16 << 10;
  options_.listeners.push_back(recorder);
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  constexpr int kKeys = 20000;
  std::map<std::string, std::string> model;
  for (int i = 0; i < kKeys; i++) {
    const std::string key = EncodeKey(static_cast<uint64_t>(i));
    model[key] = ValueForKey(key, 100);
    ASSERT_TRUE(db_->Put({}, key, model[key]).ok());
  }
  EXPECT_GT(recorder->compactions(), 10);
  EXPECT_TRUE(recorder->moves().empty());
  EXPECT_EQ(Mismatch(db_.get(), model, kKeys), "");
}

// ------------------------------------------------------------ Consistency --

/// A file of `number` spanning user keys [lo, hi].
FileMetaPtr TestFile(uint64_t number, const std::string& lo,
                     const std::string& hi) {
  auto f = std::make_shared<FileMetaData>();
  f->number = number;
  AppendInternalKey(&f->smallest, lo, 9, ValueType::kTypeValue);
  AppendInternalKey(&f->largest, hi, 1, ValueType::kTypeValue);
  return f;
}

/// A version whose levels hold `levels`, from level 0 down.
Version TestVersion(int num_levels,
                    const std::vector<std::vector<lsmlab::Run>>& levels) {
  Version v(num_levels);
  for (size_t level = 0; level < levels.size(); level++) {
    (*v.mutable_levels())[level].runs = levels[level];
  }
  return v;
}

lsmlab::Run TestRun(uint64_t seq, std::vector<FileMetaPtr> files) {
  lsmlab::Run r;
  r.run_seq = seq;
  r.files = std::move(files);
  return r;
}

// CheckConsistency names each broken invariant: a run whose files overlap
// in user keys (a shared boundary key included) and a file number twice.
TEST(ConsistencyTest, CheckConsistencyRejectsBrokenTrees) {
  const int kLevels = Options().max_levels;
  auto check = [&](const std::vector<std::vector<lsmlab::Run>>& levels) {
    return TestVersion(kLevels, levels).CheckConsistency(BytewiseComparator());
  };
  const auto run = TestRun;

  // Runs may overlap each other, at level 0 and below it.
  EXPECT_TRUE(check({{run(3, {TestFile(1, "a", "m")}),
                      run(2, {TestFile(2, "c", "z")}),
                      run(1, {TestFile(3, "a", "z")})},
                     {run(4, {TestFile(4, "a", "f"), TestFile(5, "g", "p")}),
                      run(5, {TestFile(6, "b", "q")}),
                      run(6, {TestFile(7, "a", "z")})}})
                  .ok());
  Status s =
      check({{}, {run(1, {TestFile(1, "a", "f"), TestFile(2, "f", "p")})}});
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  s = check({{}, {run(1, {TestFile(1, "a", "f"), TestFile(2, "c", "p")})}});
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  s = check({{run(2, {TestFile(7, "a", "b")})},
             {run(1, {TestFile(7, "c", "d")})}});
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// CheckRunBound refuses an install that grows a one-run level past its
// run, and lets a level keep the runs it already held.
TEST(ConsistencyTest, CheckRunBoundRejectsOnlyGrowth) {
  Options options;
  options.merge_policy = MergePolicy::kLeveling;
  InternalKeyComparator icmp(BytewiseComparator());
  const std::unique_ptr<CompactionPolicy> policy =
      CreateCompactionPolicy(options, &icmp, nullptr);
  const auto run = TestRun;
  const Version one_run =
      TestVersion(options.max_levels, {{}, {run(1, {TestFile(1, "a", "b")})}});
  const Version two_runs = TestVersion(
      options.max_levels, {{},
                           {run(2, {TestFile(2, "a", "b")}),
                            run(1, {TestFile(3, "c", "d")})}});
  const Version three_runs = TestVersion(
      options.max_levels, {{},
                           {run(3, {TestFile(4, "a", "b")}),
                            run(2, {TestFile(5, "c", "d")}),
                            run(1, {TestFile(6, "e", "f")})}});
  // Level 0 has no bound.
  const Version l0_runs = TestVersion(
      options.max_levels, {{run(3, {TestFile(7, "a", "b")}),
                            run(2, {TestFile(8, "a", "b")}),
                            run(1, {TestFile(9, "a", "b")})}});

  EXPECT_TRUE(l0_runs.CheckRunBound(one_run, *policy).ok());
  Status s = two_runs.CheckRunBound(one_run, *policy);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  s = three_runs.CheckRunBound(two_runs, *policy);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE(two_runs.CheckRunBound(three_runs, *policy).ok());
  EXPECT_TRUE(three_runs.CheckRunBound(three_runs, *policy).ok());
}

// The merge policy is an option of each open, not of the tree. A tree
// written under tiering, with three runs at a level from 1 down, reopens
// under leveling (debug builds check the recovered version), and the
// leveled picks collapse each level to one run without losing a key.
TEST_F(CompactionShapeTest, TieredTreeReopensUnderLeveling) {
  options_.merge_policy = MergePolicy::kTiering;
  options_.size_ratio = 4;  // a tiered level holds up to 3 runs
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  auto most_runs = [&] {
    const DBStats stats = db_->GetStats();
    int most = 0;
    for (size_t level = 1; level < stats.runs_per_level.size(); level++) {
      most = std::max(most, stats.runs_per_level[level]);
    }
    return most;
  };
  std::map<std::string, std::string> model;
  auto gen = NewUniformGenerator(1 << 24, 42);
  for (int i = 0; i < 40000 && most_runs() < 3; i++) {
    const std::string key = EncodeKey(gen->Next());
    model[key] = ValueForKey(key, 32);
    ASSERT_TRUE(db_->Put({}, key, model[key]).ok());
  }
  ASSERT_GE(most_runs(), 3) << db_->DebugShape();

  db_.reset();
  options_.merge_policy = MergePolicy::kLeveling;
  ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  auto* impl = static_cast<DBImpl*>(db_.get());
  EXPECT_TRUE(impl->TEST_CheckConsistency().ok());
  const std::string key = EncodeKey(1);
  model[key] = ValueForKey(key, 32);
  ASSERT_TRUE(db_->Put({}, key, model[key]).ok());
  ASSERT_TRUE(db_->Flush().ok());
  EXPECT_EQ(most_runs(), 1) << db_->DebugShape();
  EXPECT_TRUE(impl->TEST_CheckConsistency().ok());
  std::string value;
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(db_->Get({}, k, &value).ok()) << k;
    ASSERT_EQ(value, v) << k;
  }
}

// kOldest ranks a level's files by when they reached it. A move keeps a
// file's number, so ranked by number a file just moved into a level would
// be the next pick there, ahead of files that were there before it; a
// policy that has not seen the level before (a reopen) ranks by number.
TEST(OldestPickerTest, FileMovedInIsNotTheNextPickThere) {
  Options options;
  options.merge_policy = MergePolicy::kLeveling;
  options.file_picker = CompactionFilePicker::kOldest;
  // Levels 1 and 2 hold at most 2 and 4 bytes, so any file overflows them.
  options.write_buffer_size = 1;
  options.level0_compaction_trigger = 1;
  options.size_ratio = 2;
  InternalKeyComparator icmp(BytewiseComparator());
  auto file = [](uint64_t number, const std::string& lo,
                 const std::string& hi) {
    FileMetaPtr f = TestFile(number, lo, hi);
    f->file_size = 100;
    return f;
  };
  const FileMetaPtr moved = file(5, "m", "p");
  const FileMetaPtr a = file(10, "a", "c");
  const FileMetaPtr b = file(11, "e", "g");
  const auto run = TestRun;
  const Version before = TestVersion(
      options.max_levels, {{}, {run(1, {moved})}, {run(2, {a, b})}});
  const Version after =
      TestVersion(options.max_levels, {{}, {}, {run(2, {a, b, moved})}});

  const std::unique_ptr<CompactionPolicy> policy =
      CreateCompactionPolicy(options, &icmp, nullptr);
  ASSERT_TRUE(policy->Pick(before).has_value());
  std::optional<CompactionPick> pick = policy->Pick(after);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->level, 2);
  ASSERT_EQ(pick->inputs.size(), 1u);
  EXPECT_EQ(pick->inputs[0]->number, 10u);

  pick = CreateCompactionPolicy(options, &icmp, nullptr)->Pick(after);
  ASSERT_TRUE(pick.has_value());
  ASSERT_EQ(pick->inputs.size(), 1u);
  EXPECT_EQ(pick->inputs[0]->number, 5u);
}

// Every policy's trees pass CheckConsistency after a load of overwrites
// and deletes and after CompactAll. Debug builds run the check at every
// install too, and refuse an install that fails it.
TEST_F(CompactionShapeTest, EveryPolicyPassesConsistencyCheck) {
  for (const MergePolicy policy :
       {MergePolicy::kLeveling, MergePolicy::kTiering,
        MergePolicy::kLazyLeveling}) {
    SCOPED_TRACE(static_cast<int>(policy));
    std::unique_ptr<Env> base(NewMemEnv());
    Options options = options_;
    options.env = base.get();
    options.merge_policy = policy;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    auto* impl = static_cast<DBImpl*>(db.get());
    Random rnd(7);
    constexpr int kKeys = 4000;
    std::map<std::string, std::string> model;
    for (int n = 0; n < 20000; n++) {
      // Half sequential (moves), half random (merges).
      const int i = n % 2 == 0 ? n / 2 % kKeys
                               : static_cast<int>(rnd.Uniform(kKeys));
      const std::string key = EncodeKey(static_cast<uint64_t>(i));
      if (rnd.OneIn(8)) {
        model.erase(key);
        ASSERT_TRUE(db->Delete({}, key).ok());
      } else {
        model[key] = ValueForKey(key, 20 + n % 40);
        ASSERT_TRUE(db->Put({}, key, model[key]).ok());
      }
    }
    EXPECT_TRUE(impl->TEST_CheckConsistency().ok());
    EXPECT_EQ(Mismatch(db.get(), model, kKeys), "");
    ASSERT_TRUE(db->CompactAll().ok());
    EXPECT_EQ(db->GetStats().total_runs, 1) << db->DebugShape();
    EXPECT_TRUE(impl->TEST_CheckConsistency().ok());
    EXPECT_EQ(Mismatch(db.get(), model, kKeys), "");
  }
}


/// One merging configuration of PresetsBuildTheParentsTrees and the tree
/// it must build.
struct PresetCase {
  const char* name;
  MergePolicy policy;
  int size_ratio;
  CompactionFilePicker picker;
  uint64_t seek_threshold;
  // Expected digest of the tree, compactions and moves.
  uint64_t tree;
  uint64_t compactions;
  uint64_t moves;
};

/// Every run of every level of `v`, one line each: level, run_seq, then
/// each file's number, key bounds (internal keys, hex) and size.
std::string DescribeTree(const Version& v) {
  std::string out;
  auto hex = [](const std::string& s) {
    static const char kDigits[] = "0123456789abcdef";
    std::string h;
    for (unsigned char c : s) {
      h += kDigits[c >> 4];
      h += kDigits[c & 15];
    }
    return h;
  };
  for (int level = 0; level < v.num_levels(); level++) {
    for (const Run& run : v.levels()[level].runs) {
      out += "L" + std::to_string(level) + " r" + std::to_string(run.run_seq);
      for (const FileMetaPtr& f : run.files) {
        out += " " + std::to_string(f->number) + "[" + hex(f->smallest) +
               "," + hex(f->largest) + "]" + std::to_string(f->file_size);
      }
      out += "\n";
    }
  }
  return out;
}

uint64_t TickerFromDump(DB* db, const std::string& name) {
  std::string dump;
  EXPECT_TRUE(db->GetProperty("lsmlab.stats", &dump));
  const std::string field = "ticker." + name + "=";
  const size_t at = dump.find(field);
  EXPECT_NE(at, std::string::npos) << name;
  return at == std::string::npos
             ? 0
             : std::stoull(dump.substr(at + field.size()));
}

// Each merge-policy preset, each file picker and the read trigger build
// the trees pinned here, captured when leveling, tiering and lazy leveling
// were three policy classes: the same runs, file numbers, key bounds and
// sizes after the same number of compactions and moves. Re-captured when
// merges into a run began cutting along it: run numbers moved, and the
// layouts of leveling_T2, leveling_T10 and whole_level. The load is a
// fixed seeded mix of sequential and random puts, deletes and reads,
// compacted inline with every table built on the calling thread. A
// mismatch prints each case's digest line, to paste back after an
// intended change of picks.
TEST_F(CompactionShapeTest, PresetsBuildTheParentsTrees) {
  using P = MergePolicy;
  using F = CompactionFilePicker;
  const PresetCase kCases[] = {
      {"leveling_T2", P::kLeveling, 2, F::kWholeLevel, 0,
       0x14c182f48e54dac1, 133, 15},
      {"leveling_T4", P::kLeveling, 4, F::kWholeLevel, 0,
       0xea3a6b3713ee2b6e, 111, 1},
      {"leveling_T10", P::kLeveling, 10, F::kWholeLevel, 0,
       0xfd22cd32d816b695, 103, 1},
      {"tiering_T2", P::kTiering, 2, F::kWholeLevel, 0,
       0x7456d1c504821c80, 198, 0},
      {"tiering_T4", P::kTiering, 4, F::kWholeLevel, 0,
       0xfdb763bd3d12d206, 133, 0},
      {"tiering_T10", P::kTiering, 10, F::kWholeLevel, 0,
       0xd9ca8492ea167fc7, 112, 0},
      {"lazy_T2", P::kLazyLeveling, 2, F::kWholeLevel, 0,
       0xfda526e124bd556e, 183, 3},
      {"lazy_T4", P::kLazyLeveling, 4, F::kWholeLevel, 0,
       0x1c6119082040b5c8, 124, 1},
      {"lazy_T10", P::kLazyLeveling, 10, F::kWholeLevel, 0,
       0xa1b9f272af952c53, 108, 1},
      {"whole_level", P::kLeveling, 3, F::kWholeLevel, 0,
       0xfe7efa3d4d44c1b9, 118, 5},
      {"round_robin", P::kLeveling, 3, F::kRoundRobin, 0,
       0x98bee023591b890f, 202, 29},
      {"min_overlap", P::kLeveling, 3, F::kMinOverlap, 0,
       0x791bf97ee2aa7206, 222, 32},
      {"cold", P::kLeveling, 3, F::kCold, 0,
       0x17092dd4fbc3d6e6, 168, 2},
      {"oldest", P::kLeveling, 3, F::kOldest, 0,
       0xdb66a3cc26defe45, 177, 10},
      {"seek_trigger", P::kLeveling, 3, F::kWholeLevel, 32,
       0x172d2de7c03093f7, 354, 139},
  };
  std::string digests;
  for (const PresetCase& c : kCases) {
    SCOPED_TRACE(c.name);
    std::unique_ptr<Env> env(NewMemEnv());
    std::unique_ptr<BlockCache> cache;
    Options options = options_;
    options.env = env.get();
    options.merge_policy = c.policy;
    options.size_ratio = c.size_ratio;
    options.file_picker = c.picker;
    options.seek_compaction_threshold = c.seek_threshold;
    // Skiplist towers draw from a per-thread stream that earlier tests
    // advance, and memtable memory sets the flush points; the sorted
    // vector's memory depends on the load alone.
    options.memtable_rep = MemTable::Rep::kSortedVector;
    options.level0_compaction_trigger = 2;
    if (c.seek_threshold > 0) {
      // Without filters every probe that misses is wasted.
      options.filter_allocation = FilterAllocation::kNone;
    }
    if (c.picker == F::kCold) {
      cache = std::make_unique<BlockCache>(64 << 10);
      options.block_cache = cache.get();
    }
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    auto* impl = static_cast<DBImpl*>(db.get());
    impl->TEST_SetSubcompactionHelpers(0);
    Random rnd(2024);
    constexpr int kKeys = 4000;
    std::map<std::string, std::string> model;
    for (int n = 0; n < 16000; n++) {
      // Half sequential (moves), half random (merges).
      const int i = n % 2 == 0 ? n / 2 % kKeys
                               : static_cast<int>(rnd.Uniform(kKeys));
      const std::string key = EncodeKey(static_cast<uint64_t>(i));
      if (rnd.OneIn(8)) {
        model.erase(key);
        ASSERT_TRUE(db->Delete({}, key).ok());
      } else {
        model[key] = ValueForKey(key, 20 + n % 40);
        ASSERT_TRUE(db->Put({}, key, model[key]).ok());
      }
      if (n % 3 == 0) {
        // Reads feed the read trigger and the cold picker's heat.
        const std::string probe = EncodeKey(rnd.Uniform(kKeys));
        std::string value;
        ASSERT_EQ(db->Get({}, probe, &value).ok(), model.count(probe) == 1);
      }
    }
    EXPECT_EQ(Mismatch(db.get(), model, kKeys), "");
    const std::string tree = DescribeTree(*impl->TEST_CurrentVersion());
    const uint64_t hash = Hash64(Slice(tree));
    const uint64_t compactions = db->GetStats().compactions;
    const uint64_t moves = TickerFromDump(db.get(), "compaction.moves");
    EXPECT_GT(compactions, moves);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "{\"%s\", ..., 0x%016llx, %llu, %llu},\n", c.name,
                  static_cast<unsigned long long>(hash),
                  static_cast<unsigned long long>(compactions),
                  static_cast<unsigned long long>(moves));
    digests += line;
    EXPECT_EQ(hash, c.tree) << tree;
    EXPECT_EQ(compactions, c.compactions);
    EXPECT_EQ(moves, c.moves);
  }
  if (HasFailure()) {
    std::printf("%s", digests.c_str());
  }
}

// ------------------------------------------------------- Compaction job --

/// The user key of `i`: fixed width, so byte order is numeric order.
std::string JobKey(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

/// A hand-built run of `files` files of `bytes` bytes each, keys
/// [first + 10 i, first + 10 i + 9] for file i, numbered from `number`.
std::vector<FileMetaPtr> HandRun(int first, int files, uint64_t bytes,
                                 uint64_t number) {
  std::vector<FileMetaPtr> run;
  for (int i = 0; i < files; i++) {
    auto f = std::make_shared<FileMetaData>();
    f->number = number + i;
    f->file_size = bytes;
    AppendInternalKey(&f->smallest, JobKey(first + 10 * i), 9,
                      ValueType::kTypeValue);
    AppendInternalKey(&f->largest, JobKey(first + 10 * i + 9), 9,
                      ValueType::kTypeValue);
    run.push_back(std::move(f));
  }
  return run;
}

/// SubcompactionCuts of `runs`, joining runs[*along], as user keys with a
/// '*' after each an install may end at. A subrange is 4000 bytes.
std::vector<std::string> Cuts(const std::vector<std::vector<FileMetaPtr>>& runs,
                              std::optional<size_t> along) {
  const std::vector<std::span<const FileMetaPtr>> views(runs.begin(),
                                                        runs.end());
  std::vector<std::string> names;
  for (const auto& [key, ends_install] :
       SubcompactionCuts(*BytewiseComparator(), views, along, 1000)) {
    names.push_back(key + (ends_install ? "*" : ""));
  }
  return names;
}

// The cut rule on FileMetaData alone: one subrange per 4 x max_file_size
// of input, cut at smallest user keys of the largest run's files, spaced
// by its bytes, and of the joined run's, and only the joined run's cuts
// may end an install. The rule takes no helper count: the job's threads
// never change where a merge is cut.
TEST(SubcompactionCutTest, CutsFollowTheLargestAndTheJoinedRun) {
  // A merge into a run larger than its source: the joined run is the
  // largest, so its cuts are all there is, and each may end an install.
  // 16000 bytes make four subranges, cut after 3000, 6000 and 9000 bytes
  // of the joined run: at its files 3, 6 and 9.
  const std::vector<std::string> joined_cuts = {
      JobKey(30) + "*", JobKey(60) + "*", JobKey(90) + "*"};
  EXPECT_EQ(Cuts({HandRun(0, 4, 1000, 100), HandRun(0, 12, 1000, 200)}, 1),
            joined_cuts);
  // A merge into a fresh run joins nothing: the largest run's cuts may
  // all end an install. Two level-0 runs, the larger of 12 files.
  EXPECT_EQ(Cuts({HandRun(5, 4, 1000, 300), HandRun(0, 12, 1000, 400)},
                 std::nullopt),
            joined_cuts);
  // Below two subranges of input no cut is made: 7000 bytes are one
  // subrange.
  EXPECT_TRUE(
      Cuts({HandRun(0, 4, 1000, 100), HandRun(0, 3, 1000, 200)}, 1).empty());
  // 8000 bytes are two: one cut, on the larger (joined) run.
  EXPECT_EQ(Cuts({HandRun(0, 4, 999, 100), HandRun(0, 4, 1001, 200)}, 1),
            (std::vector<std::string>{JobKey(20) + "*"}));
}

// Today's rule for a merge into a run smaller than its largest input: the
// largest run's cuts and the joined run's, so up to twice the subranges,
// each ending its own short last file (ROADMAP item 2 will change this).
// Only the joined run's cuts may end an install.
TEST(SubcompactionCutTest, CutsDoubleForAMergeIntoASmallerRun) {
  // 16000 bytes, four subranges: the 12-file source run is cut at its
  // files 3, 6 and 9, the 4-file joined run at each of its files 1-3.
  EXPECT_EQ(Cuts({HandRun(0, 12, 1000, 100), HandRun(3, 4, 1000, 200)}, 1),
            (std::vector<std::string>{JobKey(13) + "*", JobKey(23) + "*",
                                      JobKey(30), JobKey(33) + "*",
                                      JobKey(60), JobKey(90)}));
}

/// One compaction job over real tables on MemEnv: a level-0 run merged
/// into a level-1 run it joins, through a VersionSet the fake install hook
/// applies each edit to. The hook records the tree after each install and
/// fails the install numbered `fail_at` (1-based; 0 = none).
class CompactionJobTest : public ::testing::Test {
 protected:
  /// The file numbers and key bounds of one level-1 file.
  struct Output {
    uint64_t number;
    std::string smallest;
    std::string largest;
    bool operator==(const Output&) const = default;
  };
  /// The tree after one install: the level-1 run's files in key order,
  /// and the level-0 files.
  struct Installed {
    std::vector<Output> l1;
    std::set<uint64_t> l0;
  };
  struct Result {
    Status status;
    std::vector<Installed> installs;
    std::vector<FileMetaData> installed;  // CompactionJob::installed()
    std::vector<SubcompactionCut> cuts;
    std::set<uint64_t> l0_inputs;
    std::set<uint64_t> l1_inputs;
    uint64_t run_seq = 0;
  };

  void SetUp() override { options_.max_file_size = 4 << 10; }

  /// Tables at `level` holding every `step`-th key of [0, n) at sequence
  /// `seq`, installed as one run.
  static void AddRun(VersionSet* versions, TableCache* tables, int level,
                     int n, int step, SequenceNumber seq) {
    MemTable* mem = new MemTable(tables->icmp());
    mem->Ref();
    for (int i = 0; i < n; i += step) {
      mem->Add(seq, ValueType::kTypeValue, JobKey(i),
               std::string(100, static_cast<char>('a' + level)));
    }
    std::unique_ptr<Iterator> iter(mem->NewIterator());
    std::vector<FileMetaData> outputs;
    uint64_t bytes = 0;
    ASSERT_TRUE(BuildTables(tables, versions, iter.get(), level, false,
                            false, kMaxSequenceNumber, &outputs, &bytes)
                    .ok());
    iter.reset();
    mem->Unref();
    VersionEdit edit;
    const uint64_t run_seq = versions->NewRunSeq();
    for (const FileMetaData& meta : outputs) {
      edit.AddFile(level, run_seq, meta);
    }
    ASSERT_TRUE(versions->LogAndApply(&edit).ok());
  }

  Result RunJob(int helpers, int fail_at) {
    Result result;
    std::unique_ptr<Env> env(NewMemEnv());
    Options options = options_;
    options.env = env.get();
    const InternalKeyComparator icmp(options.comparator);
    std::unique_ptr<CompactionPolicy> policy =
        CreateCompactionPolicy(options, &icmp, nullptr);
    StatsRegistry stats;
    TableCache tables("/db", &options, &icmp, &stats);
    VersionSet versions("/db", &options, &tables, &icmp, policy.get());
    EXPECT_TRUE(versions.Recover().ok());
    // Level 1 holds every key of [0, 4000); level 0 every third, newer.
    AddRun(&versions, &tables, 1, 4000, 1, 1);
    AddRun(&versions, &tables, 0, 4000, 3, 2);
    const VersionPtr base = versions.current();
    CompactionPick pick;
    pick.level = 0;
    pick.output_level = 1;
    pick.inputs = base->levels()[0].runs[0].files;
    pick.output_overlaps = base->levels()[1].runs[0].files;
    pick.output_run_seq = base->levels()[1].runs[0].run_seq;
    result.run_seq = pick.output_run_seq;
    for (const FileMetaPtr& f : pick.inputs) {
      result.l0_inputs.insert(f->number);
    }
    for (const FileMetaPtr& f : pick.output_overlaps) {
      result.l1_inputs.insert(f->number);
    }
    result.cuts = SubcompactionCuts(
        *icmp.user_comparator(),
        {std::span<const FileMetaPtr>(pick.inputs),
         std::span<const FileMetaPtr>(pick.output_overlaps)},
        /*along=*/1, options.max_file_size);
    int calls = 0;
    {
      CompactionJob job(
          std::move(pick), *base, &tables, &versions,
          /*smallest_snapshot=*/2, result.run_seq, helpers,
          [&](VersionEdit* edit) {
            if (++calls == fail_at) {
              return Status::IOError("install failed");
            }
            Status s = versions.LogAndApply(edit);
            Installed tree;
            const Version& v = *versions.current();
            if (v.levels()[1].runs.size() != 1) {
              ADD_FAILURE() << "level 1 holds " << v.levels()[1].runs.size()
                            << " runs";
              return s;
            }
            EXPECT_EQ(v.levels()[1].runs[0].run_seq, result.run_seq);
            for (const FileMetaPtr& f : v.levels()[1].runs[0].files) {
              tree.l1.push_back({f->number, f->smallest, f->largest});
            }
            for (const lsmlab::Run& run : v.levels()[0].runs) {
              for (const FileMetaPtr& f : run.files) {
                tree.l0.insert(f->number);
              }
            }
            result.installs.push_back(std::move(tree));
            return s;
          });
      EXPECT_FALSE(job.move());
      result.status = job.Run();
      result.installed = job.installed();
    }
    return result;
  }

  Options options_;
};

/// The user key of an internal key.
std::string UserKeyOf(const std::string& internal_key) {
  return ExtractUserKey(Slice(internal_key)).ToString();
}

// The install order of a merge into the run it joins: each install adds
// the next outputs in key order to that run and removes the output-level
// inputs wholly below its end, a cut along the joined run; source-level
// inputs stay until the final install, which removes every input left.
// With 0 and 3 helpers the installs together add the same files and
// remove the same inputs; where the installs end may differ with timing.
TEST_F(CompactionJobTest, InstallsRemoveOnlyInputsBelowTheirEnd) {
  std::vector<Output> added_by[2];
  for (const int helpers : {0, 3}) {
    SCOPED_TRACE("helpers " + std::to_string(helpers));
    const Result r = RunJob(helpers, /*fail_at=*/0);
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_GE(r.cuts.size(), 3u);
    ASSERT_GT(r.l1_inputs.size(), 4u);
    ASSERT_GE(r.installs.size(), 2u);
    std::set<uint64_t> removed;
    std::vector<Output> added;
    std::string installed_end;  // every output so far lies below it
    for (size_t i = 0; i < r.installs.size(); i++) {
      SCOPED_TRACE("install " + std::to_string(i));
      const Installed& tree = r.installs[i];
      const bool final = i + 1 == r.installs.size();
      // The run: the outputs installed so far, then the inputs it keeps.
      std::vector<Output> outputs;
      std::vector<Output> kept;
      for (const Output& f : tree.l1) {
        (r.l1_inputs.count(f.number) > 0 ? kept : outputs).push_back(f);
      }
      ASSERT_GT(outputs.size(), added.size());
      EXPECT_TRUE(std::equal(added.begin(), added.end(), outputs.begin()));
      // The new outputs follow the earlier ones in key order.
      for (size_t j = added.size(); j < outputs.size(); j++) {
        EXPECT_GT(UserKeyOf(outputs[j].smallest), installed_end);
        installed_end = UserKeyOf(outputs[j].largest);
      }
      added = outputs;
      if (final) {
        EXPECT_TRUE(kept.empty());
        EXPECT_TRUE(tree.l0.empty());
        break;
      }
      // A non-final install ends at the first joined-run cut past its
      // outputs; it removed exactly the inputs wholly below that cut.
      auto end = std::find_if(r.cuts.begin(), r.cuts.end(),
                              [&](const SubcompactionCut& c) {
                                return c.first > installed_end;
                              });
      ASSERT_NE(end, r.cuts.end());
      EXPECT_TRUE(end->second) << end->first;
      EXPECT_EQ(tree.l0, r.l0_inputs);  // the source level stays whole
      for (const uint64_t number : r.l1_inputs) {
        const bool gone = std::none_of(
            kept.begin(), kept.end(),
            [number](const Output& f) { return f.number == number; });
        if (gone) {
          removed.insert(number);
        }
      }
      for (const Output& f : kept) {
        EXPECT_GE(UserKeyOf(f.smallest), end->first) << f.number;
      }
      for (const uint64_t number : removed) {
        const auto was = std::find_if(
            r.installs[0].l1.begin(), r.installs[0].l1.end(),
            [number](const Output& f) { return f.number == number; });
        if (was != r.installs[0].l1.end()) {
          EXPECT_LT(UserKeyOf(was->largest), end->first) << number;
        }
      }
    }
    ASSERT_EQ(r.installed.size(), added.size());
    for (size_t j = 0; j < added.size(); j++) {
      EXPECT_EQ(r.installed[j].number, added[j].number);
    }
    added_by[helpers == 0 ? 0 : 1] = added;
  }
  EXPECT_EQ(added_by[0], added_by[1]);
}

// A hook that fails the second install stops the job: the first install
// stays in the tree, no later install is tried, and the job returns the
// hook's status.
TEST_F(CompactionJobTest, FailingInstallHookStopsTheJob) {
  for (const int helpers : {0, 3}) {
    SCOPED_TRACE("helpers " + std::to_string(helpers));
    const Result r = RunJob(helpers, /*fail_at=*/2);
    EXPECT_TRUE(r.status.IsIOError()) << r.status.ToString();
    EXPECT_EQ(r.status.ToString(), "IOError: install failed");
    ASSERT_EQ(r.installs.size(), 1u);  // only the one that succeeded
    // The first install's outputs stay installed; installed() lists them.
    const Installed& tree = r.installs[0];
    size_t outputs = 0;
    for (const Output& f : tree.l1) {
      outputs += r.l1_inputs.count(f.number) == 0 ? 1 : 0;
    }
    EXPECT_GT(outputs, 0u);
    EXPECT_EQ(r.installed.size(), outputs);
    EXPECT_EQ(tree.l0, r.l0_inputs);
  }
}

}  // namespace
}  // namespace lsmlab
