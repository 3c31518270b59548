#include "core/db.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "cache/block_cache.h"
#include "filter/filter_policy.h"
#include "rangefilter/range_filter.h"
#include "storage/env.h"
#include "util/random.h"
#include "workload/keygen.h"

namespace lsmlab {
namespace {

std::string Key(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%012llu",
                static_cast<unsigned long long>(i));
  return buf;
}

class DBTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_.reset(NewMemEnv());
    options_.env = env_.get();
    options_.write_buffer_size = 16 << 10;
    options_.max_file_size = 16 << 10;
  }

  void Open() {
    ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  }

  void Reopen() {
    db_.reset();
    Open();
  }

  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(DBTest, PutGet) {
  Open();
  ASSERT_TRUE(db_->Put({}, "hello", "world").ok());
  std::string value;
  ASSERT_TRUE(db_->Get({}, "hello", &value).ok());
  EXPECT_EQ(value, "world");
  EXPECT_TRUE(db_->Get({}, "missing", &value).IsNotFound());
}

TEST_F(DBTest, OverwriteReturnsLatest) {
  Open();
  ASSERT_TRUE(db_->Put({}, "k", "v1").ok());
  ASSERT_TRUE(db_->Put({}, "k", "v2").ok());
  std::string value;
  ASSERT_TRUE(db_->Get({}, "k", &value).ok());
  EXPECT_EQ(value, "v2");
}

TEST_F(DBTest, DeleteHidesKey) {
  Open();
  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  ASSERT_TRUE(db_->Delete({}, "k").ok());
  std::string value;
  EXPECT_TRUE(db_->Get({}, "k", &value).IsNotFound());
}

TEST_F(DBTest, GetAcrossFlush) {
  Open();
  ASSERT_TRUE(db_->Put({}, "a", "1").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Put({}, "b", "2").ok());
  std::string value;
  ASSERT_TRUE(db_->Get({}, "a", &value).ok());
  EXPECT_EQ(value, "1");
  ASSERT_TRUE(db_->Get({}, "b", &value).ok());
  EXPECT_EQ(value, "2");
}

TEST_F(DBTest, OverwriteAcrossFlushes) {
  Open();
  ASSERT_TRUE(db_->Put({}, "k", "old").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Put({}, "k", "new").ok());
  ASSERT_TRUE(db_->Flush().ok());
  std::string value;
  ASSERT_TRUE(db_->Get({}, "k", &value).ok());
  EXPECT_EQ(value, "new");
}

TEST_F(DBTest, DeleteAcrossFlush) {
  Open();
  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Delete({}, "k").ok());
  ASSERT_TRUE(db_->Flush().ok());
  std::string value;
  EXPECT_TRUE(db_->Get({}, "k", &value).IsNotFound());
}

TEST_F(DBTest, ManyKeysThroughCompactions) {
  Open();
  const int n = 5000;
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), "value" + std::to_string(i)).ok());
  }
  std::string value;
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(db_->Get({}, Key(i), &value).ok()) << "missing " << Key(i);
    EXPECT_EQ(value, "value" + std::to_string(i));
  }
  DBStats stats = db_->GetStats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_GT(stats.flushes, 0u);
}

TEST_F(DBTest, IteratorSeesAllLiveKeys) {
  Open();
  const int n = 1000;
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), std::to_string(i)).ok());
  }
  // Delete every third key.
  for (int i = 0; i < n; i += 3) {
    ASSERT_TRUE(db_->Delete({}, Key(i)).ok());
  }
  std::unique_ptr<Iterator> it(db_->NewIterator({}));
  int count = 0;
  int expect = 1;  // first non-deleted
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_EQ(it->key().ToString(), Key(expect));
    EXPECT_EQ(it->value().ToString(), std::to_string(expect));
    count++;
    expect += (expect % 3 == 2) ? 2 : 1;  // skip multiples of 3
  }
  EXPECT_TRUE(it->status().ok());
  EXPECT_EQ(count, n - (n + 2) / 3);
}

TEST_F(DBTest, IteratorBackward) {
  Open();
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), std::to_string(i)).ok());
  }
  std::unique_ptr<Iterator> it(db_->NewIterator({}));
  int expect = 99;
  for (it->SeekToLast(); it->Valid(); it->Prev()) {
    EXPECT_EQ(it->key().ToString(), Key(expect));
    expect--;
  }
  EXPECT_EQ(expect, -1);
}

TEST_F(DBTest, IteratorMixedDirections) {
  Open();
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), std::to_string(i)).ok());
  }
  std::unique_ptr<Iterator> it(db_->NewIterator({}));
  it->Seek(Key(5));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), Key(5));
  it->Prev();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), Key(4));
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), Key(5));
}

TEST_F(DBTest, ScanRange) {
  Open();
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), std::to_string(i)).ok());
  }
  std::vector<std::pair<std::string, std::string>> results;
  ASSERT_TRUE(db_->Scan({}, Key(100), Key(109), 1000, &results).ok());
  ASSERT_EQ(results.size(), 10u);
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(results[i].first, Key(100 + i));
  }
}

TEST_F(DBTest, ScanHonorsLimit) {
  Open();
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), "v").ok());
  }
  std::vector<std::pair<std::string, std::string>> results;
  ASSERT_TRUE(db_->Scan({}, Key(0), Key(99), 7, &results).ok());
  EXPECT_EQ(results.size(), 7u);
}

TEST_F(DBTest, SnapshotIsolation) {
  Open();
  ASSERT_TRUE(db_->Put({}, "k", "v1").ok());
  const Snapshot* snap = db_->GetSnapshot();
  ASSERT_TRUE(db_->Put({}, "k", "v2").ok());
  ASSERT_TRUE(db_->Delete({}, "other").ok());

  ReadOptions ropts;
  ropts.snapshot = snap;
  std::string value;
  ASSERT_TRUE(db_->Get(ropts, "k", &value).ok());
  EXPECT_EQ(value, "v1");
  ASSERT_TRUE(db_->Get({}, "k", &value).ok());
  EXPECT_EQ(value, "v2");
  db_->ReleaseSnapshot(snap);
}

TEST_F(DBTest, SnapshotSurvivesFlushAndCompaction) {
  Open();
  ASSERT_TRUE(db_->Put({}, "k", "v1").ok());
  const Snapshot* snap = db_->GetSnapshot();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), "x").ok());
  }
  ASSERT_TRUE(db_->Put({}, "k", "v2").ok());
  ASSERT_TRUE(db_->CompactAll().ok());

  ReadOptions ropts;
  ropts.snapshot = snap;
  std::string value;
  ASSERT_TRUE(db_->Get(ropts, "k", &value).ok());
  EXPECT_EQ(value, "v1");
  db_->ReleaseSnapshot(snap);
}

TEST_F(DBTest, RecoverFromWal) {
  Open();
  ASSERT_TRUE(db_->Put({}, "persist", "me").ok());
  Reopen();
  std::string value;
  ASSERT_TRUE(db_->Get({}, "persist", &value).ok());
  EXPECT_EQ(value, "me");
}

TEST_F(DBTest, RecoverAfterFlushesAndCompactions) {
  Open();
  const int n = 3000;
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), std::to_string(i * 7)).ok());
  }
  Reopen();
  std::string value;
  for (int i = 0; i < n; i += 37) {
    ASSERT_TRUE(db_->Get({}, Key(i), &value).ok()) << Key(i);
    EXPECT_EQ(value, std::to_string(i * 7));
  }
}

TEST_F(DBTest, WriteBatchAtomicity) {
  Open();
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  ASSERT_TRUE(db_->Write({}, &batch).ok());
  std::string value;
  EXPECT_TRUE(db_->Get({}, "a", &value).IsNotFound());
  ASSERT_TRUE(db_->Get({}, "b", &value).ok());
  EXPECT_EQ(value, "2");
}

TEST_F(DBTest, EmptyDBIterator) {
  Open();
  std::unique_ptr<Iterator> it(db_->NewIterator({}));
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  it->SeekToLast();
  EXPECT_FALSE(it->Valid());
}

TEST_F(DBTest, StatsTrackReads) {
  Open();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), "v").ok());
  }
  std::string value;
  for (int i = 0; i < 100; i++) {
    db_->Get({}, Key(i), &value).IgnoreError();
  }
  DBStats stats = db_->GetStats();
  EXPECT_EQ(stats.gets, 100u);
  EXPECT_EQ(stats.gets_found, 100u);
}

TEST_F(DBTest, ZeroResultLookupsUseFilters) {
  options_.filter_bits_per_key = 10;
  Open();
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), "v").ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string value;
  for (int i = 0; i < 500; i++) {
    // In-range but absent keys: fence pruning cannot reject them, so the
    // skip must come from the Bloom filter.
    EXPECT_TRUE(db_->Get({}, Key(i) + "x", &value).IsNotFound());
  }
  DBStats stats = db_->GetStats();
  // With 10 bits/key nearly every run probe should be filtered.
  EXPECT_GT(stats.filter_skips, 0u);
}

// --- Design-space configurations exercised through the same API ----------

class DBShapeTest : public DBTest,
                    public ::testing::WithParamInterface<MergePolicy> {};

TEST_P(DBShapeTest, ReadYourWrites) {
  options_.merge_policy = GetParam();
  options_.size_ratio = 3;
  Open();
  const int n = 4000;
  Random rng(7);
  std::map<std::string, std::string> model;
  for (int i = 0; i < n; i++) {
    const std::string k = Key(rng.Uniform(700));
    if (rng.OneIn(10)) {
      model.erase(k);
      ASSERT_TRUE(db_->Delete({}, k).ok());
    } else {
      const std::string v = "v" + std::to_string(i);
      model[k] = v;
      ASSERT_TRUE(db_->Put({}, k, v).ok());
    }
  }
  // Validate against the model both by Get and by full iteration.
  std::string value;
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(db_->Get({}, k, &value).ok()) << k;
    EXPECT_EQ(value, v);
  }
  std::unique_ptr<Iterator> it(db_->NewIterator({}));
  auto mit = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++mit) {
    ASSERT_NE(mit, model.end());
    EXPECT_EQ(it->key().ToString(), mit->first);
    EXPECT_EQ(it->value().ToString(), mit->second);
  }
  EXPECT_EQ(mit, model.end());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, DBShapeTest,
                         ::testing::Values(MergePolicy::kLeveling,
                                           MergePolicy::kTiering,
                                           MergePolicy::kLazyLeveling));

TEST_F(DBTest, FifoDropsOldData) {
  options_.merge_policy = MergePolicy::kFifo;
  options_.fifo_size_budget = 64 << 10;
  Open();
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), "0123456789abcdef").ok());
  }
  DBStats stats = db_->GetStats();
  EXPECT_LE(stats.total_bytes, (64u << 10) + (32u << 10));
  // Newest keys survive, oldest are gone.
  std::string value;
  EXPECT_TRUE(db_->Get({}, Key(19999), &value).ok());
  EXPECT_TRUE(db_->Get({}, Key(0), &value).IsNotFound());
}

TEST_F(DBTest, BlockCacheServesRepeatReads) {
  BlockCache cache(1 << 20);
  options_.block_cache = &cache;
  Open();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), "v").ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string value;
  ASSERT_TRUE(db_->Get({}, Key(42), &value).ok());
  const auto before = cache.GetStats();
  ASSERT_TRUE(db_->Get({}, Key(42), &value).ok());
  const auto after = cache.GetStats();
  EXPECT_GT(after.hits, before.hits);
}

TEST_F(DBTest, MonkeyAllocationWorks) {
  options_.filter_allocation = FilterAllocation::kMonkey;
  Open();
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), "v").ok());
  }
  std::string value;
  for (int i = 0; i < 3000; i += 17) {
    ASSERT_TRUE(db_->Get({}, Key(i), &value).ok());
  }
}

std::atomic<int> filter_policies_made{0};

const FilterPolicy* CountingBloomPolicy(double bits_per_key) {
  filter_policies_made++;
  return NewBloomFilterPolicy(bits_per_key);
}

// Monkey re-derives its per-level bits on every flush and compaction, but
// they change only with the tree's depth. The table cache keeps every
// policy it makes, so it makes new ones only when the bits change.
TEST_F(DBTest, MonkeyMakesFilterPoliciesOnlyWhenItsBitsChange) {
  options_.filter_allocation = FilterAllocation::kMonkey;
  options_.filter_factory = &CountingBloomPolicy;
  filter_policies_made = 0;
  Open();
  const int at_open = filter_policies_made;
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), std::string(20, 'v')).ok());
  }
  const DBStats stats = db_->GetStats();
  int depth = 0;
  for (size_t level = 0; level < stats.runs_per_level.size(); level++) {
    depth = stats.runs_per_level[level] > 0 ? static_cast<int>(level) + 1
                                            : depth;
  }
  ASSERT_GT(stats.flushes + stats.compactions,
            static_cast<uint64_t>(depth) + 2);
  EXPECT_LE(filter_policies_made - at_open, depth * options_.max_levels);
}

TEST_F(DBTest, RangeFilterSkipsEmptyRanges) {
  std::unique_ptr<const RangeFilterPolicy> rf(NewSurfRangeFilter(8));
  options_.range_filter_policy = rf.get();
  Open();
  // Two key clusters with a wide gap.
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db_->Put({}, "a" + Key(i), "v").ok());
    ASSERT_TRUE(db_->Put({}, "z" + Key(i), "v").ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  std::vector<std::pair<std::string, std::string>> results;
  ASSERT_TRUE(db_->Scan({}, "m0", "m9", 100, &results).ok());
  EXPECT_TRUE(results.empty());
  DBStats stats = db_->GetStats();
  EXPECT_GT(stats.range_filter_skips, 0u);
  // And a real range still returns data.
  ASSERT_TRUE(db_->Scan({}, "a" + Key(0), "a" + Key(9), 100, &results).ok());
  EXPECT_EQ(results.size(), 10u);
}

// A scan opens tables lazily, as its walk reaches them: right after a
// reopen, a short scan over the whole key range opens only the first file
// of each run, not every file that overlaps the range.
TEST_F(DBTest, WideScanOpensOnlyTablesItReads) {
  Open();
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), std::string(100, 'v')).ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  Reopen();  // every table cold
  const DBStats shape = db_->GetStats();
  ASSERT_GE(shape.total_files, 20u);
  const uint64_t before = env_->io_stats()->random_reads.load();
  std::vector<std::pair<std::string, std::string>> results;
  ASSERT_TRUE(db_->Scan({}, Key(0), Key(3999), 10, &results).ok());
  const uint64_t reads = env_->io_stats()->random_reads.load() - before;
  ASSERT_EQ(results.size(), 10u);
  EXPECT_EQ(results[9].first, Key(9));
  // Each run's walk reaches one table: its open (footer, index, metaindex,
  // properties and filter blocks) plus one data block.
  EXPECT_LE(reads, 6 * shape.total_runs)
      << reads << " reads over " << shape.total_runs << " runs, "
      << shape.total_files << " files";
}

TEST_F(DBTest, PartitionedFiltersSkipRuns) {
  options_.partition_filters = true;
  options_.filter_bits_per_key = 10;
  BlockCache cache(1 << 20);
  options_.block_cache = &cache;
  Open();
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string value;
  for (int i = 0; i < 3000; i += 11) {
    ASSERT_TRUE(db_->Get({}, Key(i), &value).ok()) << Key(i);
    EXPECT_EQ(value, std::to_string(i));
  }
  for (int i = 0; i < 500; i++) {
    EXPECT_TRUE(db_->Get({}, Key(i) + "x", &value).IsNotFound());
  }
  DBStats stats = db_->GetStats();
  EXPECT_GT(stats.filter_skips, 300u);
}

TEST_F(DBTest, HashIndexGetPath) {
  options_.block_hash_index = true;
  Open();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string value;
  for (int i = 0; i < 2000; i += 13) {
    ASSERT_TRUE(db_->Get({}, Key(i), &value).ok());
    EXPECT_EQ(value, std::to_string(i));
  }
  DBStats stats = db_->GetStats();
  EXPECT_GT(stats.hash_index_hits + stats.hash_index_absent, 0u);
}

TEST_F(DBTest, LearnedIndexGetPath) {
  options_.index_type = TableOptions::IndexType::kLearnedPlr;
  Open();
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  std::string value;
  for (int i = 0; i < 3000; i += 7) {
    ASSERT_TRUE(db_->Get({}, Key(i), &value).ok()) << Key(i);
    EXPECT_EQ(value, std::to_string(i));
  }
}

TEST_F(DBTest, PacedCompactionStaysCorrect) {
  options_.max_compactions_per_write = 1;
  options_.file_picker = CompactionFilePicker::kMinOverlap;
  Open();
  const int n = 4000;
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i % 800), std::to_string(i)).ok());
  }
  std::string value;
  for (int i = n - 800; i < n; i++) {
    ASSERT_TRUE(db_->Get({}, Key(i % 800), &value).ok());
    EXPECT_EQ(value, std::to_string(i));
  }
  // Draining compactions afterwards restores the tight shape.
  ASSERT_TRUE(db_->CompactAll().ok());
  EXPECT_EQ(db_->GetStats().total_runs, 1);
}

TEST_F(DBTest, GetWithoutFiltersStillCorrect) {
  options_.filter_bits_per_key = 10;
  Open();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->CompactAll().ok());
  ReadOptions no_filter;
  no_filter.use_filter = false;
  std::string value;
  for (int i = 0; i < 2000; i += 31) {
    ASSERT_TRUE(db_->Get(no_filter, Key(i), &value).ok());
    EXPECT_EQ(value, std::to_string(i));
  }
  EXPECT_TRUE(db_->Get(no_filter, Key(1) + "x", &value).IsNotFound());
  DBStats stats = db_->GetStats();
  EXPECT_EQ(stats.filter_skips, 0u);
}

TEST_F(DBTest, SeekCompactionMergesHotlyMissedFiles) {
  options_.filter_allocation = FilterAllocation::kNone;
  options_.seek_compaction_threshold = 50;
  options_.level0_compaction_trigger = 100;  // size triggers out of the way
  Open();
  // Two overlapping level-0 runs: every absent-key probe pays for both.
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i * 2), "a").ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i * 2 + 1), "b").ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_EQ(db_->GetStats().runs_per_level[0], 2);

  // A storm of zero-result lookups inside the key range.
  std::string value;
  for (int i = 0; i < 100; i++) {
    EXPECT_TRUE(db_->Get({}, Key(i * 4) + "x", &value).IsNotFound());
  }
  // The next write gives the policy a chance to act on the signal.
  ASSERT_TRUE(db_->Put({}, "trigger", "t").ok());

  DBStats stats = db_->GetStats();
  EXPECT_EQ(stats.runs_per_level[0], 0) << db_->DebugShape();
  // And the same lookups now cost half the probes.
  DBStats before = db_->GetStats();
  for (int i = 0; i < 100; i++) {
    EXPECT_TRUE(db_->Get({}, Key(i * 4) + "x", &value).IsNotFound());
  }
  DBStats after = db_->GetStats();
  EXPECT_LE(after.runs_probed - before.runs_probed, 100u);
}

TEST_F(DBTest, SeekCompactionDisabledByDefault) {
  options_.filter_allocation = FilterAllocation::kNone;
  options_.level0_compaction_trigger = 100;
  Open();
  for (int round = 0; round < 2; round++) {
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(db_->Put({}, Key(i * 2 + round), "v").ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  }
  std::string value;
  for (int i = 0; i < 500; i++) {
    db_->Get({}, Key(i * 4) + "x", &value).IgnoreError();
  }
  ASSERT_TRUE(db_->Put({}, "trigger", "t").ok());
  EXPECT_EQ(db_->GetStats().runs_per_level[0], 2);  // shape untouched
}

TEST_F(DBTest, DestroyRemovesEverything) {
  Open();
  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  db_.reset();
  ASSERT_TRUE(DestroyDB(options_, "/db").ok());
  options_.create_if_missing = false;
  std::unique_ptr<DB> db2;
  EXPECT_FALSE(DB::Open(options_, "/db", &db2).ok());
}

// ------------------------------------------------------ Options pinned --
// Each option below is set by no other test; these pin what it changes.

// enable_wal = false: no log file is ever written, so only flushed data
// outlives the session; a sync write still succeeds.
TEST_F(DBTest, WalDisabledKeepsOnlyFlushedData) {
  options_.enable_wal = false;
  Open();
  WriteOptions sync;
  sync.sync = true;
  ASSERT_TRUE(db_->Put(sync, "flushed", "v1").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Put(sync, "unflushed", "v2").ok());
  std::string value;
  ASSERT_TRUE(db_->Get({}, "unflushed", &value).ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("/db", &children).ok());
  for (const std::string& child : children) {
    EXPECT_EQ(child.find(".wal"), std::string::npos) << child;
  }
  EXPECT_EQ(db_->GetStats().wal_syncs, 0u);
  Reopen();
  ASSERT_TRUE(db_->Get({}, "flushed", &value).ok());
  EXPECT_EQ(value, "v1");
  EXPECT_TRUE(db_->Get({}, "unflushed", &value).IsNotFound());
}

// max_levels bounds the tree's depth: a load that would fill five levels
// at size ratio 2 stops at three, and its last level holds the data.
TEST_F(DBTest, MaxLevelsBoundsTheTreeDepth) {
  options_.max_levels = 3;
  options_.size_ratio = 2;
  options_.write_buffer_size = 4 << 10;
  options_.max_file_size = 4 << 10;
  options_.level0_compaction_trigger = 2;
  Open();
  for (int i = 0; i < 6000; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), std::to_string(i)).ok());
  }
  const DBStats stats = db_->GetStats();
  EXPECT_EQ(stats.num_levels, 3);
  ASSERT_EQ(stats.bytes_per_level.size(), 3u);
  EXPECT_GT(stats.bytes_per_level[2], stats.bytes_per_level[1])
      << db_->DebugShape();
  std::string value;
  for (int i = 0; i < 6000; i += 97) {
    ASSERT_TRUE(db_->Get({}, Key(i), &value).ok()) << i;
    EXPECT_EQ(value, std::to_string(i));
  }
}

// hash_index_util_ratio sizes each data block's hash index: entries /
// ratio buckets, so a lower ratio writes larger tables.
TEST_F(DBTest, HashIndexUtilRatioSizesTheBlockHashIndex) {
  uint64_t bytes[2] = {0, 0};
  for (const int sparse : {0, 1}) {
    env_.reset(NewMemEnv());
    options_.env = env_.get();
    options_.block_hash_index = true;
    options_.hash_index_util_ratio = sparse ? 0.25 : 1.0;
    Open();
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(db_->Put({}, Key(i), std::to_string(i)).ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
    std::string value;
    ASSERT_TRUE(db_->Get({}, Key(1234), &value).ok());
    bytes[sparse] = db_->GetStats().total_bytes;
    db_.reset();
  }
  EXPECT_GT(bytes[1], bytes[0]);
}

// learned_index_epsilon bounds the learned fence model's error: a tighter
// bound needs more segments over keys spaced unevenly, so more index
// memory.
TEST_F(DBTest, LearnedIndexEpsilonSizesTheModel) {
  size_t memory[2] = {0, 0};
  for (const int loose : {0, 1}) {
    env_.reset(NewMemEnv());
    options_.env = env_.get();
    options_.index_type = TableOptions::IndexType::kLearnedPlr;
    options_.learned_index_epsilon = loose ? 256 : 1;
    options_.block_size = 256;
    options_.write_buffer_size = 1 << 20;
    options_.max_file_size = 1 << 20;
    Open();
    // Cubes: the gaps between keys grow, so no line fits the fences.
    for (uint64_t i = 0; i < 3000; i++) {
      ASSERT_TRUE(db_->Put({}, EncodeKey(i * i * i), "v").ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
    std::string value;
    ASSERT_TRUE(db_->Get({}, EncodeKey(8), &value).ok());  // opens the table
    memory[loose] = db_->GetStats().index_filter_memory;
    db_.reset();
  }
  EXPECT_GT(memory[0], memory[1]);
}

}  // namespace
}  // namespace lsmlab
