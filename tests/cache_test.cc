#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/block_cache.h"
#include "cache/lru_cache.h"
#include "core/db.h"
#include "core/dbformat.h"
#include "core/filename.h"
#include "core/table_cache.h"
#include "format/block.h"
#include "format/block_builder.h"
#include "format/sstable_builder.h"
#include "storage/env.h"

namespace lsmlab {
namespace {

// ------------------------------------------------------------ LruCache --

class LruCacheTest : public ::testing::Test {
 protected:
  LruCacheTest() : cache_(1000, /*num_shards=*/1) {}

  /// Inserts key -> heap int; tracks deletions in deleted_.
  LruCache::Handle* Insert(const std::string& key, int value,
                           size_t charge = 100) {
    int* v = new int(value);
    return cache_.Insert(
        key, v, charge, [this](const Slice& k, void* p) {
          deleted_.push_back(k.ToString());
          delete static_cast<int*>(p);
        });
  }

  int Get(const std::string& key) {
    LruCache::Handle* h = cache_.Lookup(key);
    if (h == nullptr) {
      return -1;
    }
    const int v = *static_cast<int*>(cache_.Value(h));
    cache_.Release(h);
    return v;
  }

  // Declared before cache_ so it outlives the deleters cache_'s destructor
  // runs.
  std::vector<std::string> deleted_;
  LruCache cache_;
};

TEST_F(LruCacheTest, InsertLookup) {
  cache_.Release(Insert("a", 1));
  cache_.Release(Insert("b", 2));
  EXPECT_EQ(Get("a"), 1);
  EXPECT_EQ(Get("b"), 2);
  EXPECT_EQ(Get("c"), -1);
}

TEST_F(LruCacheTest, EvictsLeastRecentlyUsed) {
  // Capacity 1000, charge 100 -> 10 entries fit.
  for (int i = 0; i < 10; i++) {
    cache_.Release(Insert("k" + std::to_string(i), i));
  }
  // Touch k0 so it is hot; k1 becomes the coldest.
  EXPECT_EQ(Get("k0"), 0);
  cache_.Release(Insert("new", 99));
  EXPECT_EQ(Get("k1"), -1);  // evicted
  EXPECT_EQ(Get("k0"), 0);   // survived
  EXPECT_EQ(Get("new"), 99);
}

TEST_F(LruCacheTest, PinnedEntriesSurviveEviction) {
  LruCache::Handle* pinned = Insert("pinned", 7);
  for (int i = 0; i < 20; i++) {
    cache_.Release(Insert("filler" + std::to_string(i), i));
  }
  // Entry left the table but the value is still alive via our pin.
  EXPECT_EQ(*static_cast<int*>(cache_.Value(pinned)), 7);
  EXPECT_TRUE(deleted_.empty() ||
              std::find(deleted_.begin(), deleted_.end(), "pinned") ==
                  deleted_.end());
  cache_.Release(pinned);
}

TEST_F(LruCacheTest, EraseRemovesEntry) {
  cache_.Release(Insert("gone", 1));
  cache_.Erase("gone");
  EXPECT_EQ(Get("gone"), -1);
  EXPECT_EQ(deleted_.size(), 1u);
}

TEST_F(LruCacheTest, DuplicateInsertDisplacesOld) {
  cache_.Release(Insert("dup", 1));
  cache_.Release(Insert("dup", 2));
  EXPECT_EQ(Get("dup"), 2);
  ASSERT_EQ(deleted_.size(), 1u);
}

TEST_F(LruCacheTest, PruneDropsEverythingUnpinned) {
  for (int i = 0; i < 5; i++) {
    cache_.Release(Insert("p" + std::to_string(i), i));
  }
  cache_.Prune();
  EXPECT_EQ(cache_.TotalCharge(), 0u);
  EXPECT_EQ(Get("p0"), -1);
}

TEST_F(LruCacheTest, StatsCountHitsAndMisses) {
  cache_.Release(Insert("x", 1));
  Get("x");
  Get("x");
  Get("missing");
  const auto stats = cache_.GetStats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
}

TEST_F(LruCacheTest, TotalChargeTracksUsage) {
  cache_.Release(Insert("a", 1, 300));
  cache_.Release(Insert("b", 2, 400));
  EXPECT_EQ(cache_.TotalCharge(), 700u);
  cache_.Erase("a");
  EXPECT_EQ(cache_.TotalCharge(), 400u);
}

TEST(LruCacheShardedTest, KeysSpreadAcrossShards) {
  LruCache cache(4000, /*num_shards=*/4);
  for (int i = 0; i < 100; i++) {
    auto* h = cache.Insert(
        "key" + std::to_string(i), new int(i), 10,
        [](const Slice&, void* p) { delete static_cast<int*>(p); });
    cache.Release(h);
  }
  int found = 0;
  for (int i = 0; i < 100; i++) {
    auto* h = cache.Lookup("key" + std::to_string(i));
    if (h != nullptr) {
      found++;
      cache.Release(h);
    }
  }
  EXPECT_EQ(found, 100);
}

// ---------------------------------------------------------- BlockCache --

std::unique_ptr<const Block> MakeBlock(int tag) {
  TableOptions opts;
  BlockBuilder builder(&opts);
  builder.Add("key" + std::to_string(tag), "value");
  Slice raw = builder.Finish();
  BlockContents contents = BlockContents::CopyOf(raw);
  return std::make_unique<const Block>(std::move(contents));
}

TEST(BlockCacheTest, InsertLookupByFileAndOffset) {
  BlockCache cache(1 << 20);
  {
    auto ref = cache.Insert(5, 4096, MakeBlock(1));
    EXPECT_TRUE(static_cast<bool>(ref));
  }
  auto hit = cache.Lookup(5, 4096);
  EXPECT_TRUE(static_cast<bool>(hit));
  auto miss_offset = cache.Lookup(5, 8192);
  EXPECT_FALSE(static_cast<bool>(miss_offset));
  auto miss_file = cache.Lookup(6, 4096);
  EXPECT_FALSE(static_cast<bool>(miss_file));
}

TEST(BlockCacheTest, TracksPerFileHotness) {
  BlockCache cache(1 << 20);
  cache.Insert(1, 0, MakeBlock(1));
  cache.Insert(2, 0, MakeBlock(2));
  for (int i = 0; i < 5; i++) {
    cache.Lookup(1, 0);
  }
  cache.Lookup(2, 0);
  EXPECT_EQ(cache.FileAccesses(1), 5u);
  EXPECT_EQ(cache.FileAccesses(2), 1u);
  EXPECT_EQ(cache.FileAccesses(3), 0u);
  cache.ResetStats();
  EXPECT_EQ(cache.FileAccesses(1), 0u);
}

TEST(BlockCacheTest, RefKeepsBlockAliveAcrossEviction) {
  BlockCache cache(1000);  // tiny: every insert evicts the previous
  auto ref = cache.Insert(1, 0, MakeBlock(1));
  for (uint64_t i = 1; i < 20; i++) {
    cache.Insert(1, i * 4096, MakeBlock(static_cast<int>(i)));
  }
  // Our pinned block is still valid.
  ASSERT_TRUE(static_cast<bool>(ref));
  std::unique_ptr<Iterator> it(
      ref.block()->NewIterator(BytewiseComparator()));
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "key1");
}

// ---------------------------------------------------------- TableCache --

/// Regression: FindTable's error paths must clear the out-param. The batch
/// read path reuses one shared_ptr across a per-file loop; before the fix,
/// a failed open left the previous table's reader pinned in it, keeping
/// the handle (and its open file) alive past Evict.
TEST(TableCacheTest, ErrorPathsDoNotRetainPriorHandle) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  options.filter_allocation = FilterAllocation::kNone;
  InternalKeyComparator icmp(BytewiseComparator());
  StatsRegistry stats;
  TableCache cache("/db", &options, &icmp, &stats);

  ASSERT_TRUE(env->CreateDir("/db").ok());
  const std::string good_name = TableFileName("/db", 7);
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile(good_name, &file).ok());
    SSTableBuilder builder(cache.TableOptionsForLevel(0), file.get());
    std::string ikey;
    AppendInternalKey(&ikey, "key", 1, ValueType::kTypeValue);
    builder.Add(ikey, "value");
    ASSERT_TRUE(builder.Finish().ok());
  }
  FileMetaData good;
  good.number = 7;
  ASSERT_TRUE(env->GetFileSize(good_name, &good.file_size).ok());

  // A table whose bytes cannot possibly parse, and one that does not exist.
  FileMetaData corrupt;
  corrupt.number = 8;
  corrupt.file_size = 64;
  ASSERT_TRUE(WriteStringToFile(env.get(), std::string(64, 'z'),
                                TableFileName("/db", 8))
                  .ok());
  FileMetaData missing;
  missing.number = 9;
  missing.file_size = 64;

  std::shared_ptr<SSTable> table;
  ASSERT_TRUE(cache.FindTable(good, 0, &table).ok());
  ASSERT_NE(table, nullptr);
  std::weak_ptr<const SSTable> alive = table;

  EXPECT_FALSE(cache.FindTable(corrupt, 0, &table).ok());
  EXPECT_EQ(table, nullptr) << "failed open retained the previous handle";

  ASSERT_TRUE(cache.FindTable(good, 0, &table).ok());
  EXPECT_FALSE(cache.FindTable(missing, 0, &table).ok());
  EXPECT_EQ(table, nullptr) << "failed open retained the previous handle";

  // With no stray pin left behind, evicting the good table drops the last
  // reference to its reader.
  cache.Evict(7);
  EXPECT_TRUE(alive.expired());
}

// ------------------------------------------------------- Compaction reads --

// A compaction reads each input block once and then deletes its file, so
// its reads use cached blocks but never insert: an L0 -> L1 merge larger
// than the whole cache leaves a hot block of an untouched L2 run cached.
TEST(CompactionReadTest, CompactionDoesNotFillBlockCache) {
  std::unique_ptr<Env> env(NewMemEnv());
  BlockCache cache(32 << 10);
  Options options;
  options.env = env.get();
  options.block_cache = &cache;
  options.write_buffer_size = 32 << 10;
  options.max_file_size = 16 << 10;
  options.size_ratio = 4;
  options.level0_compaction_trigger = 4;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  for (int i = 0; i < 8000; i++) {
    ASSERT_TRUE(
        db->Put({}, "a" + std::to_string(100000 + i), std::string(100, 'a'))
            .ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  const DBStats loaded = db->GetStats();
  ASSERT_EQ(loaded.total_runs, 1) << db->DebugShape();
  ASSERT_EQ(loaded.runs_per_level[2], 1) << db->DebugShape();

  std::string value;
  const std::string hot = "a" + std::to_string(104000);
  ASSERT_TRUE(db->Get({}, hot, &value).ok());  // caches the hot block
  const LruCache::Stats before = cache.GetStats();
  // Keys above every L2 key, scattered so that each flush spans the whole
  // range: the level-0 runs overlap one another, so the L0 -> L1
  // compaction reads and merges them (disjoint runs would move down
  // unread), and it overlaps nothing below.
  for (int i = 0; db->GetStats().compactions == loaded.compactions; i++) {
    ASSERT_LT(i, 5000) << db->DebugShape();
    ASSERT_TRUE(db->Put({}, "b" + std::to_string(100000 + (i * 37) % 5000),
                        std::string(100, 'b'))
                    .ok());
  }
  const DBStats stats = db->GetStats();
  ASSERT_EQ(stats.runs_per_level[1], 1) << db->DebugShape();
  ASSERT_EQ(stats.runs_per_level[2], 1) << db->DebugShape();
  ASSERT_GT(stats.bytes_compacted - loaded.bytes_compacted,
            2 * cache.capacity());
  const LruCache::Stats after = cache.GetStats();
  EXPECT_EQ(after.inserts, before.inserts);

  ASSERT_TRUE(db->Get({}, hot, &value).ok());
  EXPECT_EQ(cache.GetStats().hits, after.hits + 1);
  EXPECT_EQ(cache.GetStats().misses, after.misses);
}

// ------------------------------------------------------------- Prefetch --

/// Leaper-style re-warm: a compaction whose inputs were hot loads its
/// outputs' blocks into the cache before installing them, so the first Get
/// into an output block is a hit. Without the re-warm it misses.
TEST(PrefetchTest, FirstGetAfterHotCompactionHitsCache) {
  for (const bool prefetch : {true, false}) {
    std::unique_ptr<Env> env(NewMemEnv());
    BlockCache cache(8 << 20);
    Options options;
    options.env = env.get();
    // One memtable per batch, so CompactAll runs a single compaction
    // whose inputs are the hot table and the flush of the overwrites.
    options.write_buffer_size = 1 << 20;
    options.max_file_size = 1 << 20;
    options.block_cache = &cache;
    options.prefetch_after_compaction = prefetch;
    options.prefetch_hotness_threshold = 1;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    auto key = [](int i) { return "key" + std::to_string(10000 + i); };
    for (int i = 0; i < 1000; i++) {
      ASSERT_TRUE(db->Put({}, key(i), std::string(100, 'v')).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    std::string value;
    for (int i = 0; i < 1000; i++) {  // heat the input tables
      ASSERT_TRUE(db->Get({}, key(i), &value).ok());
    }
    for (int i = 0; i < 1000; i += 2) {
      ASSERT_TRUE(db->Put({}, key(i), std::string(100, 'w')).ok());
    }
    ASSERT_TRUE(db->CompactAll().ok());
    ASSERT_EQ(db->GetStats().total_runs, 1u);

    const LruCache::Stats before = cache.GetStats();
    ASSERT_TRUE(db->Get({}, key(501), &value).ok());
    const LruCache::Stats after = cache.GetStats();
    if (prefetch) {
      EXPECT_EQ(after.misses, before.misses);
      EXPECT_EQ(after.hits, before.hits + 1);
    } else {
      EXPECT_EQ(after.misses, before.misses + 1);
    }
  }
}

// prefetch_budget_bytes bounds the Leaper re-warm: the hot compaction of
// FirstGetAfterHotCompactionHitsCache loads about one block under a
// one-block budget, and more under the default one.
TEST(PrefetchTest, BudgetBoundsTheReWarm) {
  uint64_t inserts[2] = {0, 0};
  for (const int small : {0, 1}) {
    std::unique_ptr<Env> env(NewMemEnv());
    BlockCache cache(8 << 20);
    Options options;
    options.env = env.get();
    options.write_buffer_size = 1 << 20;
    options.max_file_size = 1 << 20;
    options.block_cache = &cache;
    options.prefetch_after_compaction = true;
    options.prefetch_hotness_threshold = 1;
    if (small) {
      options.prefetch_budget_bytes = options.block_size;
    }
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
    auto key = [](int i) { return "key" + std::to_string(10000 + i); };
    for (int i = 0; i < 1000; i++) {
      ASSERT_TRUE(db->Put({}, key(i), std::string(100, 'v')).ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    std::string value;
    for (int i = 0; i < 1000; i++) {  // heat the input tables
      ASSERT_TRUE(db->Get({}, key(i), &value).ok());
    }
    for (int i = 0; i < 1000; i += 2) {
      ASSERT_TRUE(db->Put({}, key(i), std::string(100, 'w')).ok());
    }
    const uint64_t before = cache.GetStats().inserts;
    ASSERT_TRUE(db->CompactAll().ok());
    inserts[small] = cache.GetStats().inserts - before;
  }
  EXPECT_GE(inserts[1], 1u);
  EXPECT_LE(inserts[1], 2u);
  EXPECT_GT(inserts[0], 10 * inserts[1]);
}

}  // namespace
}  // namespace lsmlab
