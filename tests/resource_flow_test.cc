// Runtime half of the resource-pinning contract
// (tools/check_resource_flow.py is the static half): caches that hand out
// pinned handles track every acquisition site in debug builds
// (util/pin_tracker.h) and abort with a per-site report when destroyed
// with pins still live. These tests pin down that the tracker (a) fires
// and names the leaking call site, (b) catches pinned-but-erased entries
// the destructor assert cannot see, (c) stays silent across a clean
// shutdown, and (d) follows ownership as it transfers between owners.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "cache/block_cache.h"
#include "cache/lru_cache.h"
#include "core/dbformat.h"
#include "core/filename.h"
#include "core/table_cache.h"
#include "format/block.h"
#include "format/block_builder.h"
#include "format/sstable_builder.h"
#include "storage/env.h"

namespace lsmlab {
namespace {

LruCache::Deleter NoopDeleter() {
  return [](const Slice&, void*) {};
}

static int dummy_value = 0;

std::unique_ptr<const Block> OneEntryBlock() {
  TableOptions opts;
  BlockBuilder builder(&opts);
  builder.Add("key", "value");
  Slice raw = builder.Finish();
  BlockContents contents = BlockContents::CopyOf(raw);
  return std::make_unique<const Block>(std::move(contents));
}

#ifndef NDEBUG

TEST(ResourceFlowTest, LeakedHandleAbortsNamingTheAcquisitionSite) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        LruCache cache(1024, /*num_shards=*/1);
        LruCache::Handle* h =
            cache.Insert("k", &dummy_value, 8, NoopDeleter());
        (void)h;  // deliberately never released
      },
      "acquired at .*resource_flow_test");
}

TEST(ResourceFlowTest, ErasedButPinnedEntryStillCountsAsLeak) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Erase() detaches the entry from the LRU list while the caller's pin
  // keeps it alive; the destructor's per-entry refcount assert never sees
  // it. Only the pin tracker catches this shutdown leak.
  EXPECT_DEATH(
      {
        LruCache cache(1024, /*num_shards=*/1);
        LruCache::Handle* h =
            cache.Insert("k", &dummy_value, 8, NoopDeleter());
        cache.Erase("k");
        (void)h;  // still pinned at destruction
      },
      "LruCache handle: 1 pin\\(s\\) still live");
}

TEST(ResourceFlowTest, EachLookupIsItsOwnPin) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Two lookups of the same entry return the same Handle* but take two
  // pins; releasing only one must still report the other at shutdown.
  EXPECT_DEATH(
      {
        LruCache cache(1024, /*num_shards=*/1);
        cache.Release(cache.Insert("k", &dummy_value, 8, NoopDeleter()));
        LruCache::Handle* a = cache.Lookup("k");
        LruCache::Handle* b = cache.Lookup("k");
        ASSERT_EQ(a, b);
        cache.Release(a);
      },
      "LruCache handle: 1 pin\\(s\\) still live");
}

TEST(ResourceFlowTest, LeakedTableCachePinAbortsNamingTheSite) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  options.filter_allocation = FilterAllocation::kNone;
  InternalKeyComparator icmp(BytewiseComparator());
  StatsRegistry stats;

  ASSERT_TRUE(env->CreateDir("/db").ok());
  FileMetaData meta;
  meta.number = 3;
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile(TableFileName("/db", 3), &file).ok());
    TableCache scratch("/db", &options, &icmp, &stats);
    SSTableBuilder builder(scratch.TableOptionsForLevel(0), file.get());
    std::string ikey;
    AppendInternalKey(&ikey, "key", 1, ValueType::kTypeValue);
    builder.Add(ikey, "value");
    ASSERT_TRUE(builder.Finish().ok());
  }
  ASSERT_TRUE(env->GetFileSize(TableFileName("/db", 3), &meta.file_size).ok());

  EXPECT_DEATH(
      {
        std::shared_ptr<SSTable> pinned;  // outlives the cache below
        auto cache =
            std::make_unique<TableCache>("/db", &options, &icmp, &stats);
        ASSERT_TRUE(cache->FindTable(meta, 0, &pinned).ok());
        cache.reset();  // reader pin still live
      },
      "TableCache reader pin: 1 pin\\(s\\) still live");
}

#endif  // !NDEBUG

TEST(ResourceFlowTest, CleanShutdownAfterBalancedAcquireRelease) {
  LruCache cache(1024, /*num_shards=*/1);
  cache.Release(cache.Insert("k", &dummy_value, 8, NoopDeleter()));
  LruCache::Handle* a = cache.Lookup("k");
  LruCache::Handle* b = cache.Lookup("k");
  ASSERT_NE(a, nullptr);
  cache.Release(a);
  cache.Release(b);
  // Destructor runs with no live pins: no abort in any build type.
}

namespace transfer {
// The new owner releases a handle it did not acquire — the documented
// ownership-transfer shape the tracker must accept (pins are keyed by
// handle, not by acquiring function).
void ReleaseTransferred(LruCache* cache, LruCache::Handle* h) {
  cache->Release(h);
}
}  // namespace transfer

TEST(ResourceFlowTest, OwnershipTransferReleasesAtTheNewOwner) {
  LruCache cache(1024, /*num_shards=*/1);
  LruCache::Handle* h = cache.Insert("k", &dummy_value, 8, NoopDeleter());
  transfer::ReleaseTransferred(&cache, h);
}

TEST(ResourceFlowTest, BlockCacheRefMoveTransfersThePin) {
  BlockCache cache(1 << 20);
  BlockCache::Ref outer;
  {
    BlockCache::Ref inner = cache.Insert(1, 0, OneEntryBlock());
    ASSERT_TRUE(static_cast<bool>(inner));
    outer = std::move(inner);  // pin moves with the Ref
    EXPECT_FALSE(static_cast<bool>(inner));
  }
  ASSERT_TRUE(static_cast<bool>(outer));
  outer.Reset();  // single release for the single pin
  BlockCache::Ref hit = cache.Lookup(1, 0);
  EXPECT_TRUE(static_cast<bool>(hit));
  // hit released by its destructor; cache destruction is clean.
}

}  // namespace
}  // namespace lsmlab
