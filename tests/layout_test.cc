// A consumer of the library built without NDEBUG (tests/CMakeLists.txt
// drops it from this file whatever the build type). On a release build,
// this translation unit and the library then compile the engine's headers
// under different NDEBUG settings, so any class whose data members depend
// on NDEBUG would be laid out differently here and in the library, and
// inline members would read and write the wrong offsets. DBImpl's inline
// test hooks must round-trip, and a BlockCache built here (its constructor
// is inline) must work as the library's block cache.

#ifdef NDEBUG
#error "layout_test must be compiled without NDEBUG"
#endif

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/block_cache.h"
#include "core/db.h"
#include "core/db_impl.h"
#include "core/filename.h"
#include "storage/env.h"
#include "workload/keygen.h"
#include "workload/workload.h"

namespace lsmlab {
namespace {

/// Forwards to `base` and records the threads that create table files.
class TableThreadEnv : public Env {
 public:
  explicit TableThreadEnv(Env* base) : base_(base) {}

  Status NewRandomAccessFile(
      const std::string& f, std::unique_ptr<RandomAccessFile>* r) override {
    return base_->NewRandomAccessFile(f, r);
  }
  Status NewWritableFile(const std::string& f,
                         std::unique_ptr<WritableFile>* r) override {
    uint64_t number;
    FileType type;
    if (ParseFileName(f.substr(f.rfind('/') + 1), &number, &type) &&
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

  std::set<std::thread::id> threads() {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }

 private:
  Env* base_;
  std::mutex mu_;
  std::set<std::thread::id> threads_;
};

// TEST_SetSubcompactionHelpers is inline: it stores into a DBImpl member
// at this translation unit's offset, and the library's compaction reads
// it at its own. With 0 helpers, an inline-mode merge that splits into
// many subranges builds every table on the calling thread.
TEST(LayoutTest, DBImplInlineMemberRoundTrips) {
  std::unique_ptr<Env> base(NewMemEnv());
  TableThreadEnv env(base.get());
  Options options;
  options.env = &env;
  options.write_buffer_size = 64 << 10;
  options.max_file_size = 4 << 10;
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  auto* impl = static_cast<DBImpl*>(db.get());
  impl->TEST_SetSubcompactionHelpers(0);
  EXPECT_FALSE(impl->TEST_MutexHeldByCurrentThread());
  // Two rounds over the same keys: the flushed runs overlap, so the
  // compactions merge rather than move.
  constexpr int kKeys = 6000;
  for (int round = 0; round < 2; round++) {
    for (int i = 0; i < kKeys; i++) {
      const std::string key = EncodeKey(static_cast<uint64_t>(i));
      ASSERT_TRUE(db->Put({}, key, ValueForKey(key, 40 + round)).ok());
    }
  }
  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_EQ(db->GetStats().total_runs, 1) << db->DebugShape();
  const std::set<std::thread::id> caller = {std::this_thread::get_id()};
  EXPECT_EQ(env.threads(), caller);
}

// BlockCache's constructor is inline: this translation unit places the
// members after its LruCache (which holds a PinTracker) at its own
// offsets, and the library's Lookup, Insert and hotness counters use
// them at the library's.
TEST(LayoutTest, BlockCacheBuiltHereServesReads) {
  std::unique_ptr<Env> env(NewMemEnv());
  auto cache = std::make_unique<BlockCache>(1 << 20);
  Options options;
  options.env = env.get();
  options.write_buffer_size = 64 << 10;
  options.block_cache = cache.get();
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, "/db", &db).ok());
  constexpr int kKeys = 2000;
  for (int i = 0; i < kKeys; i++) {
    const std::string key = EncodeKey(static_cast<uint64_t>(i));
    ASSERT_TRUE(db->Put({}, key, ValueForKey(key, 40)).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  // Two passes: the first fills the cache, the second hits it.
  std::string value;
  for (int pass = 0; pass < 2; pass++) {
    for (int i = 0; i < kKeys; i += 7) {
      const std::string key = EncodeKey(static_cast<uint64_t>(i));
      ASSERT_TRUE(db->Get({}, key, &value).ok()) << key;
      EXPECT_EQ(value, ValueForKey(key, 40));
    }
  }
  EXPECT_GT(cache->GetStats().inserts, 0u);
  EXPECT_GT(cache->GetStats().hits, 0u);
  EXPECT_GT(cache->TotalCharge(), 0u);
  cache->ResetStats();
  EXPECT_EQ(cache->GetStats().hits, 0u);
  db.reset();
}

}  // namespace
}  // namespace lsmlab
