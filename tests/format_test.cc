#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "format/block.h"
#include "format/block_builder.h"
#include "format/format.h"
#include "format/sstable_builder.h"
#include "format/sstable_reader.h"
#include "format/two_level_iterator.h"
#include "filter/filter_policy.h"
#include "obs/perf_context.h"
#include "storage/env.h"
#include "util/coding.h"
#include "util/hash.h"
#include "util/random.h"

namespace lsmlab {
namespace {

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

// ----------------------------------------------------------------- Block --

class BlockTest : public ::testing::Test {
 protected:
  BlockTest() { opts_.block_restart_interval = 4; }

  std::unique_ptr<Block> Build(const std::map<std::string, std::string>& kv) {
    BlockBuilder builder(&opts_);
    for (const auto& [k, v] : kv) {
      builder.Add(k, v);
    }
    Slice raw = builder.Finish();
    BlockContents contents = BlockContents::CopyOf(raw);
    return std::make_unique<Block>(std::move(contents));
  }

  TableOptions opts_;
};

TEST_F(BlockTest, IterateAll) {
  std::map<std::string, std::string> kv;
  for (int i = 0; i < 100; i++) {
    kv[Key(i)] = "value" + std::to_string(i);
  }
  auto block = Build(kv);
  std::unique_ptr<Iterator> it(block->NewIterator(BytewiseComparator()));
  auto expect = kv.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expect) {
    ASSERT_NE(expect, kv.end());
    EXPECT_EQ(it->key().ToString(), expect->first);
    EXPECT_EQ(it->value().ToString(), expect->second);
  }
  EXPECT_EQ(expect, kv.end());
  EXPECT_TRUE(it->status().ok());
}

TEST_F(BlockTest, SeekSemantics) {
  std::map<std::string, std::string> kv;
  for (int i = 0; i < 100; i += 2) {
    kv[Key(i)] = "v";
  }
  auto block = Build(kv);
  std::unique_ptr<Iterator> it(block->NewIterator(BytewiseComparator()));
  // Seek to present key.
  it->Seek(Key(10));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), Key(10));
  // Seek to absent key lands on successor.
  it->Seek(Key(11));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), Key(12));
  // Seek past everything.
  it->Seek(Key(99));
  EXPECT_FALSE(it->Valid());
  // Seek before everything.
  it->Seek("");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), Key(0));
}

TEST_F(BlockTest, BackwardIteration) {
  std::map<std::string, std::string> kv;
  for (int i = 0; i < 50; i++) {
    kv[Key(i)] = std::to_string(i);
  }
  auto block = Build(kv);
  std::unique_ptr<Iterator> it(block->NewIterator(BytewiseComparator()));
  int expect = 49;
  for (it->SeekToLast(); it->Valid(); it->Prev()) {
    EXPECT_EQ(it->key().ToString(), Key(expect));
    expect--;
  }
  EXPECT_EQ(expect, -1);
}

TEST_F(BlockTest, EmptyBlock) {
  auto block = Build({});
  std::unique_ptr<Iterator> it(block->NewIterator(BytewiseComparator()));
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  it->Seek("anything");
  EXPECT_FALSE(it->Valid());
}

TEST_F(BlockTest, PrefixCompressionRestoresKeys) {
  // Long shared prefixes exercise the delta encoding.
  std::map<std::string, std::string> kv;
  const std::string prefix(100, 'p');
  for (int i = 0; i < 20; i++) {
    kv[prefix + Key(i)] = "v" + std::to_string(i);
  }
  auto block = Build(kv);
  std::unique_ptr<Iterator> it(block->NewIterator(BytewiseComparator()));
  auto expect = kv.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expect) {
    EXPECT_EQ(it->key().ToString(), expect->first);
  }
}

TEST_F(BlockTest, HashIndexLookup) {
  opts_.use_hash_index = true;
  std::map<std::string, std::string> kv;
  for (int i = 0; i < 64; i++) {
    kv[Key(i)] = "v";
  }
  auto block = Build(kv);
  EXPECT_TRUE(block->has_hash_index());

  int found = 0, absent = 0, collision = 0;
  for (int i = 0; i < 64; i++) {
    uint32_t restart;
    switch (block->HashLookup(Hash32(Slice(Key(i))), &restart)) {
      case Block::HashResult::kFound: {
        found++;
        // The key must live in restart group `restart`.
        std::unique_ptr<Block::BlockIterator> it(
            block->NewIterator(BytewiseComparator()));
        it->SeekToRestart(restart);
        bool ok = false;
        for (int step = 0; it->Valid() && step < 64; it->Next(), step++) {
          if (it->key() == Slice(Key(i))) {
            ok = true;
            break;
          }
        }
        EXPECT_TRUE(ok) << Key(i);
        break;
      }
      case Block::HashResult::kCollision:
        collision++;
        break;
      case Block::HashResult::kAbsent:
        absent++;  // impossible for present keys
        break;
      case Block::HashResult::kNoIndex:
        FAIL();
    }
  }
  EXPECT_EQ(absent, 0);
  EXPECT_EQ(found + collision, 64);
  EXPECT_GT(found, 10);  // a healthy share resolves without binary search
}

TEST_F(BlockTest, HashIndexProvesAbsence) {
  opts_.use_hash_index = true;
  std::map<std::string, std::string> kv;
  for (int i = 0; i < 32; i++) {
    kv[Key(i)] = "v";
  }
  auto block = Build(kv);
  int definitive_absent = 0;
  for (int i = 1000; i < 1200; i++) {
    uint32_t restart;
    if (block->HashLookup(Hash32(Slice(Key(i))), &restart) ==
        Block::HashResult::kAbsent) {
      definitive_absent++;
    }
  }
  // With a load factor of 0.75, a majority of absent probes hit empty
  // buckets.
  EXPECT_GT(definitive_absent, 50);
}

TEST_F(BlockTest, EntryLengthOverflowIsCorruption) {
  // Regression for a bug found by the corruption sweep: an entry header of
  // shared=0, non_shared=0xffffffff, value_length=1 summed to 0 in 32-bit
  // arithmetic, so the "enough bytes left?" check passed and the iterator
  // appended ~4GB of out-of-bounds memory to its key buffer. The lengths
  // must be summed in 64 bits and the entry rejected as corruption.
  std::string raw;
  PutVarint32(&raw, 0);           // shared
  PutVarint32(&raw, 0xffffffff);  // non_shared
  PutVarint32(&raw, 1);           // value_length (wraps the 32-bit sum to 0)
  PutFixed32(&raw, 0);            // restart array: one restart at offset 0
  PutFixed32(&raw, 1);            // trailer: num_restarts = 1

  BlockContents contents = BlockContents::CopyOf(raw);
  Block block(std::move(contents));
  std::unique_ptr<Iterator> it(block.NewIterator(BytewiseComparator()));
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().IsCorruption());
}

TEST_F(BlockTest, RestartPointBeyondEntriesIsRejected) {
  // A restart offset pointing past the entry region must be caught at
  // construction (the block parses as malformed/empty), not chased later.
  std::string raw;
  PutVarint32(&raw, 0);  // shared
  PutVarint32(&raw, 1);  // non_shared
  PutVarint32(&raw, 0);  // value_length
  raw.push_back('k');
  PutFixed32(&raw, 0x7fffffff);  // restart far beyond the entry region
  PutFixed32(&raw, 1);           // trailer: num_restarts = 1

  BlockContents contents = BlockContents::CopyOf(raw);
  Block block(std::move(contents));
  std::unique_ptr<Iterator> it(block.NewIterator(BytewiseComparator()));
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  it->Seek("k");
  EXPECT_FALSE(it->Valid());
}

// --------------------------------------------------------------- Footer --

TEST(FormatTest, FooterRoundtrip) {
  Footer footer;
  footer.set_metaindex_handle(BlockHandle(1234, 56));
  footer.set_index_handle(BlockHandle(7890, 12));
  std::string encoded;
  footer.EncodeTo(&encoded);
  EXPECT_EQ(encoded.size(), Footer::kEncodedLength);

  Footer decoded;
  Slice input(encoded);
  ASSERT_TRUE(decoded.DecodeFrom(&input).ok());
  EXPECT_EQ(decoded.metaindex_handle().offset(), 1234u);
  EXPECT_EQ(decoded.index_handle().offset(), 7890u);
}

TEST(FormatTest, FooterRejectsBadMagic) {
  std::string encoded(Footer::kEncodedLength, '\x42');
  Footer footer;
  Slice input(encoded);
  EXPECT_TRUE(footer.DecodeFrom(&input).IsCorruption());
}

// -------------------------------------------------------------- SSTable --

/// Point lookup of one key through SSTable::MultiGet, a batch of one:
/// `handler` sees the first entry >= key in the key's block, if any.
Status TableGet(const SSTable& table, const std::string& key,
                std::function<void(const Slice&, const Slice&)> handler,
                bool use_filter = true, bool* filter_pruned = nullptr) {
  BatchGetContext ctx;
  ctx.target = key;
  ctx.searchable = key;
  ctx.hash = Hash64(key);
  ctx.handler = [](void* arg, const Slice& k, const Slice& v) {
    (*static_cast<std::function<void(const Slice&, const Slice&)>*>(arg))(k,
                                                                         v);
  };
  ctx.arg = &handler;
  BatchGetContext* const keys[] = {&ctx};
  table.MultiGet(keys, use_filter);
  if (filter_pruned != nullptr) {
    *filter_pruned = ctx.filter_pruned;
  }
  return ctx.status;
}

class SSTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_.reset(NewMemEnv());
    opts_.block_size = 512;  // many blocks
  }

  void BuildTable(const std::map<std::string, std::string>& kv) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile("/t.sst", &file).ok());
    SSTableBuilder builder(opts_, file.get());
    for (const auto& [k, v] : kv) {
      builder.Add(k, v);
    }
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE(file->Close().ok());
    file_size_ = builder.FileSize();
  }

  void OpenTable() {
    std::unique_ptr<RandomAccessFile> file;
    ASSERT_TRUE(env_->NewRandomAccessFile("/t.sst", &file).ok());
    ASSERT_TRUE(SSTable::Open(opts_, std::move(file), file_size_, 1, nullptr,
                              &table_)
                    .ok());
  }

  std::unique_ptr<Env> env_;
  TableOptions opts_;
  uint64_t file_size_ = 0;
  std::unique_ptr<SSTable> table_;
};

TEST_F(SSTableTest, RoundtripAndProperties) {
  std::map<std::string, std::string> kv;
  for (int i = 0; i < 1000; i++) {
    kv[Key(i)] = "value" + std::to_string(i);
  }
  BuildTable(kv);
  OpenTable();

  EXPECT_EQ(table_->properties().num_entries, 1000u);
  EXPECT_GT(table_->properties().num_data_blocks, 5u);

  std::unique_ptr<Iterator> it(table_->NewIterator());
  auto expect = kv.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expect) {
    ASSERT_NE(expect, kv.end());
    EXPECT_EQ(it->key().ToString(), expect->first);
    EXPECT_EQ(it->value().ToString(), expect->second);
  }
  EXPECT_EQ(expect, kv.end());
}

TEST_F(SSTableTest, SeekAcrossBlocks) {
  std::map<std::string, std::string> kv;
  for (int i = 0; i < 1000; i += 2) {
    kv[Key(i)] = "v";
  }
  BuildTable(kv);
  OpenTable();
  std::unique_ptr<Iterator> it(table_->NewIterator());
  for (int i = 0; i < 1000; i += 100) {
    it->Seek(Key(i + 1));  // absent; successor is i+2
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), Key(i + 2));
  }
}

TEST_F(SSTableTest, PointLookupFindsEntries) {
  std::map<std::string, std::string> kv;
  for (int i = 0; i < 500; i++) {
    kv[Key(i)] = std::to_string(i);
  }
  BuildTable(kv);
  OpenTable();
  for (int i = 0; i < 500; i += 17) {
    std::string got;
    ASSERT_TRUE(TableGet(*table_, Key(i),
                         [&](const Slice& k, const Slice& v) {
                           if (k == Slice(Key(i))) {
                             got = v.ToString();
                           }
                         })
                    .ok());
    EXPECT_EQ(got, std::to_string(i));
  }
}

TEST_F(SSTableTest, FilterBlockRoundtrip) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  opts_.filter_policy = policy.get();
  std::map<std::string, std::string> kv;
  for (int i = 0; i < 2000; i++) {
    kv[Key(i)] = "v";
  }
  BuildTable(kv);
  OpenTable();

  // No false negatives.
  for (int i = 0; i < 2000; i++) {
    EXPECT_TRUE(table_->KeyMayMatch(Key(i), Hash64(Slice(Key(i)))));
  }
  // Mostly true negatives for absent keys.
  int rejected = 0;
  for (int i = 10000; i < 12000; i++) {
    if (!table_->KeyMayMatch(Key(i), Hash64(Slice(Key(i))))) {
      rejected++;
    }
  }
  EXPECT_GT(rejected, 1900);  // FPR ~1% at 10 bits/key
}

TEST_F(SSTableTest, PartitionedFilterRoundtrip) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  opts_.filter_policy = policy.get();
  opts_.partition_filters = true;
  std::map<std::string, std::string> kv;
  for (int i = 0; i < 2000; i++) {
    kv[Key(i)] = "v" + std::to_string(i);
  }
  BuildTable(kv);
  OpenTable();

  // Whole-table probe cannot answer (partitions are per block).
  EXPECT_TRUE(table_->KeyMayMatch(Key(999999), Hash64(Slice(Key(999999)))));

  // No false negatives through MultiGet with partition filtering on.
  for (int i = 0; i < 2000; i += 13) {
    std::string got;
    bool skipped = false;
    ASSERT_TRUE(TableGet(*table_, Key(i),
                         [&](const Slice& k, const Slice& v) {
                           if (k == Slice(Key(i))) {
                             got = v.ToString();
                           }
                         },
                         /*use_filter=*/true, &skipped)
                    .ok());
    EXPECT_FALSE(skipped) << Key(i);
    EXPECT_EQ(got, "v" + std::to_string(i));
  }

  // Absent keys (in-range) are mostly rejected by their partition.
  int rejected = 0;
  for (int i = 0; i < 500; i++) {
    bool skipped = false;
    std::string absent = Key(i) + "x";
    ASSERT_TRUE(TableGet(*table_, absent,
                         [](const Slice&, const Slice&) {},
                         /*use_filter=*/true, &skipped)
                    .ok());
    if (skipped) {
      rejected++;
    }
  }
  EXPECT_GT(rejected, 450);
}

TEST_F(SSTableTest, PartitionedFilterDisabledProbeStillWorks) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  opts_.filter_policy = policy.get();
  opts_.partition_filters = true;
  std::map<std::string, std::string> kv;
  for (int i = 0; i < 200; i++) {
    kv[Key(i)] = "v";
  }
  BuildTable(kv);
  OpenTable();
  // use_filter=false must bypass the partitions entirely.
  bool skipped = true;
  std::string absent = Key(3) + "x";
  ASSERT_TRUE(TableGet(*table_, absent,
                       [](const Slice&, const Slice&) {},
                       /*use_filter=*/false, &skipped)
                  .ok());
  EXPECT_FALSE(skipped);
}

TEST_F(SSTableTest, MismatchedFilterPolicyDegradesGracefully) {
  std::unique_ptr<const FilterPolicy> bloom(NewBloomFilterPolicy(10));
  opts_.filter_policy = bloom.get();
  std::map<std::string, std::string> kv{{Key(1), "v"}};
  BuildTable(kv);
  // Reopen expecting a different filter: the table must not reject keys.
  std::unique_ptr<const FilterPolicy> cuckoo(NewCuckooFilterPolicy(12));
  opts_.filter_policy = cuckoo.get();
  OpenTable();
  EXPECT_TRUE(table_->KeyMayMatch(Key(999), Hash64(Slice(Key(999)))));
}

TEST_F(SSTableTest, CorruptBlockDetected) {
  std::map<std::string, std::string> kv;
  for (int i = 0; i < 100; i++) {
    kv[Key(i)] = "vvvvvvvvvv";
  }
  BuildTable(kv);
  // Flip a byte in the middle of the data area.
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_.get(), "/t.sst", &data).ok());
  data[100] ^= 0x01;
  ASSERT_TRUE(WriteStringToFile(env_.get(), data, "/t.sst").ok());
  OpenTable();
  std::unique_ptr<Iterator> it(table_->NewIterator());
  it->SeekToFirst();
  // Either the iterator reports corruption eventually or the first block
  // fails immediately.
  while (it->Valid()) {
    it->Next();
  }
  EXPECT_TRUE(it->status().IsCorruption());
}

TEST_F(SSTableTest, TruncatedFileRejected) {
  std::map<std::string, std::string> kv{{Key(1), "v"}};
  BuildTable(kv);
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_.get(), "/t.sst", &data).ok());
  data.resize(data.size() / 2);
  ASSERT_TRUE(WriteStringToFile(env_.get(), data, "/t.sst").ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_->NewRandomAccessFile("/t.sst", &file).ok());
  std::unique_ptr<SSTable> table;
  EXPECT_FALSE(
      SSTable::Open(opts_, std::move(file), data.size(), 1, nullptr, &table)
          .ok());
}

TEST_F(SSTableTest, LearnedPlrIndexGet) {
  opts_.index_type = TableOptions::IndexType::kLearnedPlr;
  std::map<std::string, std::string> kv;
  for (int i = 0; i < 2000; i++) {
    kv[Key(i)] = std::to_string(i);
  }
  BuildTable(kv);
  OpenTable();
  const PerfContext before = *GetPerfContext();
  for (int i = 0; i < 2000; i += 13) {
    std::string got;
    ASSERT_TRUE(TableGet(*table_, Key(i),
                         [&](const Slice& k, const Slice& v) {
                           if (k == Slice(Key(i))) {
                             got = v.ToString();
                           }
                         })
                    .ok());
    EXPECT_EQ(got, std::to_string(i)) << Key(i);
  }
  EXPECT_GT(GetPerfContext()->Delta(before).learned_index_seek_count, 0u);
}

TEST_F(SSTableTest, RadixSplineIndexGet) {
  opts_.index_type = TableOptions::IndexType::kRadixSpline;
  std::map<std::string, std::string> kv;
  for (int i = 0; i < 2000; i++) {
    kv[Key(i)] = std::to_string(i);
  }
  BuildTable(kv);
  OpenTable();
  for (int i = 0; i < 2000; i += 29) {
    std::string got;
    ASSERT_TRUE(TableGet(*table_, Key(i),
                         [&](const Slice& k, const Slice& v) {
                           if (k == Slice(Key(i))) {
                             got = v.ToString();
                           }
                         })
                    .ok());
    EXPECT_EQ(got, std::to_string(i));
  }
}

// --------------------------------------------------- Two-level iterator --

TEST(TwoLevelIteratorTest, ComposesIndexAndData) {
  // Index maps "1","2","3" -> synthetic single-entry iterators.
  TableOptions opts;
  BlockBuilder index(&opts);
  index.Add("1", "a");
  index.Add("2", "b");
  index.Add("3", "c");
  Slice raw = index.Finish();
  BlockContents contents = BlockContents::CopyOf(raw);
  Block block(std::move(contents));

  auto factory = [](const Slice& value) -> Iterator* {
    // Each data "block" is one synthetic pair (value -> value).
    class OneEntry : public Iterator {
     public:
      explicit OneEntry(std::string v) : v_(std::move(v)) {}
      bool Valid() const override { return valid_; }
      void SeekToFirst() override { valid_ = true; }
      void SeekToLast() override { valid_ = true; }
      void Seek(const Slice& t) override { valid_ = Slice(v_).compare(t) >= 0; }
      void Next() override { valid_ = false; }
      void Prev() override { valid_ = false; }
      Slice key() const override { return Slice(v_); }
      Slice value() const override { return Slice(v_); }
      Status status() const override { return Status::OK(); }

     private:
      std::string v_;
      bool valid_ = false;
    };
    return new OneEntry(value.ToString());
  };

  std::unique_ptr<Iterator> it(NewTwoLevelIterator(
      block.NewIterator(BytewiseComparator()), factory));
  std::string seen;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    seen += it->key().ToString();
  }
  EXPECT_EQ(seen, "abc");
}

}  // namespace
}  // namespace lsmlab
