#include "memtable/memtable.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/db.h"
#include "memtable/skiplist.h"
#include "obs/event_listener.h"
#include "storage/env.h"
#include "util/hash.h"
#include "util/random.h"

namespace lsmlab {
namespace {

// ------------------------------------------------------------- SkipList --

struct IntComparator {
  int operator()(uint64_t a, uint64_t b) const {
    return a < b ? -1 : (a > b ? 1 : 0);
  }
};

TEST(SkipListTest, InsertAndContains) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  Random rng(301);
  std::set<uint64_t> model;
  for (int i = 0; i < 2000; i++) {
    const uint64_t v = rng.Uniform(10000);
    if (model.insert(v).second) {
      list.Insert(v, Remix64(v));
    }
  }
  for (uint64_t v = 0; v < 10000; v += 7) {
    EXPECT_EQ(list.Contains(v), model.count(v) > 0) << v;
  }
}

TEST(SkipListTest, IterationInOrder) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  std::set<uint64_t> model;
  Random rng(302);
  for (int i = 0; i < 1000; i++) {
    const uint64_t v = rng.Next64() % 100000;
    if (model.insert(v).second) {
      list.Insert(v, Remix64(v));
    }
  }
  SkipList<uint64_t, IntComparator>::Iterator it(&list);
  auto expect = model.begin();
  for (it.SeekToFirst(); it.Valid(); it.Next(), ++expect) {
    ASSERT_NE(expect, model.end());
    EXPECT_EQ(it.key(), *expect);
  }
  EXPECT_EQ(expect, model.end());
}

TEST(SkipListTest, SeekAndPrev) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  for (uint64_t v = 0; v < 100; v += 10) {
    list.Insert(v, Remix64(v));
  }
  SkipList<uint64_t, IntComparator>::Iterator it(&list);
  it.Seek(35);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 40u);
  it.Prev();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 30u);
  it.SeekToLast();
  EXPECT_EQ(it.key(), 90u);
  it.Seek(1000);
  EXPECT_FALSE(it.Valid());
}

// Interleaved key ranges maximize CAS contention: every thread splices into
// every neighborhood of the list instead of appending to a private region.
TEST(SkipListTest, ConcurrentInsertInterleavedThreads) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 2000;
  std::atomic<uint64_t> total_retries{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      uint64_t retries = 0;
      for (uint64_t i = 0; i < kPerThread; i++) {
        retries += list.Insert(i * kThreads + t, Remix64(i * kThreads + t));
      }
      total_retries.fetch_add(retries, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();

  SkipList<uint64_t, IntComparator>::Iterator it(&list);
  uint64_t expected = 0;
  for (it.SeekToFirst(); it.Valid(); it.Next()) {
    ASSERT_EQ(it.key(), expected);
    expected++;
  }
  EXPECT_EQ(expected, kPerThread * kThreads);
  // Retries are contention-dependent; the counter only has to be coherent.
  EXPECT_LT(total_retries.load(), kPerThread * kThreads * 100);
}

TEST(SkipListTest, ConcurrentInsertsVsConcurrentReaders) {
  Arena arena;
  SkipList<uint64_t, IntComparator> list(IntComparator(), &arena);
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr uint64_t kPerWriter = 4000;
  // watermarks[t] = writer t has finished inserting keys [0, watermark).
  std::atomic<uint64_t> watermarks[kWriters];
  for (auto& w : watermarks) w.store(0);
  std::atomic<bool> done{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; t++) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerWriter; i++) {
        list.Insert(i * kWriters + t, Remix64(i * kWriters + t));
        watermarks[t].store(i + 1, std::memory_order_release);
      }
    });
  }
  for (int r = 0; r < kReaders; r++) {
    threads.emplace_back([&, r] {
      Random rng(0x9e3779b9u + r);
      while (!done.load(std::memory_order_acquire)) {
        // Scan: keys must be strictly increasing even mid-insert.
        SkipList<uint64_t, IntComparator>::Iterator it(&list);
        uint64_t prev = 0;
        bool first = true;
        for (it.SeekToFirst(); it.Valid(); it.Next()) {
          if (!first) {
            ASSERT_GT(it.key(), prev);
          }
          prev = it.key();
          first = false;
        }
        // Point reads: everything below a writer's published watermark
        // must already be visible to Contains and Seek.
        const int t = static_cast<int>(rng.Uniform(kWriters));
        const uint64_t mark = watermarks[t].load(std::memory_order_acquire);
        if (mark > 0) {
          const uint64_t key = rng.Uniform(mark) * kWriters + t;
          ASSERT_TRUE(list.Contains(key));
          SkipList<uint64_t, IntComparator>::Iterator seek_it(&list);
          seek_it.Seek(key);
          ASSERT_TRUE(seek_it.Valid());
          ASSERT_EQ(seek_it.key(), key);
        }
      }
    });
  }
  for (int t = 0; t < kWriters; t++) threads[t].join();
  done.store(true, std::memory_order_release);
  for (int r = 0; r < kReaders; r++) threads[kWriters + r].join();

  SkipList<uint64_t, IntComparator>::Iterator it(&list);
  uint64_t count = 0;
  for (it.SeekToFirst(); it.Valid(); it.Next()) count++;
  EXPECT_EQ(count, kPerWriter * kWriters);
}

// ------------------------------------------------------------- MemTable --

class MemTableTest : public ::testing::TestWithParam<MemTable::Rep> {
 protected:
  MemTableTest() : icmp_(BytewiseComparator()) {}

  MemTable* NewTable(bool hash_index = false) {
    MemTable* mem = new MemTable(icmp_, GetParam(), hash_index);
    mem->Ref();
    return mem;
  }

  InternalKeyComparator icmp_;
};

TEST_P(MemTableTest, AddAndGetLatest) {
  MemTable* mem = NewTable();
  mem->Add(1, ValueType::kTypeValue, "key", "v1");
  mem->Add(2, ValueType::kTypeValue, "key", "v2");

  std::string value;
  Status s;
  ASSERT_TRUE(mem->Get(LookupKey("key", kMaxSequenceNumber), &value, &s));
  EXPECT_EQ(value, "v2");
  mem->Unref();
}

TEST_P(MemTableTest, SnapshotVisibility) {
  MemTable* mem = NewTable();
  mem->Add(10, ValueType::kTypeValue, "key", "old");
  mem->Add(20, ValueType::kTypeValue, "key", "new");

  std::string value;
  Status s;
  ASSERT_TRUE(mem->Get(LookupKey("key", 15), &value, &s));
  EXPECT_EQ(value, "old");
  ASSERT_TRUE(mem->Get(LookupKey("key", 25), &value, &s));
  EXPECT_EQ(value, "new");
  // Sequence before the first version: invisible.
  EXPECT_FALSE(mem->Get(LookupKey("key", 5), &value, &s));
  mem->Unref();
}

TEST_P(MemTableTest, TombstoneReportsNotFound) {
  MemTable* mem = NewTable();
  mem->Add(1, ValueType::kTypeValue, "key", "v");
  mem->Add(2, ValueType::kTypeDeletion, "key", "");
  std::string value;
  Status s;
  ASSERT_TRUE(mem->Get(LookupKey("key", kMaxSequenceNumber), &value, &s));
  EXPECT_TRUE(s.IsNotFound());
  mem->Unref();
}

TEST_P(MemTableTest, MissingKey) {
  MemTable* mem = NewTable();
  mem->Add(1, ValueType::kTypeValue, "a", "v");
  std::string value;
  Status s;
  EXPECT_FALSE(mem->Get(LookupKey("b", kMaxSequenceNumber), &value, &s));
  mem->Unref();
}

TEST_P(MemTableTest, IteratorOrder) {
  MemTable* mem = NewTable();
  Random rng(303);
  std::map<std::string, std::string> model;
  SequenceNumber seq = 1;
  for (int i = 0; i < 500; i++) {
    const std::string k = "key" + std::to_string(rng.Uniform(200));
    const std::string v = "v" + std::to_string(i);
    mem->Add(seq++, ValueType::kTypeValue, k, v);
    model[k] = v;
  }
  std::unique_ptr<Iterator> it(mem->NewIterator());
  std::string last_user_key;
  std::map<std::string, std::string> seen;
  std::string prev_internal;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    const Slice ikey = it->key();
    if (!prev_internal.empty()) {
      EXPECT_LT(icmp_.Compare(Slice(prev_internal), ikey), 0);
    }
    prev_internal = ikey.ToString();
    const std::string user = ExtractUserKey(ikey).ToString();
    if (user != last_user_key) {
      seen[user] = it->value().ToString();  // first = newest version
      last_user_key = user;
    }
  }
  EXPECT_EQ(seen, model);
  mem->Unref();
}

TEST_P(MemTableTest, HashIndexFastPathMatchesOrderedPath) {
  MemTable* with = NewTable(/*hash_index=*/true);
  MemTable* without = NewTable(/*hash_index=*/false);
  Random rng(304);
  SequenceNumber seq = 1;
  for (int i = 0; i < 1000; i++) {
    const std::string k = "k" + std::to_string(rng.Uniform(300));
    const std::string v = "v" + std::to_string(i);
    with->Add(seq, ValueType::kTypeValue, k, v);
    without->Add(seq, ValueType::kTypeValue, k, v);
    seq++;
  }
  for (int i = 0; i < 300; i++) {
    const std::string k = "k" + std::to_string(i);
    std::string v1, v2;
    Status s1, s2;
    const bool f1 = with->Get(LookupKey(k, kMaxSequenceNumber), &v1, &s1);
    const bool f2 = without->Get(LookupKey(k, kMaxSequenceNumber), &v2, &s2);
    EXPECT_EQ(f1, f2) << k;
    if (f1 && f2) {
      EXPECT_EQ(v1, v2);
    }
  }
  with->Unref();
  without->Unref();
}

TEST_P(MemTableTest, MemoryUsageGrows) {
  MemTable* mem = NewTable();
  const size_t before = mem->ApproximateMemoryUsage();
  for (int i = 0; i < 1000; i++) {
    mem->Add(i + 1, ValueType::kTypeValue, "key" + std::to_string(i),
             std::string(100, 'v'));
  }
  EXPECT_GT(mem->ApproximateMemoryUsage(), before + 100 * 1000);
  EXPECT_EQ(mem->num_entries(), 1000u);
  mem->Unref();
}

TEST_P(MemTableTest, IteratorKeepsTableAliveViaRef) {
  MemTable* mem = NewTable();
  mem->Add(1, ValueType::kTypeValue, "k", "v");
  Iterator* it = mem->NewIterator();
  mem->Unref();  // iterator still holds a reference
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "k");
  delete it;  // releases the final reference
}

// Concurrent members may add a key's versions out of sequence order; the
// hash index must keep the highest sequence, not the last Add.
TEST_P(MemTableTest, HashIndexKeepsHighestSequence) {
  MemTable* mem = NewTable(/*hash_index=*/true);
  mem->Add(5, ValueType::kTypeValue, "k", "v5");
  mem->Add(3, ValueType::kTypeValue, "k", "v3");
  std::string value;
  Status s;
  ASSERT_TRUE(mem->Get(LookupKey("k", kMaxSequenceNumber), &value, &s));
  EXPECT_EQ(value, "v5");
  mem->Unref();
}

// Concurrent Adds are valid on every rep, with or without the hash index,
// alongside readers doing point lookups and full scans.
class MemTableConcurrentTest
    : public ::testing::TestWithParam<std::tuple<MemTable::Rep, bool>> {};

TEST_P(MemTableConcurrentTest, AddFromManyThreads) {
  const auto [rep, hash_index] = GetParam();
  InternalKeyComparator icmp(BytewiseComparator());
  MemTable* mem = new MemTable(icmp, rep, hash_index);
  mem->Ref();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  auto key = [](int t, int i) {
    return "w" + std::to_string(t) + "_" + std::to_string(i);
  };
  std::atomic<bool> done{false};
  std::atomic<int> bad_reads{0};
  std::thread reader([&] {
    Random rng(301);
    while (!done.load(std::memory_order_acquire)) {
      const int t = static_cast<int>(rng.Uniform(kThreads));
      const int i = static_cast<int>(rng.Uniform(kPerThread));
      std::string value;
      Status s;
      if (mem->Get(LookupKey(key(t, i), kMaxSequenceNumber), &value, &s) &&
          value != "v" + std::to_string(i)) {
        bad_reads.fetch_add(1);
      }
      std::unique_ptr<Iterator> it(mem->NewIterator());
      std::string prev;
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        const std::string k = it->key().ToString();
        if (!prev.empty() && icmp.Compare(prev, k) >= 0) {
          bad_reads.fetch_add(1);
        }
        prev = k;
      }
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      // Pre-assigned disjoint sequence ranges, as the parallel group apply
      // hands out: thread t owns sequences [t*kPerThread+1, (t+1)*kPerThread].
      SequenceNumber seq = static_cast<SequenceNumber>(t) * kPerThread + 1;
      for (int i = 0; i < kPerThread; i++) {
        mem->Add(seq++, ValueType::kTypeValue, key(t, i),
                 "v" + std::to_string(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(bad_reads.load(), 0);

  EXPECT_EQ(mem->num_entries(), uint64_t{kThreads} * kPerThread);
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPerThread; i++) {
      std::string value;
      Status s;
      ASSERT_TRUE(mem->Get(LookupKey(key(t, i), kMaxSequenceNumber), &value,
                           &s))
          << key(t, i);
      EXPECT_EQ(value, "v" + std::to_string(i));
    }
  }
  std::unique_ptr<Iterator> it(mem->NewIterator());
  uint64_t count = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) count++;
  EXPECT_EQ(count, uint64_t{kThreads} * kPerThread);
  it.reset();
  mem->Unref();
}

INSTANTIATE_TEST_SUITE_P(
    RepsAndHashIndex, MemTableConcurrentTest,
    ::testing::Combine(::testing::Values(MemTable::Rep::kSkipList,
                                         MemTable::Rep::kSortedVector),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) == MemTable::Rep::kSkipList
                             ? "SkipList"
                             : "SortedVector";
      return name + (std::get<1>(info.param) ? "HashIndex" : "");
    });

// -------------------------------------------------------- Order-independence --

// What a memtable takes depends on its entries alone: the same Adds give
// the same ApproximateMemoryUsage after every entry on a fresh thread and
// on one that inserts into a dozen other memtables between them (tower
// heights come from each entry's hash, and the arena keeps no per-thread
// blocks).
TEST(MemTableOrderTest, SameAddsTakeTheSameMemoryOnAnyThread) {
  InternalKeyComparator icmp(BytewiseComparator());
  constexpr int kEntries = 2000;
  constexpr int kOthers = 12;
  auto fill = [&](bool interleave) {
    std::vector<size_t> usage;
    std::thread([&] {
      std::vector<MemTable*> others;
      for (int m = 0; interleave && m < kOthers; m++) {
        others.push_back(new MemTable(icmp));
        others.back()->Ref();
      }
      MemTable* mem = new MemTable(icmp);
      mem->Ref();
      for (int i = 0; i < kEntries; i++) {
        if (interleave) {
          others[i % kOthers]->Add(i + 1, ValueType::kTypeValue,
                                   "other" + std::to_string(i), "x");
        }
        mem->Add(i + 1, ValueType::kTypeValue, "key" + std::to_string(i),
                 std::string(i % 50, 'v'));
        usage.push_back(mem->ApproximateMemoryUsage());
      }
      mem->Unref();
      for (MemTable* other : others) other->Unref();
    }).join();
    return usage;
  };
  const std::vector<size_t> alone = fill(false);
  EXPECT_TRUE(alone == fill(false));
  EXPECT_TRUE(alone == fill(true));
}

/// Keeps the bytes each successful flush wrote, in order.
class FlushSizeRecorder : public EventListener {
 public:
  void OnFlushEnd(const FlushJobInfo& info) override {
    if (info.status.ok()) {
      sizes.push_back(info.bytes_written);
    }
  }

  std::vector<uint64_t> sizes;
};

// The same writes flush at the same points whether the writing thread is
// fresh or first wrote to another database (inline mode: each flush runs
// on the writer that filled the memtable).
TEST(MemTableOrderTest, SameWritesFlushAtTheSamePointsOnAnyThread) {
  std::unique_ptr<Env> env(NewMemEnv());
  auto load = [&](const std::string& dbname, bool warm) {
    auto recorder = std::make_shared<FlushSizeRecorder>();
    std::thread([&] {
      Options options;
      options.env = env.get();
      options.write_buffer_size = 8 << 10;
      if (warm) {
        std::unique_ptr<DB> other;
        ASSERT_TRUE(DB::Open(options, dbname + "-other", &other).ok());
        for (int i = 0; i < 3000; i++) {
          ASSERT_TRUE(
              other->Put({}, "other" + std::to_string(i), "x").ok());
        }
      }
      options.listeners.push_back(recorder);
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
      for (int i = 0; i < 3000; i++) {
        ASSERT_TRUE(db->Put({}, "key" + std::to_string(i),
                            std::string(i % 50, 'v'))
                        .ok());
      }
    }).join();
    return recorder->sizes;
  };
  const std::vector<uint64_t> fresh = load("/fresh", false);
  ASSERT_GE(fresh.size(), 10u);
  EXPECT_EQ(fresh, load("/again", false));
  EXPECT_EQ(fresh, load("/warm", true));
}

INSTANTIATE_TEST_SUITE_P(Reps, MemTableTest,
                         ::testing::Values(MemTable::Rep::kSkipList,
                                           MemTable::Rep::kSortedVector),
                         [](const auto& info) {
                           return info.param == MemTable::Rep::kSkipList
                                      ? "SkipList"
                                      : "SortedVector";
                         });

}  // namespace
}  // namespace lsmlab
