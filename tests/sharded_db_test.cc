// Sharded keyspace correctness: routing stability, cross-shard iterator
// ordering and snapshot consistency under concurrent writes, per-shard
// WriteBatch atomicity, property and GetStats aggregation, and clean
// shutdown with background work queued on every shard. Run under
// -DLSMLAB_SANITIZE=thread (the tsan-obs CI leg) to prove the router adds
// no races.

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/db.h"
#include "core/sharded_db.h"
#include "storage/env.h"

namespace lsmlab {
namespace {

std::string Key(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

class ShardedDBTest : public ::testing::Test {
 protected:
  void SetUp() override { env_.reset(NewMemEnv()); }

  Options ShardedOptions(int num_shards) {
    Options options;
    options.env = env_.get();
    options.num_shards = num_shards;
    return options;
  }

  void Open(const Options& options) {
    ASSERT_TRUE(DB::Open(options, "/db", &db_).ok());
  }

  /// First `count` keys of the form key<i> that route to `shard`.
  std::vector<std::string> KeysOnShard(int num_shards, int shard,
                                       int count) {
    std::vector<std::string> keys;
    for (int i = 0; static_cast<int>(keys.size()) < count; i++) {
      std::string k = Key(i);
      if (static_cast<int>(ShardOfKey(Slice(k),
                                      static_cast<uint32_t>(num_shards))) ==
          shard) {
        keys.push_back(std::move(k));
      }
    }
    return keys;
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<DB> db_;
};

TEST_F(ShardedDBTest, RoutingIsDeterministicAndCoversEveryShard) {
  constexpr uint32_t kShards = 8;
  std::vector<int> hits(kShards, 0);
  for (int i = 0; i < 4000; i++) {
    const std::string k = Key(i);
    const uint32_t shard = ShardOfKey(Slice(k), kShards);
    ASSERT_LT(shard, kShards);
    // Pure function of the key bytes: recomputing must agree.
    ASSERT_EQ(shard, ShardOfKey(Slice(k), kShards));
    hits[shard]++;
  }
  // A uniform hash over 4000 keys puts roughly 500 on each of 8 shards;
  // an empty (or wildly skewed) shard means the routing is broken.
  for (uint32_t s = 0; s < kShards; s++) {
    EXPECT_GT(hits[s], 200) << "shard " << s << " underloaded";
  }
}

TEST_F(ShardedDBTest, SameKeyLandsOnSameShardAcrossReopen) {
  constexpr int kShards = 4;
  constexpr int kKeys = 400;
  Open(ShardedOptions(kShards));
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  db_.reset();

  Open(ShardedOptions(kShards));
  auto* sharded = static_cast<ShardedDB*>(db_.get());
  std::string value;
  for (int i = 0; i < kKeys; i++) {
    const std::string k = Key(i);
    // Through the router...
    ASSERT_TRUE(db_->Get({}, k, &value).ok()) << k;
    EXPECT_EQ(value, "v" + std::to_string(i));
    // ...and pinned to the very shard the routing hash names: the key's
    // data must live there (not merely be findable somewhere).
    const int shard = static_cast<int>(ShardOfKey(Slice(k), kShards));
    ASSERT_TRUE(sharded->TEST_Shard(shard)->Get({}, k, &value).ok())
        << k << " not on shard " << shard << " after reopen";
    for (int other = 0; other < kShards; other++) {
      if (other != shard) {
        EXPECT_TRUE(
            sharded->TEST_Shard(other)->Get({}, k, &value).IsNotFound())
            << k << " leaked onto shard " << other;
      }
    }
  }
}

TEST_F(ShardedDBTest, ReopenWithDifferentShardCountIsRefused) {
  Open(ShardedOptions(4));
  ASSERT_TRUE(db_->Put({}, Key(1), "v").ok());
  db_.reset();

  std::unique_ptr<DB> db;
  Status s = DB::Open(ShardedOptions(2), "/db", &db);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  // Opening the sharded root as a plain single-instance DB must also be
  // refused — it would present an empty database.
  s = DB::Open(ShardedOptions(1), "/db", &db);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  // The recorded count still opens.
  ASSERT_TRUE(DB::Open(ShardedOptions(4), "/db", &db).ok());
  std::string value;
  ASSERT_TRUE(db->Get({}, Key(1), &value).ok());
  EXPECT_EQ(value, "v");
}

TEST_F(ShardedDBTest, IteratorMergesShardsInTotalOrder) {
  constexpr int kShards = 4;
  constexpr int kKeys = 500;
  Open(ShardedOptions(kShards));
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), "v" + std::to_string(i)).ok());
  }
  std::unique_ptr<Iterator> iter(db_->NewIterator({}));
  int n = 0;
  std::string prev;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    if (n > 0) {
      ASSERT_LT(prev, iter->key().ToString()) << "order violated at " << n;
    }
    prev = iter->key().ToString();
    ASSERT_EQ(prev, Key(n));
    ASSERT_EQ(iter->value().ToString(), "v" + std::to_string(n));
    n++;
  }
  ASSERT_TRUE(iter->status().ok());
  EXPECT_EQ(n, kKeys);
  // Seek lands on the routed shard's entry within the merged order.
  iter->Seek(Key(123));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->key().ToString(), Key(123));
}

TEST_F(ShardedDBTest, IteratorHoldsConsistentSnapshotVectorUnderWrites) {
  constexpr int kShards = 4;
  constexpr int kKeys = 300;
  Open(ShardedOptions(kShards));
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), "old" + std::to_string(i)).ok());
  }

  // The iterator pins one snapshot per shard at creation; writes that race
  // with the scan — overwrites, deletes, new keys — must stay invisible.
  std::unique_ptr<Iterator> iter(db_->NewIterator({}));
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    int round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const int i = (round * 13) % kKeys;
      db_->Put({}, Key(i), "new" + std::to_string(round)).IgnoreError();
      db_->Delete({}, Key((i + 7) % kKeys)).IgnoreError();
      db_->Put({}, Key(kKeys + round), "late").IgnoreError();
      round++;
    }
  });

  for (int pass = 0; pass < 2; pass++) {
    int n = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      ASSERT_EQ(iter->key().ToString(), Key(n)) << "pass " << pass;
      ASSERT_EQ(iter->value().ToString(), "old" + std::to_string(n));
      n++;
    }
    ASSERT_TRUE(iter->status().ok());
    ASSERT_EQ(n, kKeys) << "pass " << pass;
  }
  stop.store(true, std::memory_order_release);
  mutator.join();
}

TEST_F(ShardedDBTest, ExplicitSnapshotReadsAreStablePerShard) {
  constexpr int kShards = 4;
  Open(ShardedOptions(kShards));
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), "before").ok());
  }
  const Snapshot* snap = db_->GetSnapshot();
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), "after").ok());
  }
  ReadOptions at_snap;
  at_snap.snapshot = snap;
  std::string value;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Get(at_snap, Key(i), &value).ok()) << i;
    EXPECT_EQ(value, "before") << i;
    ASSERT_TRUE(db_->Get({}, Key(i), &value).ok());
    EXPECT_EQ(value, "after") << i;
  }
  // Scan at the snapshot agrees with point reads at the snapshot.
  std::vector<std::pair<std::string, std::string>> results;
  ASSERT_TRUE(db_->Scan(at_snap, Key(0), Key(99), 1000, &results).ok());
  ASSERT_EQ(results.size(), 100u);
  for (const auto& [k, v] : results) {
    EXPECT_EQ(v, "before") << k;
  }
  db_->ReleaseSnapshot(snap);
}

TEST_F(ShardedDBTest, WriteBatchSplitsAcrossShardsAndAppliesFully) {
  constexpr int kShards = 4;
  Open(ShardedOptions(kShards));
  WriteBatch batch;
  for (int i = 0; i < 200; i++) {
    batch.Put(Key(i), "b" + std::to_string(i));
  }
  ASSERT_TRUE(db_->Put({}, Key(500), "doomed").ok());
  batch.Delete(Key(500));
  ASSERT_TRUE(db_->Write({}, &batch).ok());
  std::string value;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db_->Get({}, Key(i), &value).ok()) << i;
    EXPECT_EQ(value, "b" + std::to_string(i));
  }
  EXPECT_TRUE(db_->Get({}, Key(500), &value).IsNotFound());
  // The split really fanned out: every shard that owns one of the batch's
  // keys saw at least one write.
  auto* sharded = static_cast<ShardedDB*>(db_.get());
  for (int s = 0; s < kShards; s++) {
    EXPECT_GT(sharded->TEST_Shard(s)->GetStats().writes, 0u)
        << "shard " << s << " never written";
  }
}

TEST_F(ShardedDBTest, WriteBatchIsAtomicPerShardUnderConcurrentReads) {
  constexpr int kShards = 4;
  constexpr int kTargetShard = 1;
  constexpr int kKeysPerBatch = 8;
  constexpr int kRounds = 300;
  Open(ShardedOptions(kShards));
  // All probe keys live on one shard, so each round's batch becomes a
  // single sub-batch committed as one group there. A MultiGet of those
  // keys resolves against one shard snapshot and must therefore observe a
  // whole batch or none of it — never a torn mix of two rounds.
  const std::vector<std::string> keys =
      KeysOnShard(kShards, kTargetShard, kKeysPerBatch);
  auto write_round = [&](int round) {
    WriteBatch batch;
    for (const std::string& k : keys) {
      batch.Put(k, "r" + std::to_string(round));
    }
    ASSERT_TRUE(db_->Write({}, &batch).ok());
  };
  write_round(0);

  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::thread reader([&] {
    std::vector<Slice> key_slices;
    key_slices.reserve(keys.size());
    for (const std::string& k : keys) {
      key_slices.emplace_back(k);
    }
    std::vector<std::string> values;
    std::vector<Status> statuses;
    while (!stop.load(std::memory_order_acquire)) {
      db_->MultiGet({}, key_slices, &values, &statuses);
      for (size_t i = 0; i < keys.size(); i++) {
        if (!statuses[i].ok() || values[i] != values[0]) {
          torn.store(true, std::memory_order_release);
          return;
        }
      }
    }
  });
  for (int round = 1; round <= kRounds; round++) {
    write_round(round);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_FALSE(torn.load()) << "reader observed a torn per-shard batch";
}

TEST_F(ShardedDBTest, MultiGetScattersAndGathersInCallerOrder) {
  constexpr int kShards = 4;
  Open(ShardedOptions(kShards));
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), "v" + std::to_string(i)).ok());
  }
  std::vector<std::string> key_storage;
  for (int i = 99; i >= 0; i--) {
    key_storage.push_back(Key(i));            // present, reverse order
    key_storage.push_back("missing" + Key(i));  // absent
  }
  std::vector<Slice> keys(key_storage.begin(), key_storage.end());
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db_->MultiGet({}, keys, &values, &statuses);
  ASSERT_EQ(values.size(), keys.size());
  ASSERT_EQ(statuses.size(), keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    if (i % 2 == 0) {
      const int id = 99 - static_cast<int>(i) / 2;
      ASSERT_TRUE(statuses[i].ok()) << i;
      EXPECT_EQ(values[i], "v" + std::to_string(id));
    } else {
      EXPECT_TRUE(statuses[i].IsNotFound()) << i;
    }
  }
}

TEST_F(ShardedDBTest, ScanMergesShardsAndHonorsLimit) {
  constexpr int kShards = 4;
  Open(ShardedOptions(kShards));
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), "v" + std::to_string(i)).ok());
  }
  std::vector<std::pair<std::string, std::string>> results;
  ASSERT_TRUE(db_->Scan({}, Key(50), Key(249), 120, &results).ok());
  ASSERT_EQ(results.size(), 120u);
  for (int i = 0; i < 120; i++) {
    EXPECT_EQ(results[i].first, Key(50 + i));
    EXPECT_EQ(results[i].second, "v" + std::to_string(50 + i));
  }
}

// A sharded scan walks one merge over the shards' iterators: it seeks
// every shard once, then reads only the rows the merge emits, so its I/O
// is about that of one tree, not num_shards scans of `limit` rows each.
TEST_F(ShardedDBTest, ScanReadsAboutLimitRows) {
  constexpr int kKeys = 20000;
  constexpr size_t kLimit = 500;
  auto scan_reads = [&](int num_shards) {
    env_.reset(NewMemEnv());
    Options options = ShardedOptions(num_shards);
    options.write_buffer_size = 256 << 10;
    options.max_file_size = 256 << 10;
    Open(options);
    for (int i = 0; i < kKeys; i++) {
      EXPECT_TRUE(db_->Put({}, Key(i), std::string(100, 'a' + i % 26)).ok());
    }
    EXPECT_TRUE(db_->CompactAll().ok());
    std::vector<std::pair<std::string, std::string>> results;
    // The first scan opens the tables; the measured one runs warm.
    EXPECT_TRUE(
        db_->Scan({}, Key(0), Key(kKeys - 1), kLimit, &results).ok());
    const uint64_t before = env_->io_stats()->random_reads.load();
    EXPECT_TRUE(
        db_->Scan({}, Key(0), Key(kKeys - 1), kLimit, &results).ok());
    const uint64_t reads = env_->io_stats()->random_reads.load() - before;
    EXPECT_EQ(results.size(), kLimit);
    for (size_t i = 0; i < results.size(); i++) {
      EXPECT_EQ(results[i].first, Key(static_cast<int>(i)));
    }
    db_.reset();
    return reads;
  };
  const uint64_t one_shard = scan_reads(1);
  const uint64_t four_shards = scan_reads(4);
  ASSERT_GT(one_shard, 0u);
  EXPECT_LE(static_cast<double>(four_shards), 1.5 * one_shard)
      << "1 shard: " << one_shard << " reads, 4 shards: " << four_shards;
}

TEST_F(ShardedDBTest, PropertiesAggregateAcrossShards) {
  constexpr int kShards = 4;
  constexpr int kKeys = 400;
  Open(ShardedOptions(kShards));
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), "v").ok());
  }
  std::string value;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db_->Get({}, Key(i), &value).ok());
  }

  ASSERT_TRUE(db_->GetProperty("lsmlab.num-shards", &value));
  EXPECT_EQ(value, std::to_string(kShards));

  // Aggregated stats equal the sum of the per-shard counters, and every
  // write/get is accounted for exactly once.
  auto ticker_of = [](const std::string& dump,
                      const std::string& name) -> uint64_t {
    const std::string needle = "ticker." + name + "=";
    const size_t pos = dump.find(needle);
    EXPECT_NE(pos, std::string::npos) << name;
    return pos == std::string::npos
               ? 0
               : std::stoull(dump.substr(pos + needle.size()));
  };
  std::string aggregated;
  ASSERT_TRUE(db_->GetProperty("lsmlab.stats", &aggregated));
  uint64_t writes_sum = 0;
  uint64_t gets_sum = 0;
  for (int s = 0; s < kShards; s++) {
    std::string shard_dump;
    ASSERT_TRUE(db_->GetProperty(
        "lsmlab.shard." + std::to_string(s) + ".stats", &shard_dump));
    writes_sum += ticker_of(shard_dump, "writes");
    gets_sum += ticker_of(shard_dump, "gets");
  }
  EXPECT_EQ(ticker_of(aggregated, "writes"), writes_sum);
  EXPECT_EQ(ticker_of(aggregated, "gets"), gets_sum);
  EXPECT_EQ(writes_sum, static_cast<uint64_t>(kKeys));
  EXPECT_EQ(gets_sum, static_cast<uint64_t>(kKeys));
  EXPECT_EQ(db_->GetStats().writes, static_cast<uint64_t>(kKeys));

  // Out-of-range / malformed shard properties answer false, not garbage.
  // An index is bounded like a SHARDS count, so a long digit run can
  // neither overflow an int into a negative index nor wrap onto a shard.
  for (const char* property :
       {"lsmlab.shard.9.stats", "lsmlab.shard.x.stats", "lsmlab.shard.",
        "lsmlab.shard.1", "lsmlab.shard.1x.stats",
        "lsmlab.shard.2147483648.stats", "lsmlab.shard.4294967297.stats",
        "lsmlab.shard.99999999999999999999.stats"}) {
    EXPECT_FALSE(db_->GetProperty(property, &value)) << property;
    EXPECT_TRUE(value.empty()) << property;
  }
}

// GetStats and "lsmlab.stats" on a sharded DB are the shards' registries
// merged: every counter and per-level vector is the sum over the shards,
// and the merged histogram lines hold every shard's samples.
TEST_F(ShardedDBTest, GetStatsIsTheSumOfTheShards) {
  constexpr int kShards = 4;
  constexpr int kKeys = 2000;
  Options options = ShardedOptions(kShards);
  options.write_buffer_size = 4 << 10;
  options.max_file_size = 4 << 10;
  options.level0_compaction_trigger = 2;
  options.block_hash_index = true;
  options.value_separation_threshold = 64;
  Open(options);
  const std::string big(100, 'x');
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), i % 4 == 0 ? big : "v").ok());
  }
  std::string value;
  for (int i = 0; i < kKeys; i += 3) {
    ASSERT_TRUE(db_->Get({}, Key(i), &value).ok());
  }
  std::vector<std::string> keys;
  std::vector<Slice> slices;
  for (int i = 0; i < 64; i++) {
    keys.push_back(Key(i * 7));
  }
  for (const std::string& k : keys) {
    slices.emplace_back(k);
  }
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db_->MultiGet({}, slices, &values, &statuses);
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(db_->Scan({}, Key(100), Key(200), 50, &rows).ok());

  auto* sharded = static_cast<ShardedDB*>(db_.get());
  std::vector<DBStats> shards;
  for (int k = 0; k < kShards; k++) {
    shards.push_back(sharded->TEST_Shard(k)->GetStats());
  }
  const DBStats total = db_->GetStats();

#define EXPECT_SUMMED(field)                           \
  {                                                    \
    uint64_t sum = 0;                                  \
    for (const DBStats& shard : shards) {              \
      sum += static_cast<uint64_t>(shard.field);       \
    }                                                  \
    EXPECT_EQ(static_cast<uint64_t>(total.field), sum) \
        << #field;                                     \
  }
  EXPECT_SUMMED(total_runs);
  EXPECT_SUMMED(total_files);
  EXPECT_SUMMED(total_bytes);
  EXPECT_SUMMED(bytes_flushed);
  EXPECT_SUMMED(bytes_compacted);
  EXPECT_SUMMED(compactions);
  EXPECT_SUMMED(flushes);
  EXPECT_SUMMED(writes);
  EXPECT_SUMMED(group_commits);
  EXPECT_SUMMED(group_followers);
  EXPECT_SUMMED(wal_syncs);
  EXPECT_SUMMED(wal_sync_skipped);
  EXPECT_SUMMED(vlog_syncs);
  EXPECT_SUMMED(parallel_applies);
  EXPECT_SUMMED(serial_applies);
  EXPECT_SUMMED(insert_cas_retries);
  EXPECT_SUMMED(write_slowdowns);
  EXPECT_SUMMED(write_stalls);
  EXPECT_SUMMED(write_slowdown_micros);
  EXPECT_SUMMED(write_stall_micros);
  EXPECT_SUMMED(gets);
  EXPECT_SUMMED(gets_found);
  EXPECT_SUMMED(memtable_hits);
  EXPECT_SUMMED(runs_probed);
  EXPECT_SUMMED(filter_skips);
  EXPECT_SUMMED(range_filter_skips);
  EXPECT_SUMMED(hash_index_hits);
  EXPECT_SUMMED(hash_index_absent);
  EXPECT_SUMMED(learned_index_seeks);
  EXPECT_SUMMED(index_filter_memory);
  EXPECT_SUMMED(multigets);
  EXPECT_SUMMED(multiget_keys);
  EXPECT_SUMMED(multiget_filter_pruned);
  EXPECT_SUMMED(multiget_coalesced_block_hits);
  EXPECT_SUMMED(value_log_bytes);
  EXPECT_SUMMED(value_log_files);
  EXPECT_SUMMED(separated_reads);
#undef EXPECT_SUMMED
  // The workload reached every counted layer.
  EXPECT_EQ(total.writes, static_cast<uint64_t>(kKeys));
  EXPECT_GT(total.compactions, 0u);
  EXPECT_GT(total.hash_index_hits, 0u);
  EXPECT_GT(total.separated_reads, 0u);

  int num_levels = 0;
  std::vector<int> runs_per_level(total.runs_per_level.size(), 0);
  std::vector<uint64_t> bytes_per_level(total.bytes_per_level.size(), 0);
  for (const DBStats& shard : shards) {
    num_levels = std::max(num_levels, shard.num_levels);
    ASSERT_LE(shard.runs_per_level.size(), runs_per_level.size());
    for (size_t i = 0; i < shard.runs_per_level.size(); i++) {
      runs_per_level[i] += shard.runs_per_level[i];
      bytes_per_level[i] += shard.bytes_per_level[i];
    }
  }
  EXPECT_EQ(total.num_levels, num_levels);
  EXPECT_EQ(total.runs_per_level, runs_per_level);
  EXPECT_EQ(total.bytes_per_level, bytes_per_level);

  // One merged line per histogram, in the unsharded dump's format.
  auto get_count = [](const std::string& dump) -> uint64_t {
    const std::string needle = "\nhistogram.get_micros: count=";
    const size_t pos = dump.find(needle);
    EXPECT_NE(pos, std::string::npos) << dump;
    return pos == std::string::npos
               ? 0
               : std::stoull(dump.substr(pos + needle.size()));
  };
  std::string merged;
  ASSERT_TRUE(db_->GetProperty("lsmlab.stats", &merged));
  uint64_t shard_counts = 0;
  for (int k = 0; k < kShards; k++) {
    std::string dump;
    ASSERT_TRUE(db_->GetProperty(
        "lsmlab.shard." + std::to_string(k) + ".stats", &dump));
    shard_counts += get_count(dump);
  }
  EXPECT_EQ(get_count(merged), shard_counts);
  EXPECT_EQ(shard_counts, total.gets);
}

TEST_F(ShardedDBTest, CloseWithBackgroundWorkQueuedOnEveryShardIsClean) {
  // Regression for the kDraining contract: destroying a ShardedDB shuts
  // the shared pool down first, so a shard racing its
  // MaybeScheduleBackgroundWork against the drain has Schedule() return
  // false and must unwind cleanly (no hang, no lost flag, no use of a
  // task that will never run). Tiny buffers + a burst of writes right up
  // to destruction keep background work queued on every shard at close.
  constexpr int kShards = 4;
  for (int cycle = 0; cycle < 3; cycle++) {
    Options options = ShardedOptions(kShards);
    options.background_compaction = true;
    options.write_buffer_size = 8 << 10;
    options.max_file_size = 8 << 10;
    options.level0_compaction_trigger = 2;
    options.size_ratio = 3;
    Open(options);
    const std::string pad(256, 'p');
    for (int i = 0; i < 400; i++) {
      ASSERT_TRUE(db_->Put({}, Key(i), pad + std::to_string(i)).ok());
    }
    db_.reset();  // destructor drains; queued flushes finish or recover

    // Nothing acked may be lost: unflushed tails replay from each
    // shard's WAL on reopen.
    Open(options);
    std::string value;
    for (int i = 0; i < 400; i++) {
      ASSERT_TRUE(db_->Get({}, Key(i), &value).ok())
          << "cycle " << cycle << " key " << i;
      EXPECT_EQ(value, pad + std::to_string(i));
    }
    db_.reset();
    ASSERT_TRUE(DestroyDB(options, "/db").ok());
  }
}

TEST_F(ShardedDBTest, DestroyDBRemovesShardSubdirectories) {
  constexpr int kShards = 4;
  Open(ShardedOptions(kShards));
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db_->Put({}, Key(i), "v").ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  db_.reset();
  ASSERT_TRUE(DestroyDB(ShardedOptions(kShards), "/db").ok());
  for (int s = 0; s < kShards; s++) {
    std::vector<std::string> children;
    env_->GetChildren(ShardPath("/db", s), &children).IgnoreError();
    EXPECT_TRUE(children.empty()) << "shard " << s << " not emptied";
  }
  // The marker is gone too, so the name is reusable at any shard count.
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(ShardedOptions(2), "/db", &db).ok());
}

// A SHARDS marker is outside input: a count past kMaxShards is corruption.
// The 11-digit one would overflow an int, and DestroyDB once destroyed as
// many shards as it parsed to (past a minute on MemEnv); it now sweeps only
// the root. A count within the bound still names the mismatch.
TEST_F(ShardedDBTest, ShardMarkerPastTheBoundIsCorruption) {
  const std::string marker = std::string("/db/") + kShardMarkerFile;
  ASSERT_TRUE(env_->CreateDir("/db").ok());
  Options plain = ShardedOptions(2);
  plain.num_shards = 1;
  std::unique_ptr<DB> db;
  for (const std::string& count :
       {std::to_string(kMaxShards + 1), std::string("99999999999")}) {
    ASSERT_TRUE(WriteStringToFile(env_.get(), count + "\n", marker).ok());
    EXPECT_TRUE(DB::Open(ShardedOptions(2), "/db", &db).IsCorruption())
        << count;
    EXPECT_TRUE(DB::Open(plain, "/db", &db).IsCorruption()) << count;
    ASSERT_TRUE(DestroyDB(ShardedOptions(2), "/db").ok());
    EXPECT_FALSE(env_->FileExists(marker)) << count;
  }
  ASSERT_TRUE(
      WriteStringToFile(env_.get(), std::to_string(kMaxShards) + "\n", marker)
          .ok());
  EXPECT_TRUE(DB::Open(ShardedOptions(2), "/db", &db).IsInvalidArgument());
  ASSERT_TRUE(DestroyDB(ShardedOptions(2), "/db").ok());
  Open(ShardedOptions(2));
}

}  // namespace
}  // namespace lsmlab
