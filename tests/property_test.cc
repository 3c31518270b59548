// Randomized model-based testing: the DB must behave exactly like a
// std::map under arbitrary interleavings of puts, deletes, gets, multigets,
// scans, flushes, compactions, snapshots, and reopens — across the whole
// design space (merge policies x filters x indexes x caches).

#include <gtest/gtest.h>

#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/block_cache.h"
#include "core/db.h"
#include "filter/filter_policy.h"
#include "rangefilter/range_filter.h"
#include "storage/env.h"
#include "util/random.h"
#include "workload/keygen.h"

namespace lsmlab {
namespace {

struct Config {
  std::string name;
  MergePolicy policy = MergePolicy::kLeveling;
  FilterAllocation filters = FilterAllocation::kUniform;
  bool block_cache = false;
  bool hash_index = false;
  TableOptions::IndexType index_type =
      TableOptions::IndexType::kBinarySearch;
  bool range_filter = false;
  MemTable::Rep memtable = MemTable::Rep::kSkipList;
  bool memtable_hash = false;
  bool kv_separation = false;
  /// allow_concurrent_memtable_write on, and each put action writes
  /// kPutWriters distinct keys from as many threads at once, so writers
  /// queue behind a leader and form multi-writer groups.
  bool concurrent_apply = false;
  /// Flushes and compactions on the background worker instead of the
  /// writing thread; both modes share one flush path.
  bool background = false;
  /// Options::num_shards: above 1, every read runs through ShardedDB.
  int num_shards = 1;
};

class ModelCheckTest : public ::testing::TestWithParam<Config> {
 protected:
  void SetUp() override {
    env_.reset(NewMemEnv());
    const Config& cfg = GetParam();
    options_.env = env_.get();
    options_.merge_policy = cfg.policy;
    options_.size_ratio = 3;
    options_.write_buffer_size = 4 << 10;  // tiny: constant flushing
    options_.max_file_size = 4 << 10;
    options_.level0_compaction_trigger = 2;
    options_.filter_allocation = cfg.filters;
    options_.block_hash_index = cfg.hash_index;
    options_.index_type = cfg.index_type;
    options_.memtable_rep = cfg.memtable;
    options_.memtable_hash_index = cfg.memtable_hash;
    options_.background_compaction = cfg.background;
    options_.allow_concurrent_memtable_write = cfg.concurrent_apply;
    options_.num_shards = cfg.num_shards;
    if (cfg.block_cache) {
      cache_ = std::make_unique<BlockCache>(64 << 10);  // tiny: evictions
      options_.block_cache = cache_.get();
      options_.prefetch_after_compaction = true;
      options_.prefetch_hotness_threshold = 1;
    }
    if (cfg.kv_separation) {
      options_.value_separation_threshold = 8;  // separate most values
      options_.max_vlog_file_bytes = 16 << 10;
    }
    if (cfg.range_filter) {
      range_filter_.reset(NewRosettaRangeFilter(18, 20));
      options_.range_filter_policy = range_filter_.get();
    }
    ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
  }

  static constexpr int kPutWriters = 3;

  // Checks that every committed group of the open DB applied once,
  // serially or in parallel, and returns its parallel applies.
  uint64_t TallyApplies() {
    const DBStats stats = db_->GetStats();
    EXPECT_EQ(stats.parallel_applies + stats.serial_applies,
              stats.group_commits);
    return stats.parallel_applies;
  }

  std::string RandomKey(Random* rng) {
    // Narrow domain so overwrites and deletes hit often.
    return EncodeKey(rng->Uniform(400));
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<BlockCache> cache_;
  std::unique_ptr<const RangeFilterPolicy> range_filter_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_P(ModelCheckTest, MatchesMapModel) {
  Random rng(0xfeed + std::hash<std::string>{}(GetParam().name));
  std::map<std::string, std::string> model;
  // One saved snapshot with its frozen model copy.
  const Snapshot* snapshot = nullptr;
  std::map<std::string, std::string> snapshot_model;

  uint64_t parallel_applies = 0;

  const int kOps = 6000;
  for (int i = 0; i < kOps; i++) {
    const int action = static_cast<int>(rng.Uniform(100));
    if (action < 45 && GetParam().concurrent_apply) {  // concurrent puts
      // Distinct keys, so the model is the same in any commit order.
      std::set<std::string> keys;
      while (keys.size() < kPutWriters) {
        keys.insert(RandomKey(&rng));
      }
      std::latch start(kPutWriters);
      std::vector<Status> statuses(kPutWriters);
      std::vector<std::thread> writers;
      int t = 0;
      for (const std::string& k : keys) {
        // Writer 0's value stays inline; the others pass the separation
        // threshold, so a group mixes inline values and value-log pointers.
        const std::string v = "v" + std::to_string(i) + "." +
                              std::to_string(t) + std::string(8 * t, 'x');
        model[k] = v;
        writers.emplace_back([&, k, v, t] {
          start.arrive_and_wait();
          statuses[t] = db_->Put({}, k, v);
        });
        t++;
      }
      for (std::thread& w : writers) {
        w.join();
      }
      for (const Status& s : statuses) {
        ASSERT_TRUE(s.ok()) << s.ToString();
      }
    } else if (action < 45) {  // put
      const std::string k = RandomKey(&rng);
      // Every other value is padded past the separation threshold, so the
      // separation rows hold both inline values and value-log pointers.
      const std::string v =
          "v" + std::to_string(i) + std::string(i % 2 == 0 ? 8 : 0, 'x');
      ASSERT_TRUE(db_->Put({}, k, v).ok());
      model[k] = v;
    } else if (action < 60) {  // delete
      const std::string k = RandomKey(&rng);
      ASSERT_TRUE(db_->Delete({}, k).ok());
      model.erase(k);
    } else if (action < 74) {  // get
      const std::string k = RandomKey(&rng);
      std::string value;
      Status s = db_->Get({}, k, &value);
      auto it = model.find(k);
      if (it == model.end()) {
        EXPECT_TRUE(s.IsNotFound()) << "key " << DecodeKey(k);
      } else {
        ASSERT_TRUE(s.ok()) << "key " << DecodeKey(k) << ": " << s.ToString();
        EXPECT_EQ(value, it->second);
      }
    } else if (action < 80) {  // multiget, at the latest state or the snapshot
      const bool at_snapshot = snapshot != nullptr && rng.OneIn(2);
      const std::map<std::string, std::string>& expected =
          at_snapshot ? snapshot_model : model;
      std::vector<std::string> keys(1 + rng.Uniform(16));
      for (size_t j = 0; j < keys.size(); j++) {
        // Every fourth slot (on average) repeats an earlier key.
        keys[j] = j > 0 && rng.OneIn(4) ? keys[rng.Uniform(j)]
                                        : RandomKey(&rng);
      }
      const std::vector<Slice> slices(keys.begin(), keys.end());
      ReadOptions ropts;
      ropts.snapshot = at_snapshot ? snapshot : nullptr;
      std::vector<std::string> values;
      std::vector<Status> statuses;
      db_->MultiGet(ropts, slices, &values, &statuses);
      ASSERT_EQ(values.size(), keys.size());
      ASSERT_EQ(statuses.size(), keys.size());
      for (size_t j = 0; j < keys.size(); j++) {
        auto it = expected.find(keys[j]);
        if (it == expected.end()) {
          EXPECT_TRUE(statuses[j].IsNotFound())
              << "key " << DecodeKey(keys[j]) << " snapshot " << at_snapshot;
        } else {
          ASSERT_TRUE(statuses[j].ok())
              << "key " << DecodeKey(keys[j]) << " snapshot " << at_snapshot
              << ": " << statuses[j].ToString();
          EXPECT_EQ(values[j], it->second);
        }
      }
    } else if (action < 88) {  // scan
      uint64_t lo = rng.Uniform(400);
      uint64_t hi = lo + rng.Uniform(50);
      std::vector<std::pair<std::string, std::string>> results;
      ASSERT_TRUE(
          db_->Scan({}, EncodeKey(lo), EncodeKey(hi), 1000, &results).ok());
      auto it = model.lower_bound(EncodeKey(lo));
      size_t idx = 0;
      for (; it != model.end() && it->first <= EncodeKey(hi); ++it, ++idx) {
        ASSERT_LT(idx, results.size())
            << "scan missing key " << DecodeKey(it->first);
        EXPECT_EQ(results[idx].first, it->first);
        EXPECT_EQ(results[idx].second, it->second);
      }
      EXPECT_EQ(idx, results.size());
    } else if (action < 92) {  // flush or full compaction
      if (rng.OneIn(2)) {
        ASSERT_TRUE(db_->Flush().ok());
      } else {
        ASSERT_TRUE(db_->CompactAll().ok());
      }
    } else if (action < 95) {  // snapshot management
      if (snapshot == nullptr) {
        snapshot = db_->GetSnapshot();
        snapshot_model = model;
      } else {
        // Verify a random key at the snapshot, then release it.
        const std::string k = RandomKey(&rng);
        ReadOptions ropts;
        ropts.snapshot = snapshot;
        std::string value;
        Status s = db_->Get(ropts, k, &value);
        auto it = snapshot_model.find(k);
        if (it == snapshot_model.end()) {
          EXPECT_TRUE(s.IsNotFound());
        } else {
          ASSERT_TRUE(s.ok());
          EXPECT_EQ(value, it->second);
        }
        db_->ReleaseSnapshot(snapshot);
        snapshot = nullptr;
      }
    } else {  // reopen (crash-free restart)
      if (snapshot != nullptr) {
        db_->ReleaseSnapshot(snapshot);
        snapshot = nullptr;
      }
      parallel_applies += TallyApplies();
      db_.reset();
      ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok());
    }
  }
  if (snapshot != nullptr) {
    db_->ReleaseSnapshot(snapshot);
  }

  // Final full iteration must equal the model exactly.
  std::unique_ptr<Iterator> it(db_->NewIterator({}));
  auto mit = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++mit) {
    ASSERT_NE(mit, model.end()) << "extra key " << DecodeKey(it->key().ToString());
    EXPECT_EQ(it->key().ToString(), mit->first);
    EXPECT_EQ(it->value().ToString(), mit->second);
  }
  EXPECT_EQ(mit, model.end());
  EXPECT_TRUE(it->status().ok());

  parallel_applies += TallyApplies();
  if (GetParam().concurrent_apply) {
    EXPECT_GT(parallel_applies, 0u);
  }
  if (GetParam().kv_separation) {
    EXPECT_GT(db_->GetStats().value_log_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ModelCheckTest,
    ::testing::Values(
        Config{.name = "leveling_default",
               .policy = MergePolicy::kLeveling},
        Config{.name = "tiering", .policy = MergePolicy::kTiering},
        Config{.name = "lazy", .policy = MergePolicy::kLazyLeveling},
        Config{.name = "monkey_cache",
               .policy = MergePolicy::kLeveling,
               .filters = FilterAllocation::kMonkey,
               .block_cache = true},
        Config{.name = "no_filters",
               .policy = MergePolicy::kTiering,
               .filters = FilterAllocation::kNone},
        Config{.name = "hash_index",
               .policy = MergePolicy::kLeveling,
               .hash_index = true},
        Config{.name = "learned_plr",
               .policy = MergePolicy::kLeveling,
               .index_type = TableOptions::IndexType::kLearnedPlr},
        Config{.name = "radix_spline",
               .policy = MergePolicy::kTiering,
               .index_type = TableOptions::IndexType::kRadixSpline},
        Config{.name = "range_filtered",
               .policy = MergePolicy::kLeveling,
               .range_filter = true},
        Config{.name = "sharded_range_filtered",
               .policy = MergePolicy::kLeveling,
               .range_filter = true,
               .num_shards = 4},
        Config{.name = "vector_memtable",
               .policy = MergePolicy::kLeveling,
               .memtable = MemTable::Rep::kSortedVector,
               .memtable_hash = true},
        Config{.name = "kv_separation",
               .policy = MergePolicy::kLeveling,
               .kv_separation = true},
        Config{.name = "kitchen_sink",
               .policy = MergePolicy::kLazyLeveling,
               .filters = FilterAllocation::kMonkey,
               .block_cache = true,
               .hash_index = true,
               .range_filter = true,
               .memtable_hash = true,
               .kv_separation = true},
        Config{.name = "kv_separation_concurrent_apply_background",
               .policy = MergePolicy::kLeveling,
               .kv_separation = true,
               .concurrent_apply = true,
               .background = true},
        Config{.name = "leveling_background",
               .policy = MergePolicy::kLeveling,
               .background = true},
        Config{.name = "kitchen_sink_background",
               .policy = MergePolicy::kLazyLeveling,
               .filters = FilterAllocation::kMonkey,
               .block_cache = true,
               .hash_index = true,
               .range_filter = true,
               .memtable_hash = true,
               .kv_separation = true,
               .background = true}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace lsmlab
