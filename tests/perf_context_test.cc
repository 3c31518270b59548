#include "obs/perf_context.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/db.h"
#include "obs/event_listener.h"
#include "storage/env.h"

namespace lsmlab {
namespace {

// Counter-verified read-path tests: every assertion below is an *exact*
// count derived from the tree shape (N overlapping runs, no block cache),
// so a regression that adds or drops an I/O shows up as an off-by-one here
// rather than as a silent perf change.
class PerfContextTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_.reset(NewMemEnv());
    options_.env = env_.get();
    options_.write_buffer_size = 64 << 10;
    options_.max_file_size = 1 << 20;
    // Keep every flush as its own level-0 run: probe cost per lookup is
    // then exactly (runs whose key range covers the key).
    options_.level0_compaction_trigger = 100;
    options_.filter_allocation = FilterAllocation::kNone;
  }

  void Open() { ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok()); }

  // Three overlapping level-0 runs, newest first at read time:
  //   run 3 (newest): a, q, z       -- "q" only here
  //   run 2        : a, z
  //   run 1 (oldest): a, m, z       -- "m" only here
  // Every run spans [a, z], so a probe for any key in that range must
  // consult each run until it finds a hit.
  void BuildThreeRuns() {
    ASSERT_TRUE(db_->Put({}, "a", "pad1").ok());
    ASSERT_TRUE(db_->Put({}, "m", "from_old").ok());
    ASSERT_TRUE(db_->Put({}, "z", "pad1").ok());
    ASSERT_TRUE(db_->Flush().ok());
    ASSERT_TRUE(db_->Put({}, "a", "pad2").ok());
    ASSERT_TRUE(db_->Put({}, "z", "pad2").ok());
    ASSERT_TRUE(db_->Flush().ok());
    ASSERT_TRUE(db_->Put({}, "a", "pad3").ok());
    ASSERT_TRUE(db_->Put({}, "q", "from_new").ok());
    ASSERT_TRUE(db_->Put({}, "z", "pad3").ok());
    ASSERT_TRUE(db_->Flush().ok());
  }

  // Opens every table (footer/index/filter loads happen once, at open) so
  // subsequent lookups cost exactly their data-block reads.
  void WarmUp() {
    std::string value;
    ASSERT_TRUE(db_->Get({}, "m", &value).ok());
  }

  PerfContext GetDelta(const std::string& key, std::string* value,
                       Status* status) {
    const PerfContext before = *GetPerfContext();
    *status = db_->Get({}, key, value);
    return GetPerfContext()->Delta(before);
  }

  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(PerfContextTest, MemtableHitCostsNoBlockReads) {
  Open();
  ASSERT_TRUE(db_->Put({}, "k", "v").ok());
  std::string value;
  Status s;
  const PerfContext d = GetDelta("k", &value, &s);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(value, "v");
  EXPECT_EQ(d.memtable_hit_count, 1u);
  EXPECT_EQ(d.block_read_count, 0u);
  EXPECT_EQ(d.index_seek_count, 0u);
  EXPECT_EQ(d.filter_probe_count, 0u);
}

TEST_F(PerfContextTest, PointLookupCostIsExactPerRun) {
  Open();
  BuildThreeRuns();
  WarmUp();

  std::string value;
  Status s;

  // "m" lives only in the oldest of three overlapping runs: the lookup
  // must pay one index seek and one data-block read in each run.
  PerfContext d = GetDelta("m", &value, &s);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(value, "from_old");
  EXPECT_EQ(d.index_seek_count, 3u);
  EXPECT_EQ(d.block_read_count, 3u);
  EXPECT_EQ(d.filter_probe_count, 0u);  // filters disabled
  EXPECT_EQ(d.memtable_hit_count, 0u);
  EXPECT_GT(d.block_read_bytes, 0u);

  // "q" lives in the newest run: found on the first probe, so exactly one
  // seek + one block read.
  d = GetDelta("q", &value, &s);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(value, "from_new");
  EXPECT_EQ(d.index_seek_count, 1u);
  EXPECT_EQ(d.block_read_count, 1u);

  // Absent key inside every run's range: all three runs pay, then miss.
  d = GetDelta("mm", &value, &s);
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(d.index_seek_count, 3u);
  EXPECT_EQ(d.block_read_count, 3u);

  // Key outside every file's [smallest, largest]: fence pointers reject
  // all runs without a single I/O.
  d = GetDelta("zz", &value, &s);
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(d.index_seek_count, 0u);
  EXPECT_EQ(d.block_read_count, 0u);
}

TEST_F(PerfContextTest, MultiGetCoalescesSameBlockKeysExactly) {
  Open();
  BuildThreeRuns();
  WarmUp();

  // "a" and "z" both live in the newest run, whose few entries fit one
  // data block. Two looped Gets each pay one block read there; the batch
  // must pay the index seek per key but fetch the shared block once.
  std::vector<std::string> values;
  std::vector<Status> statuses;
  const std::vector<Slice> batch = {Slice("a"), Slice("z")};

  const PerfContext before = *GetPerfContext();
  db_->MultiGet({}, std::span<const Slice>(batch), &values, &statuses);
  const PerfContext d = GetPerfContext()->Delta(before);

  ASSERT_TRUE(statuses[0].ok());
  ASSERT_TRUE(statuses[1].ok());
  EXPECT_EQ(values[0], "pad3");
  EXPECT_EQ(values[1], "pad3");
  EXPECT_EQ(d.multiget_keys, 2u);
  EXPECT_EQ(d.index_seek_count, 2u);       // one fence lookup per key
  EXPECT_EQ(d.block_read_count, 1u);       // the shared block, fetched once
  EXPECT_EQ(d.multiget_coalesced_block_hits, 1u);  // second key rode along
  EXPECT_EQ(d.memtable_hit_count, 0u);

  // The same two keys as looped Gets pay the block read twice: the saving
  // asserted above is exactly the coalesced hit.
  std::string value;
  Status s;
  const PerfContext d_a = GetDelta("a", &value, &s);
  ASSERT_TRUE(s.ok());
  const PerfContext d_z = GetDelta("z", &value, &s);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(d_a.block_read_count + d_z.block_read_count, 2u);
  EXPECT_EQ(d.block_read_count + d.multiget_coalesced_block_hits,
            d_a.block_read_count + d_z.block_read_count);
}

TEST_F(PerfContextTest, CompactedTreeLookupIsSingleProbe) {
  Open();
  BuildThreeRuns();
  ASSERT_TRUE(db_->CompactAll().ok());
  WarmUp();

  std::string value;
  Status s;
  const PerfContext d = GetDelta("m", &value, &s);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(value, "from_old");
  EXPECT_EQ(d.index_seek_count, 1u);
  EXPECT_EQ(d.block_read_count, 1u);
}

TEST_F(PerfContextTest, BloomProbesReconcileWithBlockReads) {
  options_.filter_allocation = FilterAllocation::kUniform;
  options_.filter_bits_per_key = 10.0;
  Open();
  BuildThreeRuns();
  WarmUp();

  std::string value;
  Status s;

  // Every covering run is probed through its filter. The hit run always
  // passes (no false negatives); a miss run passes only on a false
  // positive. So regardless of the filter's luck:
  //   block reads == index seeks == probes - negatives.
  PerfContext d = GetDelta("m", &value, &s);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(d.filter_probe_count, 3u);
  EXPECT_LE(d.filter_negative_count, 2u);
  EXPECT_EQ(d.block_read_count, 3u - d.filter_negative_count);
  EXPECT_EQ(d.index_seek_count, 3u - d.filter_negative_count);

  // Absent key: every probe may reject; the same reconciliation holds.
  d = GetDelta("mm", &value, &s);
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(d.filter_probe_count, 3u);
  EXPECT_EQ(d.block_read_count, 3u - d.filter_negative_count);
  EXPECT_EQ(d.index_seek_count, 3u - d.filter_negative_count);
}

TEST_F(PerfContextTest, WalCountersFollowWriteOptions) {
  Open();
  const PerfContext before = *GetPerfContext();
  ASSERT_TRUE(db_->Put({}, "k1", "v").ok());
  PerfContext d = GetPerfContext()->Delta(before);
  EXPECT_EQ(d.wal_append_count, 1u);
  EXPECT_EQ(d.wal_sync_count, 0u);

  WriteOptions sync_opts;
  sync_opts.sync = true;
  const PerfContext before2 = *GetPerfContext();
  ASSERT_TRUE(db_->Put(sync_opts, "k2", "v").ok());
  d = GetPerfContext()->Delta(before2);
  EXPECT_EQ(d.wal_append_count, 1u);
  EXPECT_EQ(d.wal_sync_count, 1u);
}

TEST_F(PerfContextTest, ScanDrivesMergeIterator) {
  Open();
  BuildThreeRuns();
  // A live memtable entry forces the merging iterator even if the runs
  // alone could degenerate.
  ASSERT_TRUE(db_->Put({}, "b", "live").ok());

  const PerfContext before = *GetPerfContext();
  std::vector<std::pair<std::string, std::string>> results;
  ASSERT_TRUE(db_->Scan({}, "a", "zz", 100, &results).ok());
  const PerfContext d = GetPerfContext()->Delta(before);

  ASSERT_EQ(results.size(), 5u);  // a, b, m, q, z
  EXPECT_GE(d.merge_iter_seek_count, 1u);
  // One heap advance per emitted key at minimum (shadowed versions cost
  // extra steps, never fewer).
  EXPECT_GE(d.merge_iter_step_count, results.size());
}

TEST_F(PerfContextTest, BlockReadsReconcileWithEnvIoStats) {
  Open();
  // Bulkier tree: three runs of 120 keys each with ~100-byte values, so
  // files span multiple 4 KiB blocks and lookups land in different blocks.
  const std::string pad(100, 'x');
  for (int run = 0; run < 3; run++) {
    for (int i = run; i < 360; i += 3) {
      char key[32];
      std::snprintf(key, sizeof(key), "key%06d", i);
      ASSERT_TRUE(db_->Put({}, key, pad).ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
  }

  // Open every table and fault in footers/indexes before measuring.
  std::string value;
  for (int i = 0; i < 360; i++) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d", i);
    ASSERT_TRUE(db_->Get({}, key, &value).ok());
  }

  // From here on, the only Env reads a lookup performs are data-block
  // fetches, charged inside ReadBlock at exactly Read-call granularity:
  // the PerfContext deltas must equal the Env's own accounting.
  env_->io_stats()->Reset();
  const PerfContext before = *GetPerfContext();
  Status s;
  for (int i = 0; i < 360; i += 7) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d", i);
    ASSERT_TRUE(db_->Get({}, key, &value).ok());
    // Sprinkle in misses (in-range, so they really probe).
    std::string miss = std::string(key) + "!";
    s = db_->Get({}, miss, &value);
    EXPECT_TRUE(s.IsNotFound());
  }
  const PerfContext d = GetPerfContext()->Delta(before);

  const IoStats* io = env_->io_stats();
  EXPECT_GT(d.block_read_count, 0u);
  EXPECT_EQ(d.block_read_count, io->random_reads.load());
  EXPECT_EQ(d.block_read_bytes, io->bytes_read.load());
}

TEST_F(PerfContextTest, StatsPropertyReflectsTickers) {
  Open();
  ASSERT_TRUE(db_->Put({}, "k1", "v1").ok());
  ASSERT_TRUE(db_->Put({}, "k2", "v2").ok());
  std::string value;
  ASSERT_TRUE(db_->Get({}, "k1", &value).ok());
  EXPECT_TRUE(db_->Get({}, "nope", &value).IsNotFound());

  std::string stats;
  ASSERT_TRUE(db_->GetProperty("lsmlab.stats", &stats));
  EXPECT_NE(stats.find("ticker.gets=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("ticker.gets.found=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("ticker.memtable.hits=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("ticker.writes=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("ticker.wal.appends=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("histogram.get_micros"), std::string::npos) << stats;

  std::string perf;
  ASSERT_TRUE(db_->GetProperty("lsmlab.perf-context", &perf));
  EXPECT_NE(perf.find("block_read_count="), std::string::npos) << perf;

  std::string io;
  ASSERT_TRUE(db_->GetProperty("lsmlab.io-stats", &io));
  EXPECT_FALSE(io.empty());

  EXPECT_FALSE(db_->GetProperty("lsmlab.unknown", &value));
}

/// One ticker of a stats dump (`property`: lsmlab.stats, or a shard's).
uint64_t TickerOf(DB* db, const std::string& name,
                  const std::string& property = "lsmlab.stats") {
  std::string dump;
  EXPECT_TRUE(db->GetProperty(property, &dump)) << property;
  const std::string field = "ticker." + name + "=";
  const size_t at = dump.find(field);
  EXPECT_NE(at, std::string::npos) << name;
  return at == std::string::npos
             ? 0
             : std::stoull(dump.substr(at + field.size()));
}

/// The fields an operation scope folds into block.reads, index.seeks,
/// merge_iter.seeks and merge_iter.steps: the same counts read from the
/// registry and from the calling thread's PerfContext.
struct ReadCounts {
  uint64_t block_reads = 0;
  uint64_t index_seeks = 0;
  uint64_t merge_seeks = 0;
  uint64_t merge_steps = 0;

  static ReadCounts OfRegistry(DB* db,
                               const std::string& property = "lsmlab.stats") {
    return {TickerOf(db, "block.reads", property),
            TickerOf(db, "index.seeks", property),
            TickerOf(db, "merge_iter.seeks", property),
            TickerOf(db, "merge_iter.steps", property)};
  }
  static ReadCounts OfThread() {
    const PerfContext* perf = GetPerfContext();
    return {perf->block_read_count, perf->index_seek_count,
            perf->merge_iter_seek_count, perf->merge_iter_step_count};
  }
  ReadCounts operator-(const ReadCounts& o) const {
    return {block_reads - o.block_reads, index_seeks - o.index_seeks,
            merge_seeks - o.merge_seeks, merge_steps - o.merge_steps};
  }
  bool operator==(const ReadCounts&) const = default;
};

void PrintTo(const ReadCounts& c, std::ostream* os) {
  *os << "{block.reads=" << c.block_reads << " index.seeks=" << c.index_seeks
      << " merge_iter.seeks=" << c.merge_seeks
      << " merge_iter.steps=" << c.merge_steps << "}";
}

std::string RowKey(int i) {
  char key[32];
  std::snprintf(key, sizeof(key), "row%06d", i);
  return key;
}

// Every DB call is one operation scope, user iterators included: a walk
// over rows folds into the tickers exactly what a Scan over the same rows
// folds, and nested scopes (the Scan's own iterator calls) fold nothing
// twice.
TEST_F(PerfContextTest, IteratorWalkFoldsLikeScan) {
  Open();
  constexpr int kRows = 5000;
  const std::string pad(40, 'v');
  for (int i = 0; i < kRows; i++) {
    ASSERT_TRUE(db_->Put({}, RowKey(i), pad).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  std::vector<std::pair<std::string, std::string>> rows;
  // Opens every table, so neither measured read pays an open.
  ASSERT_TRUE(db_->Scan({}, RowKey(0), RowKey(kRows), kRows, &rows).ok());

  ReadCounts reg = ReadCounts::OfRegistry(db_.get());
  ReadCounts thread = ReadCounts::OfThread();
  ASSERT_TRUE(db_->Scan({}, RowKey(0), RowKey(kRows), kRows, &rows).ok());
  ASSERT_EQ(rows.size(), static_cast<size_t>(kRows));
  const ReadCounts scan = ReadCounts::OfRegistry(db_.get()) - reg;
  EXPECT_EQ(scan, ReadCounts::OfThread() - thread);
  EXPECT_EQ(scan.merge_steps, static_cast<uint64_t>(kRows - 1));
  EXPECT_GT(scan.block_reads, 0u);

  // The same rows through NewIterator, stepped as Scan steps them.
  reg = ReadCounts::OfRegistry(db_.get());
  thread = ReadCounts::OfThread();
  {
    std::unique_ptr<Iterator> it(db_->NewIterator({}));
    int n = 0;
    for (it->Seek(RowKey(0)); it->Valid(); it->Next()) {
      if (++n == kRows) {
        break;
      }
    }
    ASSERT_EQ(n, kRows);
    ASSERT_TRUE(it->status().ok());
  }
  const ReadCounts walk = ReadCounts::OfRegistry(db_.get()) - reg;
  EXPECT_EQ(walk, ReadCounts::OfThread() - thread);
  EXPECT_EQ(walk, scan);
}

// A Get between two steps of a user iterator is its own operation: every
// read of the three calls reaches the tickers once.
TEST_F(PerfContextTest, GetBetweenIteratorStepsCountsOnce) {
  Open();
  BuildThreeRuns();
  WarmUp();
  std::unique_ptr<Iterator> it(db_->NewIterator({}));
  it->Seek("a");
  ASSERT_TRUE(it->Valid());
  const uint64_t gets = TickerOf(db_.get(), "gets");
  const ReadCounts reg = ReadCounts::OfRegistry(db_.get());
  const ReadCounts thread = ReadCounts::OfThread();
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "m");
  std::string value;
  ASSERT_TRUE(db_->Get({}, "m", &value).ok());  // one block read per run
  EXPECT_EQ(value, "from_old");
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "q");
  const ReadCounts moved = ReadCounts::OfRegistry(db_.get()) - reg;
  EXPECT_EQ(moved, ReadCounts::OfThread() - thread);
  EXPECT_EQ(moved.index_seeks, 3u);  // the Get's, one per run
  EXPECT_GE(moved.merge_steps, 2u);
  EXPECT_EQ(TickerOf(db_.get(), "gets"), gets + 1);
}

/// Reads a key back from the DB whose flush just ended.
class GetOnFlushEnd : public EventListener {
 public:
  void OnFlushEnd(const FlushJobInfo& info) override {
    ASSERT_TRUE(info.status.ok());
    found_ = db_->Get({}, "k", &value_).ok();
    flushes_++;
  }

  DB* db_ = nullptr;
  bool found_ = false;
  int flushes_ = 0;
  std::string value_;
};

// Events fire after the operation's scope has closed: a listener that
// calls Get neither deadlocks nor has its reads folded twice (once by the
// Flush and once by its own Get).
TEST_F(PerfContextTest, ListenerGetFromFlushEndCountsOnce) {
  auto listener = std::make_shared<GetOnFlushEnd>();
  options_.listeners.push_back(listener);
  Open();
  listener->db_ = db_.get();
  ASSERT_TRUE(db_->Put({}, "k", "flushed").ok());
  const uint64_t gets = TickerOf(db_.get(), "gets");
  const ReadCounts reg = ReadCounts::OfRegistry(db_.get());
  const ReadCounts thread = ReadCounts::OfThread();
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_EQ(listener->flushes_, 1);
  EXPECT_TRUE(listener->found_);
  EXPECT_EQ(listener->value_, "flushed");
  const ReadCounts moved = ReadCounts::OfRegistry(db_.get()) - reg;
  EXPECT_EQ(moved, ReadCounts::OfThread() - thread);
  EXPECT_EQ(moved.index_seeks, 1u);  // the listener's Get, in the new run
  EXPECT_EQ(TickerOf(db_.get(), "gets"), gets + 1);
  std::string stats;
  ASSERT_TRUE(db_->GetProperty("lsmlab.stats", &stats));
  EXPECT_NE(stats.find("histogram.get_micros: count=1 "), std::string::npos)
      << stats;
}

// A sharded Scan is one operation on the caller's thread: its reads in
// every shard fold into shard 0's tickers, once.
TEST_F(PerfContextTest, ShardedScanFoldsIntoShardZeroOnly) {
  constexpr int kShards = 4;
  options_.num_shards = kShards;
  Open();
  constexpr int kRows = 400;
  for (int i = 0; i < kRows; i++) {
    ASSERT_TRUE(db_->Put({}, RowKey(i), "v").ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  std::vector<std::pair<std::string, std::string>> rows;
  ASSERT_TRUE(db_->Scan({}, RowKey(0), RowKey(kRows), kRows, &rows).ok());

  auto shard = [](int k) {
    return "lsmlab.shard." + std::to_string(k) + ".stats";
  };
  std::vector<ReadCounts> before;
  for (int k = 0; k < kShards; k++) {
    before.push_back(ReadCounts::OfRegistry(db_.get(), shard(k)));
  }
  const ReadCounts thread = ReadCounts::OfThread();
  ASSERT_TRUE(db_->Scan({}, RowKey(0), RowKey(kRows), kRows, &rows).ok());
  ASSERT_EQ(rows.size(), static_cast<size_t>(kRows));
  const ReadCounts scan =
      ReadCounts::OfRegistry(db_.get(), shard(0)) - before[0];
  EXPECT_EQ(scan, ReadCounts::OfThread() - thread);
  EXPECT_GT(scan.block_reads, 0u);
  // Each row past the first steps the merge over the shards and, below it,
  // the merge inside the shard that holds it.
  EXPECT_EQ(scan.merge_steps, 2u * (kRows - 1));
  for (int k = 1; k < kShards; k++) {
    EXPECT_EQ(ReadCounts::OfRegistry(db_.get(), shard(k)), before[k])
        << "shard " << k;
  }
}

TEST_F(PerfContextTest, DeltaAndResetAreFieldwise) {
  PerfContext before = *GetPerfContext();
  GetPerfContext()->block_read_count += 5;
  GetPerfContext()->filter_probe_count += 2;
  const PerfContext d = GetPerfContext()->Delta(before);
  EXPECT_EQ(d.block_read_count, 5u);
  EXPECT_EQ(d.filter_probe_count, 2u);
  EXPECT_EQ(d.index_seek_count, 0u);
  GetPerfContext()->Reset();
  EXPECT_EQ(GetPerfContext()->block_read_count, 0u);
  const std::string s = GetPerfContext()->ToString(true);
  EXPECT_NE(s.find("block_read_count=0"), std::string::npos);
}

}  // namespace
}  // namespace lsmlab
