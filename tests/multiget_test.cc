// DB::MultiGet: the batched read path. Covers layering (memtable, frozen
// memtable, L0 runs, deeper levels), duplicate keys, deletes/overwrites,
// key-value separated values, snapshot consistency against a concurrent
// flusher (run under TSan in CI), per-key corruption confinement, and the
// batch's core I/O promise: strictly fewer logical block reads than the
// equivalent looped Gets when keys share blocks. Also: the batch uses the
// tables' hash and learned indexes, the index counts survive compaction
// and concurrent readers, and Get and MultiGet keep separate counters over
// their one lookup core.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/block_cache.h"
#include "core/db.h"
#include "core/write_batch.h"
#include "obs/perf_context.h"
#include "storage/env.h"

namespace lsmlab {
namespace {

std::string TestKey(int i) {
  char key[16];
  std::snprintf(key, sizeof(key), "k%06d", i);
  return key;
}

/// The two table indexes a lookup can use besides fence pointers.
struct IndexVariant {
  const char* name;
  bool block_hash_index;
  TableOptions::IndexType index_type;
};
constexpr IndexVariant kIndexVariants[] = {
    {"block_hash_index", true, TableOptions::IndexType::kBinarySearch},
    {"learned_plr", false, TableOptions::IndexType::kLearnedPlr},
};

class MultiGetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_.reset(NewMemEnv());
    options_.env = env_.get();
    options_.write_buffer_size = 64 << 10;
    options_.level0_compaction_trigger = 100;  // flushes stay distinct runs
    options_.filter_allocation = FilterAllocation::kNone;
  }

  void Open() { ASSERT_TRUE(DB::Open(options_, "/db", &db_).ok()); }

  /// Opens an empty DB on a new MemEnv with `variant`'s table index.
  void ReopenFresh(const IndexVariant& variant) {
    db_.reset();
    env_.reset(NewMemEnv());
    options_.env = env_.get();
    options_.block_hash_index = variant.block_hash_index;
    options_.index_type = variant.index_type;
    Open();
  }

  std::vector<Slice> MakeSlices(const std::vector<std::string>& keys) {
    std::vector<Slice> slices;
    slices.reserve(keys.size());
    for (const std::string& k : keys) {
      slices.emplace_back(k);
    }
    return slices;
  }

  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

// One batch spanning every storage layer at once: a deep compacted level,
// two distinct L0 runs, and the live memtable — plus absent keys in and out
// of range. Every slot must match what looped Get returns.
TEST_F(MultiGetTest, SpansMemtableL0AndDeepLevels) {
  Open();
  ASSERT_TRUE(db_->Put({}, "deep", "v_deep").ok());
  ASSERT_TRUE(db_->Put({}, "zz_pad", "pad").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  ASSERT_TRUE(db_->Put({}, "l0_a", "v_l0_a").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Put({}, "l0_b", "v_l0_b").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Put({}, "mem", "v_mem").ok());

  const std::vector<std::string> keys = {"deep",   "l0_a", "l0_b",
                                         "mem",    "gone", "zzzz_out_of_range"};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db_->MultiGet({}, MakeSlices(keys), &values, &statuses);
  ASSERT_EQ(values.size(), keys.size());
  ASSERT_EQ(statuses.size(), keys.size());

  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(values[0], "v_deep");
  EXPECT_TRUE(statuses[1].ok());
  EXPECT_EQ(values[1], "v_l0_a");
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ(values[2], "v_l0_b");
  EXPECT_TRUE(statuses[3].ok());
  EXPECT_EQ(values[3], "v_mem");
  EXPECT_TRUE(statuses[4].IsNotFound());
  EXPECT_TRUE(statuses[5].IsNotFound());

  // Equivalence with the single-key path for every slot.
  for (size_t i = 0; i < keys.size(); i++) {
    std::string value;
    const Status s = db_->Get({}, keys[i], &value);
    EXPECT_EQ(s.ok(), statuses[i].ok()) << keys[i];
    EXPECT_EQ(s.IsNotFound(), statuses[i].IsNotFound()) << keys[i];
    if (s.ok()) {
      EXPECT_EQ(value, values[i]) << keys[i];
    }
  }
}

TEST_F(MultiGetTest, EmptyBatchIsANoOp) {
  Open();
  std::vector<std::string> values = {"stale"};
  std::vector<Status> statuses = {Status::Corruption("stale")};
  db_->MultiGet({}, std::span<const Slice>(), &values, &statuses);
  EXPECT_TRUE(values.empty());
  EXPECT_TRUE(statuses.empty());
}

// Duplicate keys are independent slots: each gets its own value/status.
TEST_F(MultiGetTest, DuplicateKeysResolvePerSlot) {
  Open();
  ASSERT_TRUE(db_->Put({}, "dup", "v1").ok());
  ASSERT_TRUE(db_->Flush().ok());

  const std::vector<std::string> keys = {"dup", "miss", "dup", "dup"};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db_->MultiGet({}, MakeSlices(keys), &values, &statuses);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].IsNotFound());
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_TRUE(statuses[3].ok());
  EXPECT_EQ(values[0], "v1");
  EXPECT_EQ(values[2], "v1");
  EXPECT_EQ(values[3], "v1");
}

// Tombstones and overwrites must resolve by recency across layers: a delete
// in a newer run shadows the value below it; a newer overwrite wins.
TEST_F(MultiGetTest, DeletesAndOverwritesAcrossRuns) {
  Open();
  ASSERT_TRUE(db_->Put({}, "kill_me", "old").ok());
  ASSERT_TRUE(db_->Put({}, "update_me", "old").ok());
  ASSERT_TRUE(db_->Put({}, "keep_me", "kept").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Delete({}, "kill_me").ok());
  ASSERT_TRUE(db_->Put({}, "update_me", "new").ok());
  ASSERT_TRUE(db_->Flush().ok());

  const std::vector<std::string> keys = {"kill_me", "update_me", "keep_me"};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db_->MultiGet({}, MakeSlices(keys), &values, &statuses);
  EXPECT_TRUE(statuses[0].IsNotFound());
  EXPECT_TRUE(statuses[1].ok());
  EXPECT_EQ(values[1], "new");
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ(values[2], "kept");
}

// An explicit snapshot pins the whole batch to one sequence: writes after
// the snapshot are invisible to every slot.
TEST_F(MultiGetTest, SnapshotPinsTheWholeBatch) {
  Open();
  ASSERT_TRUE(db_->Put({}, "a", "a1").ok());
  ASSERT_TRUE(db_->Put({}, "b", "b1").ok());
  const Snapshot* snap = db_->GetSnapshot();
  ASSERT_TRUE(db_->Put({}, "a", "a2").ok());
  ASSERT_TRUE(db_->Delete({}, "b").ok());
  ASSERT_TRUE(db_->Flush().ok());

  ReadOptions at_snap;
  at_snap.snapshot = snap;
  const std::vector<std::string> keys = {"a", "b"};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db_->MultiGet(at_snap, MakeSlices(keys), &values, &statuses);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(values[0], "a1");
  EXPECT_TRUE(statuses[1].ok());
  EXPECT_EQ(values[1], "b1");

  db_->MultiGet({}, MakeSlices(keys), &values, &statuses);
  EXPECT_EQ(values[0], "a2");
  EXPECT_TRUE(statuses[1].IsNotFound());
  db_->ReleaseSnapshot(snap);
}

// Key-value separation: a batch mixing inline and separated values resolves
// both, and the separated ones go through the value log's batched reader.
TEST_F(MultiGetTest, ResolvesSeparatedValues) {
  options_.value_separation_threshold = 64;
  Open();
  const std::string big_a(200, 'A');
  const std::string big_b(300, 'B');
  ASSERT_TRUE(db_->Put({}, "big_a", big_a).ok());
  ASSERT_TRUE(db_->Put({}, "small", "tiny").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Put({}, "big_b", big_b).ok());
  ASSERT_TRUE(db_->Flush().ok());

  const std::vector<std::string> keys = {"big_a", "small", "big_b", "none"};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db_->MultiGet({}, MakeSlices(keys), &values, &statuses);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(values[0], big_a);
  EXPECT_TRUE(statuses[1].ok());
  EXPECT_EQ(values[1], "tiny");
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ(values[2], big_b);
  EXPECT_TRUE(statuses[3].IsNotFound());

  const DBStats stats = db_->GetStats();
  EXPECT_EQ(stats.separated_reads, 2u);
  EXPECT_EQ(stats.multiget_keys, 4u);
  EXPECT_EQ(stats.multigets, 1u);
}

// The acceptance bar of the batch path: 64 cache-cold lookups with key
// locality must cost strictly fewer logical block reads through MultiGet
// than through looped Get, and the counters must reconcile exactly —
// every key either pays a block read or rides one another key paid for.
TEST_F(MultiGetTest, FewerBlockReadsThanLoopedGets) {
  Open();
  const std::string pad(100, 'x');
  for (int i = 0; i < 512; i++) {
    ASSERT_TRUE(db_->Put({}, TestKey(i), pad + TestKey(i)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  // Fault in footers/indexes so both measurements pay data blocks only.
  std::string value;
  ASSERT_TRUE(db_->Get({}, TestKey(0), &value).ok());

  std::vector<std::string> keys;
  for (int i = 128; i < 192; i++) {
    keys.push_back(TestKey(i));  // 64 contiguous keys: strong block locality
  }

  // Looped Gets, cache-cold (no block cache configured): one data-block
  // read per key.
  const PerfContext before_loop = *GetPerfContext();
  for (const std::string& k : keys) {
    ASSERT_TRUE(db_->Get({}, k, &value).ok());
  }
  const PerfContext d_loop = GetPerfContext()->Delta(before_loop);
  EXPECT_EQ(d_loop.block_read_count, 64u);

  // One MultiGet over the same keys: each distinct block read exactly once.
  const PerfContext before_batch = *GetPerfContext();
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db_->MultiGet({}, MakeSlices(keys), &values, &statuses);
  const PerfContext d_batch = GetPerfContext()->Delta(before_batch);

  for (size_t i = 0; i < keys.size(); i++) {
    ASSERT_TRUE(statuses[i].ok()) << keys[i];
    EXPECT_EQ(values[i], pad + keys[i]);
  }
  EXPECT_LT(d_batch.block_read_count, d_loop.block_read_count);
  EXPECT_EQ(d_batch.multiget_keys, 64u);
  // Exact reconciliation: every key either paid a distinct block read or
  // coalesced onto one.
  EXPECT_EQ(d_batch.block_read_count + d_batch.multiget_coalesced_block_hits,
            64u);
}

// Cache-warm: a batch whose keys share blocks performs one block-cache
// lookup per distinct block, not one per key.
TEST_F(MultiGetTest, OneCacheLookupPerDistinctBlock) {
  BlockCache cache(8 << 20);
  options_.block_cache = &cache;
  Open();
  const std::string pad(100, 'x');
  for (int i = 0; i < 512; i++) {
    ASSERT_TRUE(db_->Put({}, TestKey(i), pad).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactAll().ok());

  std::vector<std::string> keys;
  for (int i = 128; i < 192; i++) {
    keys.push_back(TestKey(i));
  }
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db_->MultiGet({}, MakeSlices(keys), &values, &statuses);  // warm the cache

  const PerfContext before = *GetPerfContext();
  db_->MultiGet({}, MakeSlices(keys), &values, &statuses);
  const PerfContext d = GetPerfContext()->Delta(before);
  for (const Status& s : statuses) {
    ASSERT_TRUE(s.ok());
  }
  EXPECT_EQ(d.block_read_count, 0u);  // fully warm
  const uint64_t distinct_blocks = d.block_cache_hit_count;
  EXPECT_GT(distinct_blocks, 0u);
  EXPECT_LT(distinct_blocks, 64u);  // lookups coalesced, not per key
  EXPECT_EQ(distinct_blocks + d.multiget_coalesced_block_hits, 64u);
}

// Gate Env: blocks SSTable creation while closed, so a frozen memtable
// (imm_) stays frozen and a batch must read through it.
class GateEnv : public Env {
 public:
  explicit GateEnv(Env* base) : base_(base) {}

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    if (fname.size() > 4 && fname.compare(fname.size() - 4, 4, ".sst") == 0) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return !closed_; });
    }
    return base_->NewWritableFile(fname, result);
  }
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }

  void CloseGate() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  void OpenGate() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = false;
    }
    cv_.notify_all();
  }

 private:
  Env* const base_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
};

// A batch that must read from the frozen memtable: freeze mem_ behind a
// gated background flush, then MultiGet keys living only in imm_.
TEST_F(MultiGetTest, ReadsFromFrozenMemtable) {
  GateEnv gate(env_.get());
  options_.env = &gate;
  options_.background_compaction = true;
  // Must sit well above the arena's initial block (4 KiB), or an empty
  // memtable already looks full and the write path freezes forever.
  options_.write_buffer_size = 16 << 10;
  Open();

  ASSERT_TRUE(db_->Put({}, "old", "v_old").ok());
  ASSERT_TRUE(db_->Flush().ok());  // on disk while the gate is still open

  gate.CloseGate();
  // Overflow the write buffer: mem_ freezes into imm_, and the background
  // flush parks on the gate before it can write the table out.
  const std::string big(32 << 10, 'f');
  ASSERT_TRUE(db_->Put({}, "frozen", big).ok());
  ASSERT_TRUE(db_->Put({}, "trigger", "x").ok());  // lands in the fresh mem
  ASSERT_TRUE(db_->Put({}, "live", "v_live").ok());

  const int files_while_gated = db_->GetStats().total_files;

  const std::vector<std::string> keys = {"frozen", "live", "old", "none"};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db_->MultiGet({}, MakeSlices(keys), &values, &statuses);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_EQ(values[0], big);
  EXPECT_TRUE(statuses[1].ok());
  EXPECT_EQ(values[1], "v_live");
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ(values[2], "v_old");
  EXPECT_TRUE(statuses[3].IsNotFound());

  gate.OpenGate();
  ASSERT_TRUE(db_->Flush().ok());
  // The gated answer really came from memory: no table file landed between
  // the freeze and the gate opening.
  EXPECT_GE(db_->GetStats().total_files, files_while_gated);
  db_->MultiGet({}, MakeSlices(keys), &values, &statuses);
  EXPECT_EQ(values[0], big);
  EXPECT_EQ(values[1], "v_live");
  db_.reset();
}

// Snapshot consistency against a concurrent flusher (TSan leg): a writer
// commits {a=i, b=i} atomically per round and flushes periodically; every
// batch must observe a == b, since the whole batch pins one sequence.
TEST_F(MultiGetTest, ConsistentUnderConcurrentFlush) {
  options_.write_buffer_size = 16 << 10;
  options_.level0_compaction_trigger = 4;
  Open();
  ASSERT_TRUE(db_->Put({}, "a", "0").ok());
  ASSERT_TRUE(db_->Put({}, "b", "0").ok());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    const std::string pad(512, 'p');  // forces real flush pressure
    for (int i = 1; i <= 200; i++) {
      WriteBatch batch;
      const std::string v = std::to_string(i);
      batch.Put("a", v);
      batch.Put("b", v);
      batch.Put("pad" + v, pad);
      ASSERT_TRUE(db_->Write({}, &batch).ok());
      if (i % 20 == 0) {
        ASSERT_TRUE(db_->Flush().ok());
      }
    }
    stop.store(true);
  });

  const std::vector<std::string> keys = {"a", "b"};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  int batches = 0;
  // do-while: a fast writer can finish all 200 rounds before this thread
  // first checks stop, so guarantee at least one batch runs.
  do {
    db_->MultiGet({}, MakeSlices(keys), &values, &statuses);
    ASSERT_TRUE(statuses[0].ok());
    ASSERT_TRUE(statuses[1].ok());
    ASSERT_EQ(values[0], values[1]) << "batch saw a torn write";
    batches++;
  } while (!stop.load());
  writer.join();
  EXPECT_GT(batches, 0);
  db_->MultiGet({}, MakeSlices(keys), &values, &statuses);
  EXPECT_EQ(values[0], "200");
  EXPECT_EQ(values[1], "200");
}

// Corruption confinement: flip a byte inside the data block holding one
// key's value. In the same batch, that key (and only keys sharing its
// block) must fail with Corruption while keys in other blocks resolve.
TEST_F(MultiGetTest, CorruptBlockFailsOnlyItsOwnKeys) {
  Open();
  const std::string pad(100, 'x');
  // Unique, searchable payload for the victim key, far from the others.
  const std::string victim_value(120, 'V');
  for (int i = 0; i < 512; i++) {
    ASSERT_TRUE(db_->Put({}, TestKey(i), i == 256 ? victim_value : pad).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactAll().ok());
  db_.reset();  // close so the corrupted image is re-read from scratch

  // Find the table file and flip one byte inside the victim's value.
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("/db", &children).ok());
  std::string table_name;
  for (const std::string& child : children) {
    if (child.size() > 4 &&
        child.compare(child.size() - 4, 4, ".sst") == 0) {
      std::string image;
      ASSERT_TRUE(ReadFileToString(env_.get(), "/db/" + child, &image).ok());
      const size_t pos = image.find(victim_value);
      if (pos == std::string::npos) {
        continue;
      }
      image[pos + 10] ^= 0x01;
      ASSERT_TRUE(WriteStringToFile(env_.get(), image, "/db/" + child).ok());
      table_name = child;
      break;
    }
  }
  ASSERT_FALSE(table_name.empty()) << "victim value not found in any table";

  Open();
  // First and last key live far from the corrupt block; the victim and its
  // immediate neighbor share it.
  const std::vector<std::string> keys = {TestKey(0), TestKey(256),
                                         TestKey(511)};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db_->MultiGet({}, MakeSlices(keys), &values, &statuses);
  EXPECT_TRUE(statuses[0].ok()) << statuses[0].ToString();
  EXPECT_EQ(values[0], pad);
  EXPECT_TRUE(statuses[1].IsCorruption()) << statuses[1].ToString();
  EXPECT_TRUE(statuses[2].ok()) << statuses[2].ToString();
  EXPECT_EQ(values[2], pad);
}

// Ticker-level reconciliation across a mixed batch: multiget.keys counts
// submissions, memtable hits and runs probed split the rest, and the gets
// tickers stay untouched (MultiGet is not N Gets).
TEST_F(MultiGetTest, TickersReconcile) {
  Open();
  ASSERT_TRUE(db_->Put({}, "table_key", "tv").ok());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->Put({}, "mem_key", "mv").ok());

  const std::vector<std::string> keys = {"mem_key", "table_key", "absent"};
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db_->MultiGet({}, MakeSlices(keys), &values, &statuses);

  const DBStats stats = db_->GetStats();
  EXPECT_EQ(stats.multigets, 1u);
  EXPECT_EQ(stats.multiget_keys, 3u);
  EXPECT_EQ(stats.memtable_hits, 1u);  // "mem_key"
  // "table_key" probed the run and hit; "absent" is out of the run's range
  // ("absent" < "table_key"): fence pointers reject it without a probe.
  EXPECT_EQ(stats.runs_probed, 1u);
  EXPECT_EQ(stats.gets, 0u);
  EXPECT_EQ(stats.gets_found, 0u);

  std::string dump;
  ASSERT_TRUE(db_->GetProperty("lsmlab.stats", &dump));
  EXPECT_NE(dump.find("ticker.multiget.batches=1"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("ticker.multiget.keys=3"), std::string::npos) << dump;
  EXPECT_NE(dump.find("histogram.multiget_micros"), std::string::npos)
      << dump;
}

// With Bloom filters on, a batch of absent keys is pruned before any block
// I/O: multiget.filter_pruned reconciles exactly with filter negatives.
TEST_F(MultiGetTest, FilterFirstPruning) {
  options_.filter_allocation = FilterAllocation::kUniform;
  options_.filter_bits_per_key = 10.0;
  Open();
  for (int i = 0; i < 128; i++) {
    ASSERT_TRUE(db_->Put({}, TestKey(i), "v").ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  // Warm: open the table outside the measured window.
  std::string value;
  ASSERT_TRUE(db_->Get({}, TestKey(0), &value).ok());

  std::vector<std::string> keys;
  for (int i = 0; i < 32; i++) {
    keys.push_back(TestKey(i) + "!");  // in-range, absent
  }
  const PerfContext before = *GetPerfContext();
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db_->MultiGet({}, MakeSlices(keys), &values, &statuses);
  const PerfContext d = GetPerfContext()->Delta(before);

  for (const Status& s : statuses) {
    EXPECT_TRUE(s.IsNotFound());
  }
  // Every filter rejection was recorded as a pruned batch probe, and only
  // false positives (probes - negatives) can have cost block reads.
  EXPECT_EQ(d.multiget_filter_pruned, d.filter_negative_count);
  EXPECT_GT(d.multiget_filter_pruned, 0u);
  EXPECT_LE(d.block_read_count, d.filter_probe_count - d.filter_negative_count);
}

// A batch runs the table's whole lookup sequence, exactly like Get: on
// tables with an in-block hash index, or with a learned fence index, the
// batch uses it, and every slot still equals its looped Get.
TEST_F(MultiGetTest, UsesHashAndLearnedIndexes) {
  for (const IndexVariant& variant : kIndexVariants) {
    SCOPED_TRACE(variant.name);
    ReopenFresh(variant);
    for (int i = 0; i < 1024; i += 2) {  // even keys present, odd absent
      ASSERT_TRUE(db_->Put({}, TestKey(i), "v" + TestKey(i)).ok());
    }
    ASSERT_TRUE(db_->Flush().ok());
    ASSERT_TRUE(db_->CompactAll().ok());

    std::vector<std::string> keys;
    for (int i = 300; i < 364; i++) {
      keys.push_back(TestKey(i));
    }
    keys.push_back(TestKey(300));  // a duplicate slot
    const DBStats before = db_->GetStats();
    std::vector<std::string> values;
    std::vector<Status> statuses;
    db_->MultiGet({}, MakeSlices(keys), &values, &statuses);
    const DBStats after = db_->GetStats();
    if (variant.block_hash_index) {
      EXPECT_GT(after.hash_index_hits + after.hash_index_absent,
                before.hash_index_hits + before.hash_index_absent);
    } else {
      EXPECT_GT(after.learned_index_seeks, before.learned_index_seeks);
    }

    for (size_t i = 0; i < keys.size(); i++) {
      std::string value;
      const Status s = db_->Get({}, keys[i], &value);
      EXPECT_EQ(s.ok(), statuses[i].ok()) << keys[i];
      EXPECT_EQ(s.IsNotFound(), statuses[i].IsNotFound()) << keys[i];
      if (s.ok()) {
        EXPECT_EQ(value, values[i]) << keys[i];
      }
    }
  }
}

// The index counts DBStats reports are DB-lifetime tickers: a compaction
// that retires the tables which served the lookups must not take their
// counts along.
TEST_F(MultiGetTest, IndexCountersSurviveCompaction) {
  for (const IndexVariant& variant : kIndexVariants) {
    SCOPED_TRACE(variant.name);
    ReopenFresh(variant);
    // Two overlapping runs, so CompactAll merges them into new tables.
    for (int round = 0; round < 2; round++) {
      for (int i = 0; i < 1024; i += 2) {
        ASSERT_TRUE(db_->Put({}, TestKey(i), "v" + std::to_string(round)).ok());
      }
      ASSERT_TRUE(db_->Flush().ok());
    }
    std::vector<std::string> keys;
    for (int i = 0; i < 1024; i += 3) {
      std::string value;
      const Status st = db_->Get({}, TestKey(i), &value);
      EXPECT_EQ(st.ok(), i % 2 == 0) << st.ToString();
      keys.push_back(TestKey(i + 1));
    }
    std::vector<std::string> values;
    std::vector<Status> statuses;
    db_->MultiGet({}, MakeSlices(keys), &values, &statuses);

    const DBStats before = db_->GetStats();
    if (variant.block_hash_index) {
      ASSERT_GT(before.hash_index_hits, 0u);
      ASSERT_GT(before.hash_index_absent, 0u);
    } else {
      ASSERT_GT(before.learned_index_seeks, 0u);
    }
    ASSERT_TRUE(db_->CompactAll().ok());
    const DBStats after = db_->GetStats();
    EXPECT_GE(after.hash_index_hits, before.hash_index_hits);
    EXPECT_GE(after.hash_index_absent, before.hash_index_absent);
    EXPECT_GE(after.learned_index_seeks, before.learned_index_seeks);
  }
}

// Concurrent readers of one table each count their index work in their own
// PerfContext; the DB-wide index counts are exactly the sum of those
// per-thread deltas (no lost updates, no data race under TSan).
TEST_F(MultiGetTest, ConcurrentReadersCountIndexHits) {
  constexpr int kThreads = 4;
  constexpr int kKeys = 1024;
  for (const IndexVariant& variant : kIndexVariants) {
    SCOPED_TRACE(variant.name);
    ReopenFresh(variant);
    for (int i = 0; i < kKeys; i += 2) {  // even keys present, odd absent
      ASSERT_TRUE(db_->Put({}, TestKey(i), "v").ok());
    }
    ASSERT_TRUE(db_->Flush().ok());

    const DBStats before = db_->GetStats();
    std::vector<PerfContext> deltas(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&, t] {
        const PerfContext start = *GetPerfContext();
        std::string value;
        std::vector<std::string> batch;
        for (int i = t; i < kKeys; i += kThreads) {
          const Status st = db_->Get({}, TestKey(i), &value);
          EXPECT_EQ(st.ok(), i % 2 == 0) << st.ToString();
          batch.push_back(TestKey(kKeys - 1 - i));
          if (batch.size() == 16) {
            std::vector<std::string> values;
            std::vector<Status> statuses;
            db_->MultiGet({}, MakeSlices(batch), &values, &statuses);
            batch.clear();
          }
        }
        deltas[t] = GetPerfContext()->Delta(start);
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    const DBStats after = db_->GetStats();

    uint64_t hash_hits = 0;
    uint64_t hash_absent = 0;
    uint64_t learned_seeks = 0;
    for (const PerfContext& d : deltas) {
      hash_hits += d.hash_index_hit_count;
      hash_absent += d.hash_index_absent_count;
      learned_seeks += d.learned_index_seek_count;
    }
    if (variant.block_hash_index) {
      EXPECT_GT(hash_hits, 0u);
    } else {
      EXPECT_GT(learned_seeks, 0u);
    }
    EXPECT_EQ(after.hash_index_hits - before.hash_index_hits, hash_hits);
    EXPECT_EQ(after.hash_index_absent - before.hash_index_absent,
              hash_absent);
    EXPECT_EQ(after.learned_index_seeks - before.learned_index_seeks,
              learned_seeks);
  }
}

// Snapshot reads of one user key whose versions straddle many tiny blocks,
// with the block hash index on: every snapshot sees its own version,
// through MultiGet and Get alike.
TEST_F(MultiGetTest, SnapshotReadsAcrossStraddlingVersions) {
  options_.block_size = 256;
  options_.block_hash_index = true;
  Open();
  ASSERT_TRUE(db_->Put({}, "a_before", "x").ok());
  ASSERT_TRUE(db_->Put({}, "z_after", "x").ok());
  std::vector<const Snapshot*> snapshots;
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(
        db_->Put({}, "hot", std::string(100, 'a' + i % 26) + std::to_string(i))
            .ok());
    snapshots.push_back(db_->GetSnapshot());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactAll().ok());

  for (int i = 0; i < 40; i++) {
    const std::string expected =
        std::string(100, 'a' + i % 26) + std::to_string(i);
    ReadOptions ropts;
    ropts.snapshot = snapshots[i];
    const std::vector<std::string> keys = {"hot", "hot", "z_after"};
    std::vector<std::string> values;
    std::vector<Status> statuses;
    db_->MultiGet(ropts, MakeSlices(keys), &values, &statuses);
    for (size_t j = 0; j < 2; j++) {
      ASSERT_TRUE(statuses[j].ok()) << i << ": " << statuses[j].ToString();
      EXPECT_EQ(values[j], expected) << i;
    }
    EXPECT_TRUE(statuses[2].ok()) << i;
    std::string value;
    ASSERT_TRUE(db_->Get(ropts, "hot", &value).ok()) << i;
    EXPECT_EQ(value, expected) << i;
  }
  for (const Snapshot* snapshot : snapshots) {
    db_->ReleaseSnapshot(snapshot);
  }
}

// Learned picks work on the 8-byte numeric image of a key, so keys longer
// than 8 bytes tie with the fence of an earlier block. Such a key runs off
// the end of the picked block and must retry through the fence pointers.
TEST_F(MultiGetTest, LearnedPickRetriesThroughFences) {
  options_.index_type = TableOptions::IndexType::kLearnedPlr;
  Open();
  auto long_key = [](int i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%08d", i);  // 9 bytes
    return std::string(key);
  };
  for (int i = 0; i < 4000; i += 2) {  // even keys present, odd absent
    ASSERT_TRUE(db_->Put({}, long_key(i), "v" + long_key(i)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactAll().ok());

  std::vector<std::string> keys;
  for (int i = 0; i < 4000; i++) {
    keys.push_back(long_key(i));
  }
  const DBStats before = db_->GetStats();
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db_->MultiGet({}, MakeSlices(keys), &values, &statuses);
  EXPECT_GT(db_->GetStats().learned_index_seeks, before.learned_index_seeks);
  for (int i = 0; i < 4000; i++) {
    if (i % 2 == 0) {
      ASSERT_TRUE(statuses[i].ok()) << keys[i] << ": "
                                    << statuses[i].ToString();
      EXPECT_EQ(values[i], "v" + keys[i]);
    } else {
      EXPECT_TRUE(statuses[i].IsNotFound()) << keys[i];
    }
    std::string value;
    const Status s = db_->Get({}, keys[i], &value);
    EXPECT_EQ(s.ok(), statuses[i].ok()) << keys[i];
    if (s.ok()) {
      EXPECT_EQ(value, values[i]) << keys[i];
    }
  }
}

// Get and MultiGet share one lookup core but keep their own counters:
// a Get moves gets and filter_skips, never the multiget tickers; a MultiGet
// never moves gets or gets_found.
TEST_F(MultiGetTest, CountersStayPerApi) {
  options_.filter_allocation = FilterAllocation::kUniform;
  options_.filter_bits_per_key = 10.0;
  Open();
  for (int i = 0; i < 128; i++) {
    ASSERT_TRUE(db_->Put({}, TestKey(i), "v").ok());
  }
  ASSERT_TRUE(db_->Flush().ok());

  DBStats before = db_->GetStats();
  for (int i = 0; i < 32; i++) {
    std::string value;
    EXPECT_TRUE(db_->Get({}, TestKey(i) + "!", &value).IsNotFound());
  }
  DBStats after = db_->GetStats();
  EXPECT_EQ(after.gets - before.gets, 32u);
  EXPECT_GT(after.filter_skips, before.filter_skips);
  EXPECT_EQ(after.multigets, before.multigets);
  EXPECT_EQ(after.multiget_keys, before.multiget_keys);
  EXPECT_EQ(after.multiget_filter_pruned, before.multiget_filter_pruned);

  std::vector<std::string> keys;
  for (int i = 0; i < 32; i++) {
    keys.push_back(TestKey(i));
    keys.push_back(TestKey(i) + "!");
  }
  before = after;
  std::vector<std::string> values;
  std::vector<Status> statuses;
  db_->MultiGet({}, MakeSlices(keys), &values, &statuses);
  after = db_->GetStats();
  EXPECT_EQ(after.gets, before.gets);
  EXPECT_EQ(after.gets_found, before.gets_found);
  EXPECT_EQ(after.multigets - before.multigets, 1u);
  EXPECT_EQ(after.multiget_keys - before.multiget_keys, keys.size());
  EXPECT_GT(after.multiget_filter_pruned, before.multiget_filter_pruned);
  EXPECT_EQ(after.multiget_filter_pruned - before.multiget_filter_pruned,
            after.filter_skips - before.filter_skips);
}

}  // namespace
}  // namespace lsmlab
