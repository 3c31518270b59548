// perfbench: the end-to-end benchmark of lsmlab.
//
// One process drives the public DB API over MemEnv with closed-loop
// clients, checks every answer, and prints one JSON object as the last line
// of stdout:
//
//   perfbench --workload read_cold --seed 1 --seconds 40 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
// metrics: it runs the mix once untraced and once with the wrappers of
// trace.h installed, and reconciles their counts with the engine's own
// (IoStats, PerfContext, DBStats). --smoke runs every workload, both ways,
// on a small tree in a few seconds. --list-metrics prints the metric table.
// perfbench/run.py builds this binary and is the usual way to run it.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/block_cache.h"
#include "core/db.h"
#include "obs/perf_context.h"
#include "stats.h"
#include "storage/env.h"
#include "trace.h"
#include "util/hash.h"
#include "util/random.h"
#include "workload/keygen.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using lsmlab::BlockCache;
using lsmlab::DB;
using lsmlab::DBStats;
using lsmlab::EncodeKey;
using lsmlab::Env;
using lsmlab::Options;
using lsmlab::PerfContext;
using lsmlab::Random;
using lsmlab::ReadOptions;
using lsmlab::Slice;
using lsmlab::Status;
using lsmlab::ValueForKey;
using lsmlab::WriteOptions;
using Clock = std::chrono::steady_clock;

constexpr size_t kFullKeys = 200'000;
constexpr size_t kKeyBytes = 8;
constexpr size_t kValueBytes = 100;
constexpr size_t kMultiGetKeys = 16;
constexpr size_t kScanLimit = 50;
constexpr double kZipfTheta = 0.99;
// One MultiGet batch in this many has one slot re-read with Get.
constexpr uint64_t kCrossCheckEvery = 8;

enum Kind { kGet, kAbsent, kMultiGet, kScan, kPut, kNumKinds };
const char* const kKindNames[kNumKinds] = {"get", "get_absent", "multiget",
                                           "scan", "put"};

struct Workload {
  const char* name;
  const char* why;
  size_t cache_bytes;  ///< at kFullKeys, scaled with the key count; 0 = none
  bool background;     ///< background_compaction and concurrent apply
  int clients;
  std::array<int, kNumKinds> mix;  ///< percent per Kind
  bool zipf;                       ///< else uniform
};

// Both load the same 200k uniform even keys with 100-byte values
// (~23 MB) into a leveled tree (T=10, 256 KiB memtable and files, 10
// bits/key Bloom) and compact it. Absent keys are odd, so they fall between
// loaded keys and pass the fence-pointer range checks.
const Workload kWorkloads[] = {
    {"read_cold",
     "cold point reads: storage reads, checksum, decode, index and filter "
     "dominate while memtable, WAL and compaction idle",
     size_t{3} << 20, false, 1, {45, 45, 10, 0, 0}, false},
    // Not YCSB-A (half updates, three clients): three clients and the
    // background worker filled all four cores, the updates outran the one
    // worker, writes stopped for whole windows, and throughput spread by two
    // fifths between runs. One update in ten leaves the worker idle most of
    // the time. The scans stand in for a cache-resident zipf workload, whose
    // medians moved by a quarter between sets of runs on a shared host.
    {"rw_background",
     "zipf reads and scans with 10% updates from two clients next to "
     "background flush and compaction: WAL, group commit, memtable apply, "
     "merging iterator",
     0, true, 2, {80, 0, 0, 10, 10}, true},
};

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  const char* note;  ///< what it measures, or which metric it should move
};

// Only what every workload's mix measures is an end-to-end metric. The
// latencies of the kinds only some mixes run (get_absent_*, multiget_*,
// scan_*, put_*) are in the metadata line under "latency_us"; measured
// outside the timed mix they spread by a third to a half between runs.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower",
     "open, load and CompactAll; median of the run's set-ups"},
    {"throughput_ops_s", "1/s", "higher",
     "timed-mix key operations per second; a MultiGet counts its keys"},
    {"get_p50_us", "us", "lower", "Get of a present key"},
    {"write_amp", "ratio", "lower",
     "storage bytes written per user byte, through the timed mix"},
    {"space_amp", "ratio", "lower",
     "table bytes per live user byte, after a CompactAll that follows the "
     "timed mix when it writes"},
    {"rss_peak_mb", "MB", "lower", "peak resident set of the process"},
};

const MetricDef kPerLayer[] = {
    {"storage.table_read_count_per_op", "count", "lower",
     "get_p50_us, multiget_key_p50_us on read_cold"},
    {"storage.table_read_us_per_op", "us", "lower",
     "get_p50_us, multiget_key_p50_us on read_cold"},
    {"storage.table_read_bytes_per_op", "bytes", "lower",
     "get_p50_us, multiget_key_p50_us on read_cold"},
    {"storage.table_write_us", "us", "lower",
     "setup_s everywhere, put_p99_us on rw_background"},
    {"storage.wal_append_count", "count", "lower",
     "put_p50_us on rw_background"},
    {"storage.wal_append_us_per_write", "us", "lower",
     "put_p50_us on rw_background"},
    {"storage.wal_sync_count", "count", "lower",
     "put_p50_us on rw_background"},
    {"storage.manifest_append_count", "count", "lower",
     "put_p50_us on rw_background"},
    {"format.block_reads_per_get", "count", "lower",
     "get_p50_us on read_cold"},
    {"format.block_read_bytes_per_get", "bytes", "lower",
     "get_p50_us on read_cold"},
    {"cache.hit_ratio", "ratio", "higher", "get_p50_us on read_cold"},
    {"cache.evictions_per_op", "count", "lower", "get_p50_us on read_cold"},
    {"cache.inserts_per_op", "count", "lower", "get_p50_us on read_cold"},
    {"index.seeks_per_get", "count", "lower",
     "get_p50_us on read_cold and rw_background"},
    {"util.key_compares_per_op", "count", "lower",
     "get_p50_us on read_cold and rw_background"},
    {"filter.probes_per_get", "count", "lower",
     "get_absent_p50_us, get_absent_p99_us"},
    {"filter.probe_ns_mean", "ns", "lower",
     "get_absent_p50_us, get_absent_p99_us"},
    {"filter.negative_ratio", "ratio", "higher",
     "get_absent_p50_us, get_absent_p99_us"},
    {"filter.fpr_absent", "ratio", "lower",
     "get_absent_p50_us, get_absent_p99_us"},
    {"filter.build_us", "us", "lower", "setup_s"},
    {"filter.memory_bytes_per_key", "bytes", "lower", "rss_peak_mb"},
    {"memtable.hit_ratio", "ratio", "higher",
     "get_p50_us on rw_background"},
    {"memtable.apply_us_p50", "us", "lower", "put_p50_us on rw_background"},
    {"memtable.cas_retries", "count", "lower",
     "put_p50_us on rw_background"},
    {"memtable.parallel_apply_ratio", "ratio", "higher",
     "put_p50_us on rw_background"},
    {"wal.group_size_mean", "count", "higher",
     "put_p50_us, throughput_ops_s on rw_background"},
    {"wal.queue_wait_us_per_write", "us", "lower",
     "put_p50_us, throughput_ops_s on rw_background"},
    {"core.runs_probed_per_get", "count", "lower", "get_p50_us"},
    {"core.filter_skips_per_get", "count", "higher", "get_p50_us"},
    {"core.multiget_coalesced_ratio", "ratio", "higher",
     "multiget_key_p50_us on read_cold"},
    {"core.multiget_filter_pruned_ratio", "ratio", "higher",
     "multiget_key_p50_us on read_cold"},
    {"core.iter_seeks_per_scan", "count", "lower", "scan_p50_us on rw_background"},
    {"core.iter_steps_per_scan", "count", "lower", "scan_p50_us on rw_background"},
    {"core.residual_us_per_get", "us", "lower",
     "get_p50_us: Get time minus traced table-read and filter time"},
    {"core.residual_us_per_scan", "us", "lower",
     "scan_p50_us: Scan time minus traced table-read and filter time"},
    {"flush.count", "count", "lower",
     "setup_s everywhere; put_p99_us, write_amp on rw_background"},
    {"flush.busy_us", "us", "lower",
     "setup_s everywhere; put_p99_us, throughput_ops_s on rw_background"},
    {"compaction.count", "count", "lower",
     "setup_s everywhere; write_amp on rw_background"},
    {"compaction.busy_us", "us", "lower",
     "setup_s everywhere; put_p99_us, throughput_ops_s on rw_background"},
    {"compaction.bytes_written", "bytes", "lower",
     "setup_s everywhere; write_amp on rw_background"},
    {"background.busy_ratio", "ratio", "lower",
     "put_p99_us, throughput_ops_s on rw_background"},
    {"stall.slowdown_count", "count", "lower",
     "put_p99_us, throughput_ops_s on rw_background"},
    {"stall.memtable_full_count", "count", "lower",
     "put_p99_us, throughput_ops_s on rw_background"},
    {"stall.l0_stop_count", "count", "lower",
     "put_p99_us, throughput_ops_s on rw_background"},
    {"stall.us_per_write", "us", "lower",
     "put_p99_us, throughput_ops_s on rw_background"},
    {"trace.overhead_ratio", "ratio", "higher",
     "traced throughput over untraced throughput"},
};

// ---------------------------------------------------------------------------
// Small JSON writer.

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    out += (out.empty() ? "" : ", ") + JsonNumber(v);
  }
  return "[" + out + "]";
}

class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + JsonString(key) + ": " + json;
    return *this;
  }
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  std::string Build() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Inputs.

struct Scale {
  size_t keys = kFullKeys;
  int setups = 2;
  double seconds = 10;
  int windows = 10;  ///< of the timed mix
};

/// The loaded keys: distinct even numbers, uniform over [0, 2^63).
struct Dataset {
  std::vector<uint64_t> sorted;
  std::vector<uint64_t> load_order;  ///< `sorted`, shuffled
};

Dataset MakeDataset(size_t n, uint64_t seed) {
  Random rng(seed * 0x9E3779B97F4A7C15ull + 1);
  Dataset d;
  while (d.sorted.size() < n) {
    while (d.sorted.size() < n) {
      d.sorted.push_back((rng.Next64() >> 2) << 1);
    }
    std::sort(d.sorted.begin(), d.sorted.end());
    d.sorted.erase(std::unique(d.sorted.begin(), d.sorted.end()),
                   d.sorted.end());
  }
  d.load_order = d.sorted;
  for (size_t i = d.load_order.size(); i > 1; i--) {
    std::swap(d.load_order[i - 1], d.load_order[rng.Uniform(i)]);
  }
  return d;
}

/// rw_background's updates: an 8-byte version, then a payload derived from
/// key and version, so any value read back can be checked on its own.
std::string VersionedValue(const std::string& key, uint64_t version) {
  const std::string v = EncodeKey(version);
  return v + ValueForKey(key + v, kValueBytes - kKeyBytes);
}

/// The loaded value, or (when `versioned`) any update written for `key`.
bool ValueOk(bool versioned, const std::string& key,
             const std::string& value) {
  if (value == ValueForKey(key, kValueBytes)) {
    return true;
  }
  return versioned && value.size() == kValueBytes &&
         value == VersionedValue(key, lsmlab::DecodeKey(value.substr(0, 8)));
}

// ---------------------------------------------------------------------------
// One database with its environment.

struct Instance {
  std::unique_ptr<Env> mem;
  std::unique_ptr<Env> traced_env;
  std::unique_ptr<BlockCache> cache;
  Options options;
  double setup_s = 0;
  uint64_t user_bytes = 0;  ///< key + value bytes written through Put
  std::unique_ptr<DB> db;   // last: closed before what it uses

  lsmlab::IoStats* io() { return mem->io_stats(); }
};

[[noreturn]] void Fatal(const std::string& what, const Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(2);
}

/// Opens, loads and compacts; the whole of it is set-up.
std::unique_ptr<Instance> Setup(const Workload& w, const Dataset& d,
                                bool traced) {
  const auto start = Clock::now();
  auto inst = std::make_unique<Instance>();
  inst->mem.reset(lsmlab::NewMemEnv());
  Options& o = inst->options;
  o.env = inst->mem.get();
  if (traced) {
    inst->traced_env = NewTracingEnv(inst->mem.get());
    o.env = inst->traced_env.get();
    o.comparator = CountingBytewiseComparator();
    o.filter_factory = &NewTracingBloomPolicy;
    o.listeners.push_back(NewTracingListener());
  }
  if (w.cache_bytes != 0) {
    inst->cache = std::make_unique<BlockCache>(
        w.cache_bytes * d.sorted.size() / kFullKeys);
    o.block_cache = inst->cache.get();
  }
  o.merge_policy = lsmlab::MergePolicy::kLeveling;
  o.size_ratio = 10;
  o.write_buffer_size = 256 << 10;
  o.max_file_size = 256 << 10;
  o.filter_allocation = lsmlab::FilterAllocation::kUniform;
  o.filter_bits_per_key = 10;
  o.background_compaction = w.background;
  o.allow_concurrent_memtable_write = w.background;
  if (o.max_levels != kTracedLevels) {
    Fatal("filter tracing numbers levels 0..7", Status::InvalidArgument(""));
  }

  Status s = DB::Open(o, "/perfbench", &inst->db);
  if (!s.ok()) {
    Fatal("open", s);
  }
  for (const uint64_t k : d.load_order) {
    const std::string key = EncodeKey(k);
    s = inst->db->Put(WriteOptions(), key, ValueForKey(key, kValueBytes));
    if (!s.ok()) {
      Fatal("load", s);
    }
    inst->user_bytes += kKeyBytes + kValueBytes;
  }
  s = inst->db->CompactAll();
  if (!s.ok()) {
    Fatal("compact", s);
  }
  inst->setup_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  return inst;
}

// ---------------------------------------------------------------------------
// Clients.

/// PerfContext fields the per-layer metrics use, summed per operation kind.
struct PerfSum {
  uint64_t block_reads = 0;
  uint64_t block_read_bytes = 0;
  uint64_t index_seeks = 0;
  uint64_t iter_seeks = 0;
  uint64_t iter_steps = 0;
  uint64_t queue_wait_us = 0;

  void Add(const PerfContext& d) {
    block_reads += d.block_read_count;
    block_read_bytes += d.block_read_bytes;
    index_seeks += d.index_seek_count;
    iter_seeks += d.merge_iter_seek_count;
    iter_steps += d.merge_iter_step_count;
    queue_wait_us += d.write_queue_wait_micros;
  }
  void Add(const PerfSum& o) {
    block_reads += o.block_reads;
    block_read_bytes += o.block_read_bytes;
    index_seeks += o.index_seeks;
    iter_seeks += o.iter_seeks;
    iter_steps += o.iter_steps;
    queue_wait_us += o.queue_wait_us;
  }
};

/// What the traced run saw inside the operations of one kind.
struct KindTrace {
  double us = 0;
  PerfSum perf;
  Counts counts{};

  void Add(const KindTrace& o) {
    us += o.us;
    perf.Add(o.perf);
    for (size_t i = 0; i < counts.size(); i++) {
      counts[i] += o.counts[i];
    }
  }
};

/// Latencies are kept per window, an equal slice of the timed mix. Each is
/// reported as the median over windows of the window's percentile, so a
/// burst of noise from outside the process moves one window, not the result.
struct Result {
  explicit Result(int windows)
      : multiget_per_key(static_cast<size_t>(windows)),
        window_key_ops(static_cast<size_t>(windows)) {
    lat.fill(std::vector<Samples>(static_cast<size_t>(windows)));
  }

  std::array<std::vector<Samples>, kNumKinds> lat;  ///< MultiGet: batch
  std::vector<Samples> multiget_per_key;
  std::vector<uint64_t> window_key_ops;   ///< timed mix, MultiGet in keys
  std::array<uint64_t, kNumKinds> ops{};  ///< timed mix; MultiGet in batches
  uint64_t key_ops = 0;                   ///< timed mix, MultiGet in keys
  Tally tally;
  std::array<KindTrace, kNumKinds> trace;
  uint64_t perf_filter_probes = 0;  ///< PerfContext, whole client loop

  void Add(const Result& o) {
    for (size_t i = 0; i < window_key_ops.size(); i++) {
      for (int k = 0; k < kNumKinds; k++) {
        lat[k][i].Append(o.lat[k][i]);
      }
      multiget_per_key[i].Append(o.multiget_per_key[i]);
      window_key_ops[i] += o.window_key_ops[i];
    }
    for (int k = 0; k < kNumKinds; k++) {
      ops[k] += o.ops[k];
      trace[k].Add(o.trace[k]);
    }
    key_ops += o.key_ops;
    tally.Add(o.tally);
    perf_filter_probes += o.perf_filter_probes;
  }
};

class Client {
 public:
  Client(const Workload& w, const Dataset& d, DB* db, uint64_t seed, int id,
         bool traced)
      : w_(w),
        d_(d),
        db_(db),
        traced_(traced),
        id_(id),
        seed_(seed),
        rng_(seed * 0x2545F4914F6CDD1Dull + static_cast<uint64_t>(id) + 7) {
    if (w.zipf) {
      zipf_ = lsmlab::NewZipfianGenerator(d.sorted.size(), kZipfTheta,
                                          rng_.Next64(), /*scramble=*/false);
    }
  }

  Kind PickKind() {
    int r = static_cast<int>(rng_.Uniform(100));
    for (int k = 0; k < kNumKinds; k++) {
      if (r < w_.mix[k]) {
        return static_cast<Kind>(k);
      }
      r -= w_.mix[k];
    }
    return kGet;
  }

  /// Runs one operation, records its latency in `window` and checks its
  /// answer. Returns when it ended.
  Clock::time_point Run(Kind kind, Result* r, size_t window) {
    Counts c0{};
    PerfContext p0;
    if (traced_) {
      c0 = Trace::Get().Local();
      p0 = *lsmlab::GetPerfContext();
    }
    // Every client of a window derives the same hash seed: one hot set.
    hot_seed_ = seed_ * 0xD1B54A32D192ED03ull + window;
    Clock::time_point end;
    Tally t;
    const double us = Execute(kind, &t, &end);
    r->lat[kind][window].Add(us);
    if (kind == kMultiGet) {
      r->multiget_per_key[window].Add(us / kMultiGetKeys);
    }
    if (traced_) {
      KindTrace& kt = r->trace[kind];
      kt.us += us;
      kt.perf.Add(lsmlab::GetPerfContext()->Delta(p0));
      const Counts delta = Trace::Get().Local() - c0;
      for (size_t i = 0; i < delta.size(); i++) {
        kt.counts[i] += delta[i];
      }
    }
    r->tally.Add(t);
    return end;
  }

 private:
  // Zipf ranks map to keys through a hash seeded afresh for each window, as
  // YCSB scrambles them. Which keys are hottest, and so where they sit in
  // their blocks, otherwise follows the run's seed alone and moved a
  // cache-resident zipf mix's medians by a sixth from seed to seed; with a
  // hot set per window the median over windows averages ten placements.
  size_t PickIndex() {
    const uint64_t n = d_.sorted.size();
    if (zipf_ == nullptr) {
      return static_cast<size_t>(rng_.Uniform(n));
    }
    const uint64_t rank = zipf_->Next();
    return static_cast<size_t>(
        lsmlab::Hash64(reinterpret_cast<const char*>(&rank), sizeof(rank),
                       hot_seed_) %
        n);
  }
  std::string PresentKey() { return EncodeKey(d_.sorted[PickIndex()]); }

  double Execute(Kind kind, Tally* t, Clock::time_point* end) {
    const ReadOptions ro;
    std::string value;
    Clock::time_point start;
    switch (kind) {
      case kGet: {
        const std::string key = PresentKey();
        start = Clock::now();
        const Status s = db_->Get(ro, key, &value);
        *end = Clock::now();
        t->attempted = 1;
        t->failed = (s.ok() && ValueOk(w_.background, key, value)) ? 0 : 1;
        break;
      }
      case kAbsent: {
        const std::string key =
            EncodeKey(d_.sorted[rng_.Uniform(d_.sorted.size())] + 1);
        start = Clock::now();
        const Status s = db_->Get(ro, key, &value);
        *end = Clock::now();
        t->attempted = 1;
        t->failed = s.IsNotFound() ? 0 : 1;
        break;
      }
      case kMultiGet: {
        std::array<std::string, kMultiGetKeys> keys;
        std::array<Slice, kMultiGetKeys> slices;
        for (size_t i = 0; i < kMultiGetKeys; i++) {
          keys[i] = PresentKey();
          slices[i] = keys[i];
        }
        std::vector<std::string> values;
        std::vector<Status> statuses;
        start = Clock::now();
        db_->MultiGet(ro, std::span<const Slice>(slices), &values, &statuses);
        *end = Clock::now();
        t->attempted = kMultiGetKeys;
        std::array<bool, kMultiGetKeys> bad{};
        for (size_t i = 0; i < kMultiGetKeys; i++) {
          bad[i] = values.size() != kMultiGetKeys ||
                   statuses.size() != kMultiGetKeys || !statuses[i].ok() ||
                   !ValueOk(w_.background, keys[i], values[i]);
        }
        if (++multigets_ % kCrossCheckEvery == 0) {
          const size_t slot = (multigets_ / kCrossCheckEvery) % kMultiGetKeys;
          if (!bad[slot]) {
            const Status s = db_->Get(ro, keys[slot], &value);
            bad[slot] = !s.ok() || value != values[slot];
          }
        }
        t->failed = static_cast<uint64_t>(
            std::count(bad.begin(), bad.end(), true));
        break;
      }
      case kScan: {
        const size_t pos = PickIndex();
        const std::string start_key = EncodeKey(d_.sorted[pos]);
        const std::string end_key = EncodeKey(d_.sorted.back());
        std::vector<std::pair<std::string, std::string>> rows;
        start = Clock::now();
        const Status s = db_->Scan(ro, start_key, end_key, kScanLimit, &rows);
        *end = Clock::now();
        t->attempted = 1;
        t->failed = ScanOk(s, pos, rows) ? 0 : 1;
        break;
      }
      case kPut: {
        const std::string key = PresentKey();
        const std::string v =
            w_.background
                ? VersionedValue(key, (static_cast<uint64_t>(id_) << 48) |
                                          ++puts_)
                : ValueForKey(key, kValueBytes);
        start = Clock::now();
        const Status s = db_->Put(WriteOptions(), key, v);
        *end = Clock::now();
        t->attempted = 1;
        t->failed = s.ok() ? 0 : 1;
        break;
      }
      case kNumKinds:
        break;
    }
    return std::chrono::duration<double, std::micro>(*end - start).count();
  }

  // Sorted, inside [start, end], at most the limit, and exactly the loaded
  // keys from `pos` on with values that check.
  bool ScanOk(const Status& s, size_t pos,
              const std::vector<std::pair<std::string, std::string>>& rows) {
    const size_t want = std::min(kScanLimit, d_.sorted.size() - pos);
    if (!s.ok() || rows.size() != want) {
      return false;
    }
    for (size_t i = 0; i < rows.size(); i++) {
      if (rows[i].first != EncodeKey(d_.sorted[pos + i]) ||
          !ValueOk(w_.background, rows[i].first, rows[i].second)) {
        return false;
      }
    }
    return true;
  }

  const Workload& w_;
  const Dataset& d_;
  DB* const db_;
  const bool traced_;
  const int id_;
  const uint64_t seed_;
  Random rng_;
  std::unique_ptr<lsmlab::KeyGenerator> zipf_;
  uint64_t hot_seed_ = 0;
  uint64_t multigets_ = 0;
  uint64_t puts_ = 0;
};

struct MixRun {
  explicit MixRun(int windows) : result(windows) {}

  Result result;
  double wall_s = 0;
  double throughput = 0;  ///< median over windows
  std::vector<double> throughput_by_window;
};

/// The timed mix: `clients` closed-loop threads for `seconds`, in `windows`
/// equal windows by operation start time.
MixRun RunMix(const Workload& w, const Dataset& d, Instance* inst,
              double seconds, int windows, uint64_t seed, bool traced) {
  const auto window_len = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / windows));
  std::vector<Result> results(static_cast<size_t>(w.clients),
                              Result(windows));
  std::latch start_line(w.clients + 1);
  Clock::time_point start;
  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients; c++) {
    threads.emplace_back([&, c] {
      Trace::Get().SetThreadRole(Role::kClient);
      Client client(w, d, inst->db.get(), seed, c, traced);
      Result& r = results[static_cast<size_t>(c)];
      const PerfContext p0 = *lsmlab::GetPerfContext();
      start_line.arrive_and_wait();
      // Closed loop: each operation starts when the previous one ends.
      for (Clock::time_point began = start;;) {
        const auto window = static_cast<size_t>((began - start) / window_len);
        if (window >= static_cast<size_t>(windows)) {
          break;
        }
        const Kind kind = client.PickKind();
        began = client.Run(kind, &r, window);
        const uint64_t keys = kind == kMultiGet ? kMultiGetKeys : 1;
        r.ops[kind]++;
        r.key_ops += keys;
        r.window_key_ops[window] += keys;
      }
      r.perf_filter_probes =
          lsmlab::GetPerfContext()->Delta(p0).filter_probe_count;
    });
  }
  start = Clock::now();
  start_line.arrive_and_wait();
  for (auto& t : threads) {
    t.join();
  }
  MixRun run(windows);
  run.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  for (const auto& r : results) {
    run.result.Add(r);
  }
  std::vector<double> per_window;
  for (const uint64_t n : run.result.window_key_ops) {
    per_window.push_back(static_cast<double>(n) * windows / seconds);
  }
  run.throughput = Median(per_window);
  run.throughput_by_window = std::move(per_window);
  return run;
}

// ---------------------------------------------------------------------------
// Reporting.

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double RssPeakMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Transparent huge pages the process holds now (see run.py).
double AnonHugeKb() {
  double kb = 0;
  FILE* f = std::fopen("/proc/self/smaps_rollup", "r");
  if (f == nullptr) {
    return kb;
  }
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "AnonHugePages:", 14) == 0) {
      kb = std::atof(line + 14);
    }
  }
  std::fclose(f);
  return kb;
}

class Report {
 public:
  void Add(const char* name, double value, const char* unit) {
    metrics_.Raw(name,
                 JsonObject().Num("value", value).Str("unit", unit).Build());
  }
  /// The median over windows of each window's percentile `pct`, as an
  /// end-to-end metric or (not `metric`) in the metadata.
  void Percentile(const char* name, std::vector<Samples>& windows,
                  unsigned pct, bool metric) {
    std::vector<double> values;
    size_t samples = 0;
    size_t fewest = SIZE_MAX;
    for (Samples& s : windows) {
      const PercentileResult p = s.At(pct);
      if (!p.supported) {
        errors_.push_back(std::string(name) + ": a window has " +
                          std::to_string(p.samples) + " samples, " +
                          std::to_string(p.beyond) + " beyond");
      }
      values.push_back(p.value);
      samples += p.samples;
      fewest = std::min(fewest, p.samples);
    }
    if (metric) {
      Add(name, Median(values), "us");
    } else {
      latency_.Num(name, Median(values));
    }
    samples_.Raw(name, JsonObject()
                           .Num("samples", static_cast<double>(samples))
                           .Num("fewest_in_a_window",
                                static_cast<double>(fewest))
                           .Raw("by_window", JsonArray(values))
                           .Build());
  }
  void Error(const std::string& e) { errors_.push_back(e); }

  JsonObject& meta() { return meta_; }

  /// Prints the metadata line, any errors, and the result as the last line.
  bool Print(const Tally& tally) {
    std::string errs;
    for (const auto& e : errors_) {
      std::fprintf(stderr, "perfbench: %s\n", e.c_str());
      errs += (errs.empty() ? "" : ", ") + JsonString(e);
    }
    meta_.Raw("latency_us", latency_.Build());
    meta_.Raw("percentile_samples", samples_.Build());
    meta_.Num("attempted", static_cast<double>(tally.attempted));
    meta_.Num("failed", static_cast<double>(tally.failed));
    meta_.Num("failed_op_ratio", tally.FailedRatio());
    meta_.Raw("errors", "[" + errs + "]");
    std::printf("perfbench-meta: %s\n", meta_.Build().c_str());
    const bool correct = errors_.empty() && tally.failed == 0;
    std::printf("%s\n",
                JsonObject()
                    .Bool("correct", correct)
                    .Num("attempted", static_cast<double>(tally.attempted))
                    .Num("failed", static_cast<double>(tally.failed))
                    .Raw("metrics", metrics_.Build())
                    .Build()
                    .c_str());
    std::fflush(stdout);
    return correct;
  }

 private:
  JsonObject metrics_;
  JsonObject latency_;
  JsonObject samples_;
  JsonObject meta_;
  std::vector<std::string> errors_;
};

std::string OptionsJson(const Options& o) {
  JsonObject j;
  j.Str("env", "MemEnv")
      .Str("comparator", o.comparator->Name())
      .Num("merge_policy", static_cast<int>(o.merge_policy))
      .Num("size_ratio", o.size_ratio)
      .Num("write_buffer_size", static_cast<double>(o.write_buffer_size))
      .Num("max_levels", o.max_levels)
      .Num("max_file_size", static_cast<double>(o.max_file_size))
      .Num("level0_compaction_trigger", o.level0_compaction_trigger)
      .Num("file_picker", static_cast<int>(o.file_picker))
      .Num("seek_compaction_threshold",
           static_cast<double>(o.seek_compaction_threshold))
      .Num("max_compactions_per_write", o.max_compactions_per_write)
      .Num("fifo_size_budget", static_cast<double>(o.fifo_size_budget))
      .Bool("background_compaction", o.background_compaction)
      .Num("l0_slowdown_trigger", o.l0_slowdown_trigger)
      .Num("l0_stop_trigger", o.l0_stop_trigger)
      .Num("num_shards", o.num_shards)
      .Num("memtable_rep", static_cast<int>(o.memtable_rep))
      .Bool("memtable_hash_index", o.memtable_hash_index)
      .Bool("allow_concurrent_memtable_write",
            o.allow_concurrent_memtable_write)
      .Num("filter_allocation", static_cast<int>(o.filter_allocation))
      .Num("filter_bits_per_key", o.filter_bits_per_key)
      .Str("filter", o.filter_factory != nullptr ? "traced bloom" : "bloom")
      .Bool("partition_filters", o.partition_filters)
      .Bool("range_filter", o.range_filter_policy != nullptr)
      .Num("index_type", static_cast<int>(o.index_type))
      .Num("learned_index_epsilon", o.learned_index_epsilon)
      .Bool("block_hash_index", o.block_hash_index)
      .Num("hash_index_util_ratio", o.hash_index_util_ratio)
      .Num("block_size", static_cast<double>(o.block_size))
      .Num("block_restart_interval", o.block_restart_interval)
      .Num("block_cache_bytes",
           o.block_cache != nullptr
               ? static_cast<double>(o.block_cache->capacity())
               : 0.0)
      .Bool("prefetch_after_compaction", o.prefetch_after_compaction)
      .Num("value_separation_threshold",
           static_cast<double>(o.value_separation_threshold))
      .Bool("enable_wal", o.enable_wal)
      .Num("wal_sync_mode", static_cast<int>(o.wal_sync_mode))
      .Num("max_write_group_bytes",
           static_cast<double>(o.max_write_group_bytes))
      .Num("listeners", static_cast<double>(o.listeners.size()));
  return j.Build();
}

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

void Describe(const Workload& w, const Args& a, const Scale& scale,
              Report* rep) {
  std::string mix;
  for (int k = 0; k < kNumKinds; k++) {
    if (w.mix[k] != 0) {
      mix += (mix.empty() ? "" : ", ") + std::string(kKindNames[k]) + " " +
             std::to_string(w.mix[k]) + "%";
    }
  }
  rep->meta()
      .Str("workload", w.name)
      .Str("why", w.why)
      .Str("mix", mix)
      .Str("keys", w.zipf ? "zipf 0.99" : "uniform")
      .Num("clients", w.clients)
      .Num("seed", static_cast<double>(a.seed))
      .Num("seconds", a.seconds)
      .Num("loaded_keys", static_cast<double>(scale.keys))
      .Bool("traced", a.trace)
      .Str("commit", a.commit)
      .Str("source_digest", a.source_digest)
      .Num("nproc", std::thread::hardware_concurrency())
      .Str("env", "MemEnv")
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Bool("ndebug", kNdebug);
}

/// --trace 0: set up `scale.setups` times, measure the last tree.
bool RunEndToEnd(const Workload& w, const Args& a, const Scale& scale) {
  Report rep;
  Describe(w, a, scale, &rep);
  const Dataset d = MakeDataset(scale.keys, a.seed);

  std::vector<double> setups;
  std::unique_ptr<Instance> inst;
  for (int i = 0; i < scale.setups; i++) {
    inst.reset();  // one tree alive at a time keeps rss_peak_mb comparable
    inst = Setup(w, d, /*traced=*/false);
    setups.push_back(inst->setup_s);
  }
  const std::string setup_shape = inst->db->DebugShape();
  MixRun run = RunMix(w, d, inst.get(), scale.seconds, scale.windows, a.seed,
                      false);
  Result& r = run.result;
  const uint64_t bytes_written = inst->io()->bytes_written.load();
  uint64_t user_bytes = inst->user_bytes;
  user_bytes += r.ops[kPut] * (kKeyBytes + kValueBytes);
  const std::string end_shape = inst->db->DebugShape();
  const double live_bytes = d.sorted.size() * (kKeyBytes + kValueBytes);
  const double space_amp_live = Ratio(inst->db->GetStats().total_bytes,
                                      live_bytes);
  // How many stale versions the tree holds when the clock stops depends on
  // where background compaction happens to be, which moved rw_background's
  // space_amp by a sixth between runs. A CompactAll leaves one version per
  // key, so the metric measures the table format, not the timing.
  if (w.mix[kPut] != 0) {
    const Status s = inst->db->CompactAll();
    if (!s.ok()) {
      Fatal("compact after the mix", s);
    }
  }
  const DBStats stats = inst->db->GetStats();

  rep.Add("setup_s", Median(setups), "s");
  rep.Add("throughput_ops_s", run.throughput, "1/s");
  rep.Percentile("get_p50_us", r.lat[kGet], 50, /*metric=*/true);
  rep.Percentile("get_p99_us", r.lat[kGet], 99, /*metric=*/false);
  if (w.mix[kAbsent] != 0) {
    rep.Percentile("get_absent_p50_us", r.lat[kAbsent], 50, false);
    rep.Percentile("get_absent_p99_us", r.lat[kAbsent], 99, false);
  }
  if (w.mix[kMultiGet] != 0) {
    rep.Percentile("multiget_key_p50_us", r.multiget_per_key, 50, false);
    rep.Percentile("multiget_batch_p99_us", r.lat[kMultiGet], 99, false);
  }
  if (w.mix[kScan] != 0) {
    rep.Percentile("scan_p50_us", r.lat[kScan], 50, false);
    rep.Percentile("scan_p99_us", r.lat[kScan], 99, false);
  }
  if (w.mix[kPut] != 0) {
    rep.Percentile("put_p50_us", r.lat[kPut], 50, false);
    rep.Percentile("put_p99_us", r.lat[kPut], 99, false);
  }
  rep.Add("write_amp", Ratio(bytes_written, user_bytes), "ratio");
  rep.Add("space_amp", Ratio(stats.total_bytes, live_bytes), "ratio");
  rep.Add("rss_peak_mb", RssPeakMb(), "MB");

  rep.meta()
      .Num("anon_huge_kb", AnonHugeKb())
      .Raw("setup_s_each", JsonArray(setups))
      .Num("timed_wall_s", run.wall_s)
      .Raw("throughput_by_window", JsonArray(run.throughput_by_window))
      .Num("timed_key_ops", static_cast<double>(r.key_ops))
      .Num("space_amp_at_end", space_amp_live)
      .Raw("options", OptionsJson(inst->options))
      .Str("shape_after_setup", setup_shape)
      .Str("shape_at_end", end_shape);
  return rep.Print(r.tally);
}

/// p50 of the engine's own memtable-apply histogram (lsmlab.stats).
double MemtableApplyP50(DB* db) {
  std::string dump;
  if (!db->GetProperty("lsmlab.stats", &dump)) {
    return 0;
  }
  const std::string tag = "histogram.memtable_apply_micros:";
  const size_t line = dump.find(tag);
  const size_t p50 = line == std::string::npos ? line : dump.find(" p50=", line);
  return p50 == std::string::npos ? 0 : std::atof(dump.c_str() + p50 + 5);
}

/// --trace 1: half the time untraced, half traced on a fresh tree, then the
/// per-layer metrics of the traced half and the reconciliations.
bool RunTraced(const Workload& w, const Args& a, const Scale& scale) {
  Report rep;
  Describe(w, a, scale, &rep);
  const Dataset d = MakeDataset(scale.keys, a.seed);
  Trace& trace = Trace::Get();
  trace.SetThreadRole(Role::kMain);
  Tally tally;

  double untraced_throughput = 0;
  {
    auto plain = Setup(w, d, /*traced=*/false);
    MixRun run = RunMix(w, d, plain.get(), scale.seconds / 2, scale.windows,
                        a.seed, false);
    untraced_throughput = run.throughput;
    tally.Add(run.result.tally);
  }

  const Counts all0 = trace.SumAll();
  const Counts main0 = trace.Sum(Role::kMain);
  const Counts client_before_setup = trace.Sum(Role::kClient);
  const PerfContext main_perf0 = *lsmlab::GetPerfContext();
  auto inst = Setup(w, d, /*traced=*/true);
  DB* db = inst->db.get();

  const DBStats s0 = db->GetStats();
  const lsmlab::LruCache::Stats cache0 =
      inst->cache ? inst->cache->GetStats() : lsmlab::LruCache::Stats();
  const Counts phase_all0 = trace.SumAll();
  const Counts phase_bg0 = trace.Sum(Role::kBackground);
  const Counts phase_client0 = trace.Sum(Role::kClient);
  MixRun run = RunMix(w, d, inst.get(), scale.seconds / 2, scale.windows,
                      a.seed, true);
  const Counts phase_all = trace.SumAll() - phase_all0;
  const Counts phase_bg = trace.Sum(Role::kBackground) - phase_bg0;
  const Counts phase_client = trace.Sum(Role::kClient) - phase_client0;
  const DBStats s1 = db->GetStats();
  const lsmlab::LruCache::Stats cache1 =
      inst->cache ? inst->cache->GetStats() : lsmlab::LruCache::Stats();
  Result& r = run.result;
  tally.Add(r.tally);

  const DBStats s2 = db->GetStats();
  const double apply_p50 = MemtableApplyP50(db);
  const std::string shape = db->DebugShape();
  // Closing the DB joins its background worker, so every count below is
  // final when the wrappers and the engine are compared.
  inst->db.reset();
  db = nullptr;
  const Counts whole = trace.SumAll() - all0;
  const Counts main_whole = trace.Sum(Role::kMain) - main0;
  const PerfContext main_perf = lsmlab::GetPerfContext()->Delta(main_perf0);

  const double ops = static_cast<double>(r.key_ops);
  const double gets = static_cast<double>(r.ops[kGet] + r.ops[kAbsent]);
  const double puts = static_cast<double>(r.ops[kPut]);
  const double scans = static_cast<double>(r.ops[kScan]);
  KindTrace get_trace = r.trace[kGet];
  get_trace.Add(r.trace[kAbsent]);
  const KindTrace& absent = r.trace[kAbsent];
  const KindTrace& scan = r.trace[kScan];
  auto us = [](uint64_t ns) { return static_cast<double>(ns) / 1000.0; };
  auto residual = [&](const KindTrace& t, double n) {
    return Ratio(t.us - us(t.counts[kTableReadNs]) -
                     us(t.counts[kFilterProbeNs]),
                 n);
  };
  const double gets_engine = static_cast<double>(s1.gets - s0.gets);
  const double mg_keys =
      static_cast<double>(s1.multiget_keys - s0.multiget_keys);
  const uint64_t commits = s1.group_commits - s0.group_commits;
  const double cache_lookups = static_cast<double>(
      (cache1.hits - cache0.hits) + (cache1.misses - cache0.misses));

  rep.Add("storage.table_read_count_per_op",
          Ratio(phase_client[kTableReads], ops), "count");
  rep.Add("storage.table_read_us_per_op",
          Ratio(us(phase_client[kTableReadNs]), ops), "us");
  rep.Add("storage.table_read_bytes_per_op",
          Ratio(phase_client[kTableReadBytes], ops), "bytes");
  rep.Add("storage.table_write_us", us(whole[kTableWriteNs]), "us");
  rep.Add("storage.wal_append_count", phase_all[kWalAppends], "count");
  rep.Add("storage.wal_append_us_per_write",
          Ratio(us(phase_all[kWalAppendNs]), puts), "us");
  rep.Add("storage.wal_sync_count", phase_all[kWalSyncs], "count");
  rep.Add("storage.manifest_append_count", phase_all[kManifestAppends],
          "count");
  rep.Add("format.block_reads_per_get",
          Ratio(get_trace.perf.block_reads, gets), "count");
  rep.Add("format.block_read_bytes_per_get",
          Ratio(get_trace.perf.block_read_bytes, gets), "bytes");
  rep.Add("cache.hit_ratio",
          Ratio(cache1.hits - cache0.hits, cache_lookups), "ratio");
  rep.Add("cache.evictions_per_op",
          Ratio(cache1.evictions - cache0.evictions, ops), "count");
  rep.Add("cache.inserts_per_op", Ratio(cache1.inserts - cache0.inserts, ops),
          "count");
  rep.Add("index.seeks_per_get", Ratio(get_trace.perf.index_seeks, gets),
          "count");
  rep.Add("util.key_compares_per_op", Ratio(phase_client[kKeyCompares], ops),
          "count");
  rep.Add("filter.probes_per_get",
          Ratio(get_trace.counts[kFilterProbes], gets), "count");
  rep.Add("filter.probe_ns_mean",
          Ratio(phase_client[kFilterProbeNs], phase_client[kFilterProbes]),
          "ns");
  rep.Add("filter.negative_ratio",
          Ratio(phase_client[kFilterNegatives], phase_client[kFilterProbes]),
          "ratio");
  rep.Add("filter.fpr_absent",
          Ratio(absent.counts[kFilterProbes] - absent.counts[kFilterNegatives],
                absent.counts[kFilterProbes]),
          "ratio");
  rep.Add("filter.build_us", us(whole[kFilterBuildNs]), "us");
  rep.Add("filter.memory_bytes_per_key",
          Ratio(whole[kFilterBytes], whole[kFilterKeys]), "bytes");
  rep.Add("memtable.hit_ratio",
          Ratio(s1.memtable_hits - s0.memtable_hits, gets_engine), "ratio");
  rep.Add("memtable.apply_us_p50", apply_p50, "us");
  rep.Add("memtable.cas_retries", s1.insert_cas_retries - s0.insert_cas_retries,
          "count");
  rep.Add("memtable.parallel_apply_ratio",
          Ratio(s1.parallel_applies - s0.parallel_applies, commits), "ratio");
  rep.Add("wal.group_size_mean",
          Ratio(commits + (s1.group_followers - s0.group_followers), commits),
          "count");
  rep.Add("wal.queue_wait_us_per_write",
          Ratio(r.trace[kPut].perf.queue_wait_us, puts), "us");
  rep.Add("core.runs_probed_per_get",
          Ratio(s1.runs_probed - s0.runs_probed, gets_engine), "count");
  rep.Add("core.filter_skips_per_get",
          Ratio(s1.filter_skips - s0.filter_skips, gets_engine), "count");
  rep.Add("core.multiget_coalesced_ratio",
          Ratio(s1.multiget_coalesced_block_hits -
                    s0.multiget_coalesced_block_hits,
                mg_keys),
          "ratio");
  rep.Add("core.multiget_filter_pruned_ratio",
          Ratio(s1.multiget_filter_pruned - s0.multiget_filter_pruned,
                mg_keys),
          "ratio");
  rep.Add("core.iter_seeks_per_scan", Ratio(scan.perf.iter_seeks, scans),
          "count");
  rep.Add("core.iter_steps_per_scan", Ratio(scan.perf.iter_steps, scans),
          "count");
  rep.Add("core.residual_us_per_get", residual(get_trace, gets), "us");
  rep.Add("core.residual_us_per_scan", residual(scan, scans), "us");
  rep.Add("flush.count", s2.flushes, "count");
  rep.Add("flush.busy_us", whole[kFlushUs], "us");
  rep.Add("compaction.count", s2.compactions, "count");
  rep.Add("compaction.busy_us", whole[kCompactionUs], "us");
  rep.Add("compaction.bytes_written", s2.bytes_compacted, "bytes");
  rep.Add("background.busy_ratio",
          Ratio(phase_bg[kFlushUs] + phase_bg[kCompactionUs],
                run.wall_s * 1e6),
          "ratio");
  rep.Add("stall.slowdown_count", phase_all[kStallSlowdown], "count");
  rep.Add("stall.memtable_full_count", phase_all[kStallMemtableFull],
          "count");
  rep.Add("stall.l0_stop_count", phase_all[kStallL0Stop], "count");
  rep.Add("stall.us_per_write",
          Ratio((s1.write_stall_micros - s0.write_stall_micros) +
                    (s1.write_slowdown_micros - s0.write_slowdown_micros),
                static_cast<double>(s1.writes - s0.writes)),
          "us");
  rep.Add("trace.overhead_ratio", Ratio(run.throughput, untraced_throughput),
          "ratio");

  // Reconciliations: each wrapper count against the engine's own.
  auto expect = [&](const char* what, uint64_t got, uint64_t want) {
    if (got != want) {
      rep.Error(std::string("reconcile ") + what + ": " +
                std::to_string(got) + " != " + std::to_string(want));
    }
  };
  expect("wrapper table reads == IoStats random_reads", whole[kTableReads],
         inst->io()->random_reads.load());
  const Counts client_whole = trace.Sum(Role::kClient) - client_before_setup;
  expect("wrapper filter probes == PerfContext filter_probe_count",
         client_whole[kFilterProbes] + main_whole[kFilterProbes],
         r.perf_filter_probes + main_perf.filter_probe_count);
  expect("wal_syncs + wal_sync_skipped == group_commits",
         s2.wal_syncs + s2.wal_sync_skipped, s2.group_commits);
  expect("parallel_applies + serial_applies == group_commits",
         s2.parallel_applies + s2.serial_applies, s2.group_commits);
  if (w.mix[kPut] == 0) {
    // The bypass prediction: a mix that does not write leaves the WAL and
    // compaction idle.
    expect("timed WAL appends (bypass)", phase_all[kWalAppends], 0);
    expect("timed compactions (bypass)", s1.compactions - s0.compactions, 0);
  }

  std::string levels;
  for (int l = 0; l < kTracedLevels; l++) {
    const uint64_t probes = whole[kLevelProbes + l];
    if (probes == 0) {
      continue;
    }
    levels += std::string(levels.empty() ? "" : ", ") + "\"L" +
              std::to_string(l) + "\": " +
              JsonObject()
                  .Num("probes", static_cast<double>(probes))
                  .Num("negative_ratio",
                       Ratio(whole[kLevelNegatives + l], probes))
                  .Build();
  }
  rep.meta()
      .Num("untraced_throughput_ops_s", untraced_throughput)
      .Num("traced_throughput_ops_s", run.throughput)
      .Raw("filter_by_level", "{" + levels + "}")
      .Raw("options", OptionsJson(inst->options))
      .Str("shape", shape);
  return rep.Print(tally);
}

bool ParseArgs(int argc, char** argv, Args* a, bool* smoke, bool* list) {
  for (int i = 1; i < argc; i++) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      *smoke = true;
      continue;
    }
    if (flag == "--list-metrics") {
      *list = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (!(a->seconds > 0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return false;
      }
      a->trace = v[0] == '1';
    } else if (flag == "--commit") {
      a->commit = v;
    } else if (flag == "--source-digest") {
      a->source_digest = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return true;
}

void ListMetrics() {
  auto list = [](const char* kind, std::span<const MetricDef> defs) {
    for (const MetricDef& m : defs) {
      std::printf("%s\n", JsonObject()
                              .Str("kind", kind)
                              .Str("name", m.name)
                              .Str("unit", m.unit)
                              .Str("better", m.better)
                              .Str("note", m.note)
                              .Build()
                              .c_str());
    }
  };
  list("end_to_end", kEndToEnd);
  list("per_layer", kPerLayer);
  for (const Workload& w : kWorkloads) {
    std::printf("%s\n", JsonObject()
                            .Str("kind", "workload")
                            .Str("name", w.name)
                            .Str("why", w.why)
                            .Build()
                            .c_str());
  }
}

/// Every workload untraced and traced on a tree a tenth the size.
bool Smoke(const Args& base) {
  Scale scale;
  scale.keys = kFullKeys / 10;
  scale.setups = 1;
  scale.seconds = 0.5;
  scale.windows = 1;
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    for (const bool traced : {false, true}) {
      Args a = base;
      a.workload = w.name;
      a.trace = traced;
      a.seconds = scale.seconds;
      const bool pass =
          traced ? RunTraced(w, a, scale) : RunEndToEnd(w, a, scale);
      std::fprintf(stderr, "smoke %s trace=%d: %s\n", w.name, traced ? 1 : 0,
                   pass ? "ok" : "FAILED");
      ok = ok && pass;
    }
  }
  return ok;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool smoke = false;
  bool list = false;
  if (!ParseArgs(argc, argv, &args, &smoke, &list)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--commit SHA] [--source-digest HEX]\n"
                 "       perfbench --smoke | --list-metrics\n");
    return 2;
  }
  if (list) {
    ListMetrics();
    return 0;
  }
  // A fixed mmap threshold stops glibc from raising it after the first
  // large free, which otherwise moves MemEnv's file buffers between mmap
  // and the heap at a point that differs from run to run and makes
  // rss_peak_mb bimodal. At glibc's default of 128 KiB every file buffer is
  // mapped and unmapped, so the peak follows live memory.
  mallopt(M_MMAP_THRESHOLD, 128 << 10);
  Trace::Get().SetThreadRole(Role::kMain);
  if (smoke) {
    return Smoke(args) ? 0 : 1;
  }
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      Scale scale;
      scale.seconds = args.seconds;
      if (args.trace) {
        RunTraced(w, args, scale);
      } else {
        RunEndToEnd(w, args, scale);
      }
      return 0;
    }
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}
