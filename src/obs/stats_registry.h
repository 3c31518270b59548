#ifndef LSMLAB_OBS_STATS_REGISTRY_H_
#define LSMLAB_OBS_STATS_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "obs/perf_context.h"
#include "util/histogram.h"
#include "util/mutex.h"

namespace lsmlab {

/// Every named DB-wide counter. Names (TickerName) are stable identifiers:
/// they appear in GetProperty("lsmlab.stats") dumps that tests and tooling
/// grep, so renaming one is a breaking change.
enum class Ticker : uint32_t {
  // Read path.
  kGets,
  kGetsFound,
  kMemtableHits,
  kRunsProbed,
  kFilterSkips,       ///< runs skipped by monolithic point filters
  kRangeFilterSkips,  ///< files skipped by range filters
  kSeparatedReads,
  // Batched reads (DB::MultiGet).
  kMultiGets,                    ///< MultiGet batches
  kMultiGetKeys,                 ///< keys across all batches
  kMultiGetFilterPruned,         ///< per-key probes pruned by filters
  kMultiGetCoalescedBlockHits,   ///< keys served by an already-paid block
  // Per-subsystem read costs (folded in from PerfContext deltas).
  kBlockReads,
  kBlockReadBytes,
  kBlockCacheHits,
  kBlockCacheMisses,
  kFilterProbes,
  kFilterNegatives,
  kIndexSeeks,
  kLearnedIndexSeeks,
  kHashIndexHits,
  kHashIndexAbsent,
  kMergeIterSeeks,
  kMergeIterSteps,
  // Write path.
  kWrites,
  kWalAppends,
  kWalSyncs,
  kWalGroupCommits,    ///< commit groups built by a leader
  kWalGroupFollowers,  ///< writers that rode along in someone else's group
  kWalSyncSkipped,     ///< group commits the durability policy left unsynced
  kVlogSyncs,          ///< value-log fsyncs (ValueLog::Sync issues one only
                       ///< when it holds unsynced values)
  kWriteSlowdowns,
  kWriteStalls,
  kWriteSlowdownMicros,
  kWriteStallMicros,
  // Memtable apply phase. parallel + serial applies always sum to
  // wal.group_commits: every commit group takes exactly one apply path.
  kMemtableParallelApplies,   ///< groups applied by members concurrently
  kMemtableSerialApplies,     ///< groups applied by the leader under mu_
  kMemtableInsertCasRetries,  ///< lost skiplist splice CASes (contention)
  // Background pipeline.
  kFlushes,
  kCompactions,
  kCompactionMoves,  ///< compactions that moved their inputs down whole
                     ///< (no table bytes written)
  kBytesFlushed,
  kBytesCompacted,
  kTableFilesCreated,
  kTableFilesDeleted,

  kNumTickers,  // sentinel; keep last
};

/// Latency distributions kept alongside the tickers.
enum class PhaseHistogram : uint32_t {
  kGetMicros,
  kMultiGetMicros,  ///< whole-batch latency, not per key
  kWriteMicros,
  kWriteGroupSize,      ///< writers per commit group (count, not micros)
  kMemtableApplyMicros, ///< group apply phase, WAL I/O excluded (both paths)
  kFlushMicros,
  kCompactionMicros,

  kNumHistograms,  // sentinel; keep last
};

/// Point-in-time copy of a StatsRegistry: plain counts and histogram
/// copies. `+=` merges another snapshot in, so the registries of several
/// DBs (the shards of one ShardedDB) read as one.
struct StatsSnapshot {
  std::array<uint64_t, static_cast<size_t>(Ticker::kNumTickers)> tickers{};
  std::array<Histogram, static_cast<size_t>(PhaseHistogram::kNumHistograms)>
      histograms;

  uint64_t Get(Ticker ticker) const {
    return tickers[static_cast<size_t>(ticker)];
  }

  StatsSnapshot& operator+=(const StatsSnapshot& other);

  /// Full structured dump: one "ticker.<name>=<value>" line per ticker,
  /// then one "histogram.<name>: ..." summary line per phase histogram.
  std::string ToString() const;
};

/// DB-wide registry of named atomic counters plus per-phase latency
/// histograms. One per DBImpl; safe for concurrent use from foreground and
/// background threads (tickers are relaxed atomics, histograms take a
/// private mutex). PerfContext measures one operation on one thread; the
/// registry is where those deltas accumulate into the process-lifetime view
/// that GetProperty("lsmlab.stats") reports.
class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  void Add(Ticker ticker, uint64_t n = 1) {
    tickers_[static_cast<size_t>(ticker)].fetch_add(
        n, std::memory_order_relaxed);
  }

  void Record(PhaseHistogram h, double micros) {
    MutexLock lock(&hist_mu_);
    histograms_[static_cast<size_t>(h)].Add(micros);
  }

  /// Folds one operation's PerfContext delta into the per-subsystem
  /// tickers. Call once per instrumented operation with
  /// `after.Delta(before)`.
  void MergePerfDelta(const PerfContext& delta);

  /// Every ticker and a copy of every histogram. The histograms are
  /// copied under one hold of hist_mu_, so they agree with each other.
  StatsSnapshot Snapshot() const;

  static const char* TickerName(Ticker ticker);
  static const char* HistogramName(PhaseHistogram h);

 private:
  std::array<std::atomic<uint64_t>,
             static_cast<size_t>(Ticker::kNumTickers)>
      tickers_{};
  mutable Mutex hist_mu_{LockRank::kStatsHistMu};
  std::array<Histogram,
             static_cast<size_t>(PhaseHistogram::kNumHistograms)>
      histograms_ GUARDED_BY(hist_mu_);
};

}  // namespace lsmlab

#endif  // LSMLAB_OBS_STATS_REGISTRY_H_
