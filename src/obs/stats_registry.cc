#include "obs/stats_registry.h"

namespace lsmlab {

const char* StatsRegistry::TickerName(Ticker ticker) {
  switch (ticker) {
    case Ticker::kGets:
      return "gets";
    case Ticker::kGetsFound:
      return "gets.found";
    case Ticker::kMemtableHits:
      return "memtable.hits";
    case Ticker::kRunsProbed:
      return "runs.probed";
    case Ticker::kFilterSkips:
      return "filter.run_skips";
    case Ticker::kRangeFilterSkips:
      return "rangefilter.run_skips";
    case Ticker::kSeparatedReads:
      return "vlog.separated_reads";
    case Ticker::kMultiGets:
      return "multiget.batches";
    case Ticker::kMultiGetKeys:
      return "multiget.keys";
    case Ticker::kMultiGetFilterPruned:
      return "multiget.filter_pruned";
    case Ticker::kMultiGetCoalescedBlockHits:
      return "multiget.coalesced_block_hits";
    case Ticker::kBlockReads:
      return "block.reads";
    case Ticker::kBlockReadBytes:
      return "block.read_bytes";
    case Ticker::kBlockCacheHits:
      return "block_cache.hits";
    case Ticker::kBlockCacheMisses:
      return "block_cache.misses";
    case Ticker::kFilterProbes:
      return "filter.probes";
    case Ticker::kFilterNegatives:
      return "filter.negatives";
    case Ticker::kIndexSeeks:
      return "index.seeks";
    case Ticker::kLearnedIndexSeeks:
      return "index.learned_seeks";
    case Ticker::kHashIndexHits:
      return "index.hash_hits";
    case Ticker::kHashIndexAbsent:
      return "index.hash_absent";
    case Ticker::kMergeIterSeeks:
      return "merge_iter.seeks";
    case Ticker::kMergeIterSteps:
      return "merge_iter.steps";
    case Ticker::kWrites:
      return "writes";
    case Ticker::kWalAppends:
      return "wal.appends";
    case Ticker::kWalSyncs:
      return "wal.syncs";
    case Ticker::kWalGroupCommits:
      return "wal.group_commits";
    case Ticker::kWalGroupFollowers:
      return "wal.group_followers";
    case Ticker::kWalSyncSkipped:
      return "wal.sync_skipped";
    case Ticker::kVlogSyncs:
      return "vlog.syncs";
    case Ticker::kWriteSlowdowns:
      return "write.slowdowns";
    case Ticker::kWriteStalls:
      return "write.stalls";
    case Ticker::kWriteSlowdownMicros:
      return "write.slowdown_micros";
    case Ticker::kWriteStallMicros:
      return "write.stall_micros";
    case Ticker::kMemtableParallelApplies:
      return "memtable.parallel_applies";
    case Ticker::kMemtableSerialApplies:
      return "memtable.serial_applies";
    case Ticker::kMemtableInsertCasRetries:
      return "memtable.insert_cas_retries";
    case Ticker::kFlushes:
      return "flushes";
    case Ticker::kCompactions:
      return "compactions";
    case Ticker::kCompactionMoves:
      return "compaction.moves";
    case Ticker::kBytesFlushed:
      return "bytes.flushed";
    case Ticker::kBytesCompacted:
      return "bytes.compacted";
    case Ticker::kTableFilesCreated:
      return "table_files.created";
    case Ticker::kTableFilesDeleted:
      return "table_files.deleted";
    case Ticker::kNumTickers:
      break;
  }
  return "unknown";
}

const char* StatsRegistry::HistogramName(PhaseHistogram h) {
  switch (h) {
    case PhaseHistogram::kGetMicros:
      return "get_micros";
    case PhaseHistogram::kMultiGetMicros:
      return "multiget_micros";
    case PhaseHistogram::kWriteMicros:
      return "write_micros";
    case PhaseHistogram::kWriteGroupSize:
      return "write_group_size";
    case PhaseHistogram::kMemtableApplyMicros:
      return "memtable_apply_micros";
    case PhaseHistogram::kFlushMicros:
      return "flush_micros";
    case PhaseHistogram::kCompactionMicros:
      return "compaction_micros";
    case PhaseHistogram::kNumHistograms:
      break;
  }
  return "unknown";
}

void StatsRegistry::MergePerfDelta(const PerfContext& delta) {
  auto add = [this](Ticker t, uint64_t n) {
    if (n != 0) {
      Add(t, n);
    }
  };
  add(Ticker::kMultiGetKeys, delta.multiget_keys);
  add(Ticker::kMultiGetFilterPruned, delta.multiget_filter_pruned);
  add(Ticker::kMultiGetCoalescedBlockHits,
      delta.multiget_coalesced_block_hits);
  add(Ticker::kBlockReads, delta.block_read_count);
  add(Ticker::kBlockReadBytes, delta.block_read_bytes);
  add(Ticker::kBlockCacheHits, delta.block_cache_hit_count);
  add(Ticker::kBlockCacheMisses, delta.block_cache_miss_count);
  add(Ticker::kFilterProbes, delta.filter_probe_count);
  add(Ticker::kFilterNegatives, delta.filter_negative_count);
  add(Ticker::kIndexSeeks, delta.index_seek_count);
  add(Ticker::kLearnedIndexSeeks, delta.learned_index_seek_count);
  add(Ticker::kHashIndexHits, delta.hash_index_hit_count);
  add(Ticker::kHashIndexAbsent, delta.hash_index_absent_count);
  add(Ticker::kMemtableHits, delta.memtable_hit_count);
  add(Ticker::kMergeIterSeeks, delta.merge_iter_seek_count);
  add(Ticker::kMergeIterSteps, delta.merge_iter_step_count);
  add(Ticker::kWalAppends, delta.wal_append_count);
  add(Ticker::kWalSyncs, delta.wal_sync_count);
  add(Ticker::kMemtableInsertCasRetries, delta.memtable_insert_cas_retries);
}

StatsSnapshot StatsRegistry::Snapshot() const {
  StatsSnapshot snap;
  for (size_t i = 0; i < snap.tickers.size(); i++) {
    snap.tickers[i] = tickers_[i].load(std::memory_order_relaxed);
  }
  MutexLock lock(&hist_mu_);
  snap.histograms = histograms_;
  return snap;
}

StatsSnapshot& StatsSnapshot::operator+=(const StatsSnapshot& other) {
  for (size_t i = 0; i < tickers.size(); i++) {
    tickers[i] += other.tickers[i];
  }
  for (size_t i = 0; i < histograms.size(); i++) {
    histograms[i].Merge(other.histograms[i]);
  }
  return *this;
}

std::string StatsSnapshot::ToString() const {
  std::string out;
  for (size_t i = 0; i < tickers.size(); i++) {
    out.append("ticker.");
    out.append(StatsRegistry::TickerName(static_cast<Ticker>(i)));
    out.push_back('=');
    out.append(std::to_string(tickers[i]));
    out.push_back('\n');
  }
  for (size_t i = 0; i < histograms.size(); i++) {
    out.append("histogram.");
    out.append(StatsRegistry::HistogramName(static_cast<PhaseHistogram>(i)));
    out.append(": ");
    out.append(histograms[i].ToString());
    out.push_back('\n');
  }
  return out;
}

}  // namespace lsmlab
