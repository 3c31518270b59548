#ifndef LSMLAB_STORAGE_IO_STATS_H_
#define LSMLAB_STORAGE_IO_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "util/mutex.h"

namespace lsmlab {

/// Logical-I/O accounting for an Env.
///
/// This is the measurement substrate for every experiment: the tutorial's
/// claims are about *logical block accesses*, so instead of timing a
/// specific SSD we count 4 KiB-aligned block reads/writes deterministically.
/// Counters are atomic so readers and the (inline) compaction path can
/// update them without coordination.
struct IoStats {
  static constexpr uint64_t kBlockSize = 4096;

  std::atomic<uint64_t> block_reads{0};
  std::atomic<uint64_t> block_writes{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> random_reads{0};   // positioned read calls
  std::atomic<uint64_t> sequential_writes{0};  // append calls
  std::atomic<uint64_t> syncs{0};              // fsync/Sync calls
  /// Gauge: bytes the Env's files hold in memory, a removed file's
  /// included for as long as a handle keeps it open, and its high-water
  /// mark. Only MemEnv, whose files are memory, keeps them; elsewhere
  /// both stay 0.
  std::atomic<uint64_t> live_file_bytes{0};
  std::atomic<uint64_t> live_file_bytes_peak{0};

  // Every Env implementation funnels each blocking operation through
  // exactly one Record* call (tools/lint.sh check 5), which makes these
  // the chokepoint for the debug-build no-I/O-under-engine-lock guard:
  // AssertBlockingIoAllowed aborts when a ranked no-io mutex is held here.

  void RecordRead(uint64_t offset, uint64_t n) {
    AssertBlockingIoAllowed("read");
    if (n == 0) return;
    const uint64_t first = offset / kBlockSize;
    const uint64_t last = (offset + n - 1) / kBlockSize;
    block_reads.fetch_add(last - first + 1, std::memory_order_relaxed);
    bytes_read.fetch_add(n, std::memory_order_relaxed);
    random_reads.fetch_add(1, std::memory_order_relaxed);
  }

  void RecordAppend(uint64_t n) {
    AssertBlockingIoAllowed("append");
    // Appends are sequential; charge whole blocks on flush boundaries is
    // overkill, so charge ceil(n / block) which matches write amp math.
    block_writes.fetch_add((n + kBlockSize - 1) / kBlockSize,
                           std::memory_order_relaxed);
    bytes_written.fetch_add(n, std::memory_order_relaxed);
    sequential_writes.fetch_add(1, std::memory_order_relaxed);
  }

  void RecordSync() {
    AssertBlockingIoAllowed("sync");
    syncs.fetch_add(1, std::memory_order_relaxed);
  }

  void AddLiveFileBytes(uint64_t n) {
    const uint64_t live =
        live_file_bytes.fetch_add(n, std::memory_order_relaxed) + n;
    uint64_t peak = live_file_bytes_peak.load(std::memory_order_relaxed);
    while (peak < live && !live_file_bytes_peak.compare_exchange_weak(
                              peak, live, std::memory_order_relaxed)) {
    }
  }
  void SubLiveFileBytes(uint64_t n) {
    live_file_bytes.fetch_sub(n, std::memory_order_relaxed);
  }

  /// Zeroes the counters. The gauge keeps its value; its high-water mark
  /// restarts from it.
  void Reset() {
    block_reads.store(0);
    block_writes.store(0);
    bytes_read.store(0);
    bytes_written.store(0);
    random_reads.store(0);
    sequential_writes.store(0);
    syncs.store(0);
    live_file_bytes_peak.store(live_file_bytes.load());
  }

  std::string ToString() const;
};

}  // namespace lsmlab

#endif  // LSMLAB_STORAGE_IO_STATS_H_
