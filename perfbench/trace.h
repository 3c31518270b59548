#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// The traced run's instruments. Each one wraps a public extension point of
// the engine (Env, Comparator, Options::filter_factory, EventListener) and
// charges time and counts to the thread that made the call; nothing here
// reaches inside the engine. Untraced runs install none of them.
//
// Counters live in one block per thread. Only the owning thread writes its
// block (a relaxed load and store, no locked instruction), and any thread
// may read it, so background work is attributed to the thread that did it
// rather than to whichever phase a listener callback happens to arrive in.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "filter/filter_policy.h"
#include "obs/event_listener.h"
#include "storage/env.h"
#include "util/comparator.h"

namespace perfbench {

/// Filter policies are numbered by level in the order the engine asks the
/// factory for them: it asks once per level, 0 first, at every DB open.
inline constexpr int kTracedLevels = 8;

enum Counter : size_t {
  // storage: the Env wrapper, by file kind.
  kTableReads,
  kTableReadNs,
  kTableReadBytes,
  kTableWriteNs,  ///< appends, syncs and closes of table files
  kWalAppends,
  kWalAppendNs,
  kWalSyncs,
  kManifestAppends,
  // filter: the wrapping filter_factory.
  kFilterProbes,
  kFilterProbeNs,
  kFilterNegatives,
  kFilterBuildNs,
  kFilterKeys,
  kFilterBytes,
  // index/util: the counting comparator (count only).
  kKeyCompares,
  // compaction: the listener, charged to the thread that delivered it.
  kFlushUs,
  kCompactionUs,
  kStallSlowdown,
  kStallMemtableFull,
  kStallL0Stop,
  // Per-level filter probes and negatives.
  kLevelProbes,
  kLevelNegatives = kLevelProbes + kTracedLevels,
  kNumCounters = kLevelNegatives + kTracedLevels,
};

using Counts = std::array<uint64_t, kNumCounters>;

Counts operator-(const Counts& a, const Counts& b);

/// Who a thread works for. Threads the harness never labels are the
/// engine's own: its background flush and compaction worker.
enum class Role { kBackground, kMain, kClient };

/// Process-wide registry of per-thread counter blocks.
class Trace {
 public:
  static Trace& Get();

  /// Labels the calling thread; call before it does any traced work.
  void SetThreadRole(Role role);
  void Add(Counter c, uint64_t n);
  /// The calling thread's own counters.
  Counts Local();
  /// Sums over every thread with `role`.
  Counts Sum(Role role) const;
  Counts SumAll() const;

 private:
  struct Block {
    Role role = Role::kBackground;
    std::array<std::atomic<uint64_t>, kNumCounters> c{};
  };
  Block* Mine();

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Block>> blocks_;  // guarded by mu_; never shrinks
};

/// Times and counts table reads, table/WAL/manifest writes. IoStats stay on
/// the wrapped env, which is what the reconciliation compares against.
std::unique_ptr<lsmlab::Env> NewTracingEnv(lsmlab::Env* base);

/// Bytewise order; counts every Compare on the calling thread.
const lsmlab::Comparator* CountingBytewiseComparator();

/// Options::filter_factory: a standard Bloom policy with timed, counted
/// builds and probes.
const lsmlab::FilterPolicy* NewTracingBloomPolicy(double bits_per_key);

/// Flush and compaction job time, and write stalls by cause.
std::shared_ptr<lsmlab::EventListener> NewTracingListener();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
