#ifndef LSMLAB_OBS_PERF_SCOPE_H_
#define LSMLAB_OBS_PERF_SCOPE_H_

#include <chrono>
#include <cstdint>
#include <optional>

#include "obs/perf_context.h"
#include "obs/stats_registry.h"

namespace lsmlab {

/// The counter scope of one operation on the calling thread: the one place
/// a PerfContext delta is folded into a StatsRegistry.
///
/// Only the outermost scope on a thread does any work. It snapshots the
/// thread's PerfContext when it opens and, when it closes, folds the delta
/// into `stats` once; with a phase it also times the operation, adding the
/// elapsed micros to that PerfContext field and to the phase histogram. A
/// scope opened inside another (a Scan's iterator steps, the Put inside a
/// value-log GC) costs one thread-local check and leaves its work to the
/// outer scope's delta, so every count is folded exactly once.
class PerfScope {
 public:
  /// `stats` may be null: the scope then folds nowhere, but still hides
  /// the scopes nested inside it. With `micros`, the outermost scope times
  /// the operation into that field and the `phase` histogram.
  explicit PerfScope(StatsRegistry* stats,
                     uint64_t PerfContext::*micros = nullptr,
                     PhaseHistogram phase = PhaseHistogram::kNumHistograms);
  ~PerfScope() { Close(); }

  PerfScope(const PerfScope&) = delete;
  PerfScope& operator=(const PerfScope&) = delete;

  /// Folds and ends the scope before its destructor would; a second call
  /// does nothing.
  void Close();

 private:
  StatsRegistry* stats_ = nullptr;
  uint64_t PerfContext::*micros_ = nullptr;
  PhaseHistogram phase_;
  /// Set only while this is the thread's outermost open scope.
  std::optional<PerfContext> before_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace lsmlab

#endif  // LSMLAB_OBS_PERF_SCOPE_H_
