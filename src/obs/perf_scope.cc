#include "obs/perf_scope.h"

namespace lsmlab {

namespace {

/// True while an outermost PerfScope is open on this thread.
thread_local bool t_scope_open = false;

}  // namespace

PerfScope::PerfScope(StatsRegistry* stats, uint64_t PerfContext::*micros,
                     PhaseHistogram phase)
    : phase_(phase) {
  if (t_scope_open) {
    return;
  }
  t_scope_open = true;
  stats_ = stats;
  micros_ = micros;
  before_.emplace(*GetPerfContext());
  if (micros_ != nullptr) {
    start_ = std::chrono::steady_clock::now();
  }
}

void PerfScope::Close() {
  if (!before_.has_value()) {
    return;
  }
  PerfContext* perf = GetPerfContext();
  if (micros_ != nullptr) {
    const uint64_t micros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    perf->*micros_ += micros;
    if (stats_ != nullptr) {
      stats_->Record(phase_, static_cast<double>(micros));
    }
  }
  if (stats_ != nullptr) {
    stats_->MergePerfDelta(perf->Delta(*before_));
  }
  before_.reset();
  t_scope_open = false;
}

}  // namespace lsmlab
