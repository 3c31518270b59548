#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// The harness's own statistics: latency percentiles under the "at least ten
// samples beyond" rule, medians, and the failure ratio with its base.
// Header-only so stats_test.cc checks exactly the code perfbench.cc runs.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie above
/// it; below that, one outlier more or less moves the value arbitrarily.
inline constexpr size_t kMinSamplesBeyond = 10;

struct PercentileResult {
  double value = 0;
  size_t samples = 0;  ///< sample count the percentile was taken over
  size_t beyond = 0;   ///< samples ranked strictly above it
  bool supported = false;
};

/// Nearest-rank percentile `pct` (1..99) of `sorted` (ascending): the value
/// at 1-based rank ceil(pct * n / 100). Integer rank arithmetic keeps p99 of
/// exactly 1000 samples at rank 990, with 10 beyond.
template <typename T>
PercentileResult Percentile(const std::vector<T>& sorted, unsigned pct) {
  PercentileResult r;
  r.samples = sorted.size();
  if (sorted.empty() || pct == 0 || pct >= 100) {
    return r;
  }
  const size_t rank = (pct * sorted.size() + 99) / 100;
  r.value = sorted[rank - 1];
  r.beyond = sorted.size() - rank;
  r.supported = r.beyond >= kMinSamplesBeyond;
  return r;
}

/// Median of `v` (the mean of the middle two for an even count); 0 if empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Latency samples of one operation kind, in microseconds. Stored as float
/// (24-bit mantissa, far finer than the clock) to halve the memory a run's
/// samples add to rss_peak_mb.
class Samples {
 public:
  void Add(double us) { values_.push_back(static_cast<float>(us)); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }

  PercentileResult At(unsigned pct) {
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    return Percentile(values_, pct);
  }

 private:
  std::vector<float> values_;
  bool sorted_ = false;
};

/// Operations attempted and failed. The base is key operations: a MultiGet
/// of 16 keys is 16 attempts, and each wrong or erroring slot is one failure,
/// the same unit throughput counts.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
  /// failed / attempted; 1 when nothing was attempted, since a run that did
  /// no work cannot count as having succeeded.
  double FailedRatio() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
