// Checks perfbench's statistics code. Run it through
// `python3 perfbench/run.py --selftest`, or directly after a build; it
// prints "ok" and exits 0, or names the first failed check and exits 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    failures++;
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; i++) {
    v.push_back(static_cast<double>(i));
  }
  return v;
}

}  // namespace

int main() {
  using perfbench::Percentile;

  // p99 needs n >= 1000: exactly 1000 samples leave 10 beyond rank 990.
  const auto p99_1000 = Percentile(Ramp(1000), 99);
  Check(p99_1000.supported, "p99 of 1000 samples is supported");
  Check(p99_1000.value == 990.0, "p99 of 1..1000 is 990");
  Check(p99_1000.beyond == 10, "p99 of 1000 samples has 10 beyond");
  Check(p99_1000.samples == 1000, "p99 reports its sample count");

  const auto p99_999 = Percentile(Ramp(999), 99);
  Check(!p99_999.supported, "p99 of 999 samples is not supported");
  Check(p99_999.beyond == 9, "p99 of 999 samples has 9 beyond");

  // p50 needs n >= 20.
  const auto p50_20 = Percentile(Ramp(20), 50);
  Check(p50_20.supported && p50_20.value == 10.0, "p50 of 1..20 is 10");
  Check(!Percentile(Ramp(19), 50).supported, "p50 of 19 is not supported");
  Check(Percentile(Ramp(101), 50).value == 51.0, "p50 of 1..101 is 51");

  Check(!Percentile(std::vector<double>{}, 50).supported,
        "empty input is not supported");
  Check(!Percentile(Ramp(5000), 100).supported, "p100 is never supported");

  // Samples sorts lazily and keeps the order across queries.
  perfbench::Samples s;
  for (int i = 2000; i >= 1; i--) {
    s.Add(i);
  }
  Check(s.At(50).value == 1000.0, "Samples p50 of 1..2000 is 1000");
  Check(s.At(99).value == 1980.0, "Samples p99 of 1..2000 is 1980");
  Check(s.At(99).beyond == 20, "Samples p99 of 2000 has 20 beyond");

  // Medians of window percentiles.
  Check(perfbench::Median({3, 1, 2}) == 2.0, "median of an odd count");
  Check(perfbench::Median({4, 1, 3, 2}) == 2.5, "median of an even count");
  Check(perfbench::Median({}) == 0.0, "median of nothing is 0");

  // The failure ratio's base is key operations attempted.
  perfbench::Tally t;
  Check(t.FailedRatio() == 1.0, "nothing attempted counts as failed");
  t.Add({/*attempted=*/16, /*failed=*/0});  // one MultiGet batch of 16
  t.Add({/*attempted=*/1, /*failed=*/1});   // one wrong Get
  Check(t.attempted == 17 && t.failed == 1, "tallies add per key");
  Check(std::fabs(t.FailedRatio() - 1.0 / 17.0) < 1e-12,
        "failed ratio is failed / attempted");

  if (failures != 0) {
    return EXIT_FAILURE;
  }
  std::printf("ok\n");
  return EXIT_SUCCESS;
}
