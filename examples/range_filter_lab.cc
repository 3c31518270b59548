// Range-filter laboratory (tutorial §II-3): load a key-sparse dataset,
// then watch how each range-filter design changes the I/O cost of empty
// range scans of different widths.
//
//   ./example_range_filter_lab

#include <cstdio>
#include <memory>

#include "core/db.h"
#include "rangefilter/range_filter.h"
#include "storage/env.h"
#include "util/random.h"
#include "workload/keygen.h"
#include "workload/workload.h"

int main() {
  using namespace lsmlab;

  std::unique_ptr<const RangeFilterPolicy> filters[] = {
      nullptr,
      std::unique_ptr<const RangeFilterPolicy>(NewPrefixBloomRangeFilter(6, 12)),
      std::unique_ptr<const RangeFilterPolicy>(NewSurfRangeFilter(8)),
      std::unique_ptr<const RangeFilterPolicy>(NewRosettaRangeFilter(22, 26)),
      std::unique_ptr<const RangeFilterPolicy>(NewSnarfRangeFilter(12)),
  };
  const char* names[] = {"no filter", "prefix bloom", "SuRF", "Rosetta",
                         "SNARF"};

  std::printf("%-14s %14s %14s %14s\n", "filter", "w=16 I/Os", "w=4096 I/Os",
              "files skipped");
  for (size_t f = 0; f < std::size(filters); f++) {
    std::unique_ptr<Env> env(NewMemEnv());
    Options options;
    options.env = env.get();
    options.merge_policy = MergePolicy::kTiering;  // many runs
    options.size_ratio = 4;
    options.write_buffer_size = 64 << 10;
    options.level0_compaction_trigger = 2;
    options.filter_allocation = FilterAllocation::kNone;
    options.range_filter_policy = filters[f].get();

    std::unique_ptr<DB> db;
    if (!DB::Open(options, "/lab", &db).ok()) {
      return 1;
    }
    // Keys on a lattice (gaps of 2^24) so empty ranges are plentiful.
    Random rng(1);
    for (int i = 0; i < 30000; i++) {
      const std::string key = EncodeKey(rng.Uniform(1 << 20) << 24);
      db->Put({}, key, ValueForKey(key, 32)).IgnoreError();
    }

    double ios[2];
    uint64_t skipped_total = 0;
    int w = 0;
    for (uint64_t width : {16ull, 4096ull}) {
      Random qrng(7);
      const uint64_t before = env->io_stats()->block_reads.load();
      DBStats sbefore = db->GetStats();
      const int kScans = 300;
      for (int i = 0; i < kScans; i++) {
        const uint64_t base = (qrng.Uniform(1 << 20) << 24) + (1 << 23);
        std::vector<std::pair<std::string, std::string>> results;
        db->Scan({}, EncodeKey(base), EncodeKey(base + width), 100,
                 &results).IgnoreError();
      }
      DBStats safter = db->GetStats();
      ios[w++] = static_cast<double>(env->io_stats()->block_reads.load() -
                                     before) /
                 kScans;
      skipped_total += safter.range_filter_skips - sbefore.range_filter_skips;
    }
    std::printf("%-14s %14.2f %14.2f %14llu\n", names[f], ios[0], ios[1],
                (unsigned long long)skipped_total);
  }
  std::printf(
      "\nLower is better. Rosetta shines on short ranges, SuRF holds up\n"
      "on long ones, prefix Bloom only answers within its prefix bucket.\n");
  return 0;
}
