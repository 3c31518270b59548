// E6 — Range filters cut empty-range scan I/O (tutorial §II-3).
//
// Claim: without range filters every scan probes every run; SuRF-style
// tries help most for long ranges, Rosetta for short ranges, prefix Bloom
// only within its prefix bucket, SNARF across the board at its budget.
// Sweeps empty-range width; reports I/Os per scan and filter memory.

#include <memory>

#include "bench_common.h"
#include "rangefilter/range_filter.h"

namespace lsmlab {
namespace bench {
namespace {

struct Entry {
  const char* name;
  const RangeFilterPolicy* policy;  // may be null (baseline)
};

void Run() {
  PrintHeader("E6 range filters",
              "filter,range_width,ios_per_empty_scan,"
              "files_skipped_per_scan,range_filter_bytes_per_table");

  std::unique_ptr<const RangeFilterPolicy> surf(NewSurfRangeFilter(8));
  std::unique_ptr<const RangeFilterPolicy> rosetta(
      NewRosettaRangeFilter(22, 26));
  std::unique_ptr<const RangeFilterPolicy> snarf(NewSnarfRangeFilter(12));
  std::unique_ptr<const RangeFilterPolicy> prefix(
      NewPrefixBloomRangeFilter(6, 12));
  const Entry entries[] = {
      {"none", nullptr},
      {"prefix_bloom", prefix.get()},
      {"surf", surf.get()},
      {"rosetta", rosetta.get()},
      {"snarf", snarf.get()},
  };

  // Keys on a coarse lattice so empty ranges of all widths exist: key i
  // maps to i << 24 (gaps of 2^24).
  const size_t kN = 50000;

  for (const Entry& e : entries) {
    Options options;
    options.merge_policy = MergePolicy::kTiering;  // many runs: worst case
    options.size_ratio = 4;
    options.write_buffer_size = 64 << 10;
    options.max_file_size = 64 << 10;
    options.level0_compaction_trigger = 2;
    options.filter_allocation = FilterAllocation::kNone;
    options.range_filter_policy = e.policy;

    TestDb db;
    db.env.reset(NewMemEnv());
    options.env = db.env.get();
    if (!DB::Open(options, "/bench", &db.db).ok()) {
      std::abort();
    }
    Random load_rng(11);
    for (size_t i = 0; i < kN; i++) {
      const uint64_t v = load_rng.Uniform(1 << 22);
      const std::string key = EncodeKey(v << 24);
      db.db->Put({}, key, ValueForKey(key, 32)).IgnoreError();
    }

    for (unsigned width_log : {4u, 8u, 12u, 16u, 20u}) {
      const uint64_t width = uint64_t{1} << width_log;
      Random rng(23);
      const int kScans = 300;
      DBStats before = db.db->GetStats();
      const uint64_t io_before = db.io()->block_reads.load();
      for (int i = 0; i < kScans; i++) {
        // Ranges inside lattice gaps: offset 2^23..2^23+width (< 2^24).
        const uint64_t base = rng.Uniform(1 << 22) << 24;
        const uint64_t lo = base + (1 << 23);
        std::vector<std::pair<std::string, std::string>> results;
        db.db->Scan({}, EncodeKey(lo), EncodeKey(lo + width), 100, &results).IgnoreError();
      }
      DBStats after = db.db->GetStats();
      const double ios =
          static_cast<double>(db.io()->block_reads.load() - io_before) /
          kScans;
      const double skipped =
          static_cast<double>(after.range_filter_skips -
                              before.range_filter_skips) /
          kScans;
      // index_filter_memory counts open tables, so read it after the
      // scans have touched every table.
      DBStats final_stats = db.db->GetStats();
      const double table_filter_bytes =
          final_stats.total_files == 0
              ? 0
              : static_cast<double>(final_stats.index_filter_memory) /
                    final_stats.total_files;
      std::printf("%s,2^%u,%.2f,%.2f,%.0f\n", e.name, width_log, ios,
                  skipped, table_filter_bytes);
    }
  }
  std::printf(
      "# expect: 'none' pays the full run count at every width; rosetta\n"
      "# and snarf skip nearly all runs for short ranges; surf skips\n"
      "# well at large widths; prefix_bloom only below its bucket size.\n");
}

}  // namespace
}  // namespace bench
}  // namespace lsmlab

int main() { lsmlab::bench::Run(); }
