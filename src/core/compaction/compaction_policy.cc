#include "core/compaction/compaction_policy.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "cache/block_cache.h"

namespace lsmlab {

namespace {

/// Shared helpers for capacity math and overlap computation.
class PolicyBase : public CompactionPolicy {
 public:
  PolicyBase(const Options& options, const InternalKeyComparator* icmp,
             BlockCache* block_cache)
      : options_(options), icmp_(icmp), block_cache_(block_cache) {}

  uint64_t LevelCapacity(int level) const override {
    // Level 0 holds flushed buffers; deeper levels grow by T.
    double cap = static_cast<double>(options_.write_buffer_size) *
                 options_.level0_compaction_trigger;
    for (int i = 0; i < level; i++) {
      cap *= options_.size_ratio;
    }
    return static_cast<uint64_t>(cap);
  }

 protected:
  /// All files of every run in `level`.
  static std::vector<FileMetaPtr> AllFiles(const Version& v, int level) {
    std::vector<FileMetaPtr> files;
    for (const Run& run : v.levels()[level].runs) {
      files.insert(files.end(), run.files.begin(), run.files.end());
    }
    return files;
  }

  /// Files of the output level's newest run overlapping [smallest,
  /// largest] in user-key space.
  std::vector<FileMetaPtr> Overlaps(const Version& v, int output_level,
                                    const Slice& smallest,
                                    const Slice& largest) const {
    std::vector<FileMetaPtr> result;
    if (output_level >= v.num_levels()) {
      return result;
    }
    const Comparator* ucmp = icmp_->user_comparator();
    Slice user_lo = ExtractUserKey(smallest);
    Slice user_hi = ExtractUserKey(largest);
    for (const Run& run : v.levels()[output_level].runs) {
      for (const FileMetaPtr& f : run.files) {
        Slice f_lo = ExtractUserKey(Slice(f->smallest));
        Slice f_hi = ExtractUserKey(Slice(f->largest));
        if (ucmp->Compare(f_hi, user_lo) < 0 ||
            ucmp->Compare(f_lo, user_hi) > 0) {
          continue;
        }
        result.push_back(f);
      }
    }
    return result;
  }

  /// Key range (internal keys) spanned by `files`.
  void KeyRange(const std::vector<FileMetaPtr>& files, Slice* smallest,
                Slice* largest) const {
    assert(!files.empty());
    *smallest = Slice(files[0]->smallest);
    *largest = Slice(files[0]->largest);
    for (const FileMetaPtr& f : files) {
      if (icmp_->Compare(Slice(f->smallest), *smallest) < 0) {
        *smallest = Slice(f->smallest);
      }
      if (icmp_->Compare(Slice(f->largest), *largest) > 0) {
        *largest = Slice(f->largest);
      }
    }
  }

  /// A collapse of `level`'s runs into one fresh run, for a level that
  /// should hold one run but holds more: a merge into it stopped between
  /// two of its installs (a crash or a failed subrange), leaving the
  /// installed prefix's run beside the rest of the old one. Merging the
  /// level first keeps a later pick from joining or moving part of it,
  /// which could leave one run holding overlapping files or push a newer
  /// file below an older one.
  static CompactionPick CollapseLevel(const Version& v, int level) {
    CompactionPick pick;
    pick.level = level;
    pick.output_level = level;
    pick.inputs = AllFiles(v, level);
    pick.output_run_seq = 0;
    return pick;
  }

  /// run_seq of the run the outputs should join in `output_level`:
  /// the level's existing single run under leveling, else 0 (new run).
  static uint64_t ExistingRunSeq(const Version& v, int output_level) {
    if (output_level < v.num_levels() &&
        !v.levels()[output_level].runs.empty()) {
      return v.levels()[output_level].runs[0].run_seq;
    }
    return 0;
  }

  const Options options_;
  const InternalKeyComparator* const icmp_;
  BlockCache* const block_cache_;
};

// ---------------------------------------------------------------- Leveled --

/// Classic leveling: one run per level; an over-capacity level pushes data
/// into the next. With a partial file picker only one file (plus its
/// overlaps) moves per compaction — the tail-latency-friendly granularity
/// of RocksDB leveled compaction (tutorial I-2).
class LeveledPolicy : public PolicyBase {
 public:
  using PolicyBase::PolicyBase;

  const char* Name() const override { return "leveled"; }

  size_t MaxRuns(const Version& /*v*/, int level) const override {
    return level == 0 ? kUnboundedRuns : 1;
  }

  std::optional<CompactionPick> Pick(const Version& v) override {
    for (int level = 1; level < v.num_levels(); level++) {
      if (v.levels()[level].runs.size() > 1) {
        return CollapseLevel(v, level);
      }
    }

    // Read-triggered compaction (trigger primitive of [76]): a file that
    // keeps wasting point probes gets merged down regardless of sizes.
    if (options_.seek_compaction_threshold > 0) {
      auto pick = PickSeekTriggered(v);
      if (pick.has_value()) {
        return pick;
      }
    }

    // Level 0 first: merge all flush runs into level 1 when the trigger is
    // reached.
    if (static_cast<int>(v.levels()[0].runs.size()) >=
        options_.level0_compaction_trigger) {
      CompactionPick pick;
      pick.level = 0;
      pick.output_level = 1;
      pick.inputs = AllFiles(v, 0);
      Slice smallest, largest;
      KeyRange(pick.inputs, &smallest, &largest);
      pick.output_overlaps = Overlaps(v, 1, smallest, largest);
      pick.output_run_seq = ExistingRunSeq(v, 1);
      return pick;
    }

    for (int level = 1; level < v.num_levels() - 1; level++) {
      if (v.levels()[level].TotalBytes() <= LevelCapacity(level)) {
        continue;
      }
      CompactionPick pick;
      pick.level = level;
      pick.output_level = level + 1;
      pick.inputs = PickFiles(v, level);
      if (pick.inputs.empty()) {
        continue;
      }
      Slice smallest, largest;
      KeyRange(pick.inputs, &smallest, &largest);
      pick.output_overlaps = Overlaps(v, level + 1, smallest, largest);
      pick.output_run_seq = ExistingRunSeq(v, level + 1);
      return pick;
    }
    return std::nullopt;
  }

 private:
  std::optional<CompactionPick> PickSeekTriggered(const Version& v) {
    for (int level = 0; level < v.num_levels() - 1; level++) {
      FileMetaPtr hottest;
      for (const Run& run : v.levels()[level].runs) {
        for (const FileMetaPtr& f : run.files) {
          if (f->wasted_probes.load(std::memory_order_relaxed) >=
                  options_.seek_compaction_threshold &&
              (hottest == nullptr ||
               f->wasted_probes > hottest->wasted_probes)) {
            hottest = f;
          }
        }
      }
      if (hottest == nullptr) {
        continue;
      }
      CompactionPick pick;
      pick.level = level;
      pick.output_level = level + 1;
      if (level == 0) {
        // Level-0 runs overlap; a partial pick would break run ordering,
        // so a level-0 seek trigger merges the whole level like the
        // count trigger does.
        pick.inputs = AllFiles(v, 0);
      } else {
        pick.inputs = {hottest};
      }
      Slice smallest, largest;
      KeyRange(pick.inputs, &smallest, &largest);
      pick.output_overlaps = Overlaps(v, level + 1, smallest, largest);
      pick.output_run_seq = ExistingRunSeq(v, level + 1);
      return pick;
    }
    return std::nullopt;
  }

  std::vector<FileMetaPtr> PickFiles(const Version& v, int level) {
    std::vector<FileMetaPtr> files = AllFiles(v, level);
    if (files.empty()) {
      return files;
    }
    switch (options_.file_picker) {
      case CompactionFilePicker::kWholeLevel:
        return files;
      case CompactionFilePicker::kRoundRobin:
        return {PickRoundRobin(files, level)};
      case CompactionFilePicker::kMinOverlap:
        return {PickMinOverlap(v, files, level)};
      case CompactionFilePicker::kCold:
        return {PickCold(files)};
      case CompactionFilePicker::kOldest:
        return {PickOldest(files)};
    }
    return files;
  }

  FileMetaPtr PickRoundRobin(const std::vector<FileMetaPtr>& files,
                             int level) {
    // Resume after the last compacted key; wrap at the end of the level.
    if (static_cast<int>(cursors_.size()) <= level) {
      cursors_.resize(level + 1);
    }
    const std::string& cursor = cursors_[level];
    FileMetaPtr chosen;
    for (const FileMetaPtr& f : files) {
      if (cursor.empty() || icmp_->Compare(Slice(f->smallest),
                                           Slice(cursor)) > 0) {
        if (chosen == nullptr ||
            icmp_->Compare(Slice(f->smallest), Slice(chosen->smallest)) < 0) {
          chosen = f;
        }
      }
    }
    if (chosen == nullptr) {
      chosen = files[0];  // wrap around
    }
    cursors_[level] = chosen->smallest;
    return chosen;
  }

  FileMetaPtr PickMinOverlap(const Version& v,
                             const std::vector<FileMetaPtr>& files,
                             int level) const {
    FileMetaPtr best;
    uint64_t best_bytes = std::numeric_limits<uint64_t>::max();
    for (const FileMetaPtr& f : files) {
      uint64_t bytes = 0;
      for (const FileMetaPtr& o :
           Overlaps(v, level + 1, Slice(f->smallest), Slice(f->largest))) {
        bytes += o->file_size;
      }
      if (bytes < best_bytes) {
        best_bytes = bytes;
        best = f;
      }
    }
    return best;
  }

  FileMetaPtr PickCold(const std::vector<FileMetaPtr>& files) const {
    FileMetaPtr best;
    uint64_t best_heat = std::numeric_limits<uint64_t>::max();
    for (const FileMetaPtr& f : files) {
      const uint64_t heat =
          block_cache_ != nullptr ? block_cache_->FileAccesses(f->number) : 0;
      if (heat < best_heat) {
        best_heat = heat;
        best = f;
      }
    }
    return best;
  }

  static FileMetaPtr PickOldest(const std::vector<FileMetaPtr>& files) {
    FileMetaPtr best = files[0];
    for (const FileMetaPtr& f : files) {
      if (f->number < best->number) {
        best = f;
      }
    }
    return best;
  }

  std::vector<std::string> cursors_;  // per-level round-robin position
};

// ----------------------------------------------------------------- Tiered --

/// Tiering: levels accumulate up to T runs; a full level merges all its
/// runs into ONE new run of the next level (no read-merge with the next
/// level's data) — minimal write amplification, more runs per lookup.
class TieredPolicy : public PolicyBase {
 public:
  using PolicyBase::PolicyBase;

  const char* Name() const override { return "tiered"; }

  std::optional<CompactionPick> Pick(const Version& v) override {
    for (int level = 0; level < v.num_levels() - 1; level++) {
      const int trigger = level == 0 ? options_.level0_compaction_trigger
                                     : options_.size_ratio;
      if (static_cast<int>(v.levels()[level].runs.size()) < trigger) {
        continue;
      }
      CompactionPick pick;
      pick.level = level;
      pick.output_level = level + 1;
      pick.inputs = AllFiles(v, level);
      pick.output_run_seq = 0;  // always a fresh run
      return pick;
    }
    return std::nullopt;
  }
};

// ----------------------------------------------------- Lazy leveling ------

/// Dostoevsky's lazy leveling [Dayan & Idreos '18]: tiering at every level
/// except the largest populated one, which stays a single run. Point reads
/// and long scans cost ~like leveling (the largest level dominates) while
/// most merging — which happens at the largest level — is avoided
/// elsewhere (tutorial I-2, II-iv).
class LazyLevelingPolicy : public PolicyBase {
 public:
  using PolicyBase::PolicyBase;

  const char* Name() const override { return "lazy-leveling"; }

  size_t MaxRuns(const Version& v, int level) const override {
    return level == std::max(v.MaxPopulatedLevel(), 1) ? 1 : kUnboundedRuns;
  }

  std::optional<CompactionPick> Pick(const Version& v) override {
    const int last = std::max(v.MaxPopulatedLevel(), 1);
    if (last < v.num_levels() && v.levels()[last].runs.size() > 1) {
      return CollapseLevel(v, last);
    }

    for (int level = 0; level < v.num_levels() - 1; level++) {
      const int trigger = level == 0 ? options_.level0_compaction_trigger
                                     : options_.size_ratio;
      const bool is_last = (level == last);

      if (is_last) {
        // The largest level is leveled: overflow by bytes pushes it down.
        if (level + 1 < v.num_levels() &&
            v.levels()[level].TotalBytes() > LevelCapacity(level)) {
          CompactionPick pick;
          pick.level = level;
          pick.output_level = level + 1;
          pick.inputs = AllFiles(v, level);
          pick.output_run_seq = ExistingRunSeq(v, level + 1);
          if (pick.output_run_seq != 0) {
            Slice smallest, largest;
            KeyRange(pick.inputs, &smallest, &largest);
            pick.output_overlaps =
                Overlaps(v, level + 1, smallest, largest);
          }
          return pick;
        }
        continue;
      }

      if (static_cast<int>(v.levels()[level].runs.size()) < trigger) {
        continue;
      }
      CompactionPick pick;
      pick.level = level;
      pick.output_level = level + 1;
      pick.inputs = AllFiles(v, level);
      if (level + 1 == last) {
        // Merging into the single run of the largest level.
        Slice smallest, largest;
        KeyRange(pick.inputs, &smallest, &largest);
        pick.output_overlaps = Overlaps(v, level + 1, smallest, largest);
        pick.output_run_seq = ExistingRunSeq(v, level + 1);
      } else {
        pick.output_run_seq = 0;  // tiered push
      }
      return pick;
    }
    return std::nullopt;
  }
};

// ------------------------------------------------------------------ FIFO --

/// FIFO: no merging at all. Flush runs pile up in level 0 and the oldest
/// run is dropped once the total size exceeds the budget — the
/// cache/TTL-style layout RocksDB ships for time-series data.
class FifoPolicy : public PolicyBase {
 public:
  using PolicyBase::PolicyBase;

  const char* Name() const override { return "fifo"; }

  std::optional<CompactionPick> Pick(const Version& v) override {
    if (v.levels()[0].TotalBytes() <= options_.fifo_size_budget ||
        v.levels()[0].runs.empty()) {
      return std::nullopt;
    }
    // Oldest run = smallest run_seq = last in the newest-first ordering.
    const Run& oldest = v.levels()[0].runs.back();
    CompactionPick pick;
    pick.level = 0;
    pick.output_level = 0;
    pick.inputs = oldest.files;
    pick.drop_only = true;
    return pick;
  }
};

}  // namespace

std::unique_ptr<CompactionPolicy> CreateCompactionPolicy(
    const Options& options, const InternalKeyComparator* icmp,
    BlockCache* block_cache) {
  switch (options.merge_policy) {
    case MergePolicy::kLeveling:
      return std::make_unique<LeveledPolicy>(options, icmp, block_cache);
    case MergePolicy::kTiering:
      return std::make_unique<TieredPolicy>(options, icmp, block_cache);
    case MergePolicy::kLazyLeveling:
      return std::make_unique<LazyLevelingPolicy>(options, icmp, block_cache);
    case MergePolicy::kFifo:
      return std::make_unique<FifoPolicy>(options, icmp, block_cache);
  }
  return std::make_unique<LeveledPolicy>(options, icmp, block_cache);
}

}  // namespace lsmlab
