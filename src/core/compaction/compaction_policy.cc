#include "core/compaction/compaction_policy.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>
#include <utility>

#include "cache/block_cache.h"

namespace lsmlab {

namespace {

/// All files of every run in `level`.
std::vector<FileMetaPtr> AllFiles(const Version& v, int level) {
  std::vector<FileMetaPtr> files;
  for (const Run& run : v.levels()[level].runs) {
    files.insert(files.end(), run.files.begin(), run.files.end());
  }
  return files;
}

/// Whether merges may be cut into subranges (CompactionPick::
/// subcompactions): not under a partial file picker, which would later
/// move each subrange's short last file alone, for few bytes per rewrite
/// of the next level (E10/E17 write_amp rose by 3-24% when these merges
/// were split). Whole-level and tiered merges rewrite a level or run
/// whole, whatever its file sizes.
bool SplitsMerges(const Options& options) {
  return options.merge_policy != MergePolicy::kLeveling ||
         options.file_picker == CompactionFilePicker::kWholeLevel;
}

// --------------------------------------------------------------- Fluid --

/// The one merging policy. Each level from 1 down is leveled or tiered,
/// and the merge_policy preset says which: leveling levels all of them,
/// tiering none, and lazy leveling (Dostoevsky [Dayan & Idreos '18]) only
/// the largest populated one, so point reads and long scans cost about
/// what leveling costs while most merging is avoided (tutorial I-2,
/// II-iv).
/// - A leveled level holds one run and fires when its bytes exceed its
///   capacity.
/// - A tiered level collects runs and fires at T of them; level 0, which
///   collects flush runs, fires at level0_compaction_trigger.
/// A firing level's inputs go to the next level: into its run, rewriting
/// the files they overlap there, when it is leveled, else into a fresh
/// run. Only when every level is leveled does a partial file picker choose one
/// file (plus its overlaps) per pick, the tail-latency-friendly
/// granularity of RocksDB leveled compaction, and only then does the read
/// trigger apply. At T = 2 tiering also holds at most one run per level,
/// yet it still differs from leveling: it pushes a run down whole instead
/// of merging it into the next level's (E1: 6 runs against 5, write_amp
/// 7.15 against 6.67), so a level's kind is not its run bound.
class FluidPolicy : public CompactionPolicy {
 public:
  FluidPolicy(const Options& options, const InternalKeyComparator* icmp,
              BlockCache* block_cache)
      : options_(options), icmp_(icmp), block_cache_(block_cache) {}

  size_t MaxRuns(const Version& v, int level) const override {
    return Leveled(v, level) ? 1 : kUnboundedRuns;
  }

  std::optional<CompactionPick> Pick(const Version& v) override {
    if (AllLeveled() &&
        options_.file_picker == CompactionFilePicker::kOldest) {
      NoteArrivals(v);
    }
    std::optional<CompactionPick> pick = PickMerge(v);
    if (pick.has_value()) {
      pick->subcompactions = SplitsMerges(options_);
    }
    return pick;
  }

 private:
  bool AllLeveled() const {
    return options_.merge_policy == MergePolicy::kLeveling;
  }

  bool Leveled(const Version& v, int level) const {
    switch (options_.merge_policy) {
      case MergePolicy::kLeveling:
        return level >= 1;
      case MergePolicy::kLazyLeveling:
        return level == std::max(v.MaxPopulatedLevel(), 1);
      default:
        return false;
    }
  }

  std::optional<CompactionPick> PickMerge(const Version& v) {
    for (int level = 1; level < v.num_levels(); level++) {
      if (Leveled(v, level) && v.levels()[level].runs.size() > 1) {
        return CollapseLevel(v, level);
      }
    }

    // Read-triggered compaction (trigger primitive of [76]): a file that
    // keeps wasting point probes gets merged down regardless of sizes.
    if (AllLeveled() && options_.seek_compaction_threshold > 0) {
      auto pick = PickSeekTriggered(v);
      if (pick.has_value()) {
        return pick;
      }
    }

    for (int level = 0; level < v.num_levels() - 1; level++) {
      const LevelState& state = v.levels()[level];
      std::vector<FileMetaPtr> inputs;
      if (Leveled(v, level)) {
        if (state.TotalBytes() <= LevelCapacity(level)) {
          continue;
        }
        inputs = AllLeveled() ? PickFiles(v, level) : AllFiles(v, level);
      } else {
        const int trigger = level == 0 ? options_.level0_compaction_trigger
                                       : options_.size_ratio;
        if (static_cast<int>(state.runs.size()) < trigger) {
          continue;
        }
        inputs = AllFiles(v, level);
      }
      if (inputs.empty()) {
        continue;
      }
      return PickInto(v, level, std::move(inputs));
    }
    return std::nullopt;
  }

  /// Moves `inputs` from `level` to the next level: into its run, with the
  /// files they overlap there, when that level is leveled, else into a
  /// fresh run.
  CompactionPick PickInto(const Version& v, int level,
                          std::vector<FileMetaPtr> inputs) const {
    CompactionPick pick;
    pick.level = level;
    pick.output_level = level + 1;
    pick.inputs = std::move(inputs);
    if (Leveled(v, level + 1)) {
      Slice smallest, largest;
      KeyRange(pick.inputs, &smallest, &largest);
      pick.output_overlaps = Overlaps(v, level + 1, smallest, largest);
      const std::vector<Run>& runs = v.levels()[level + 1].runs;
      pick.output_run_seq = runs.empty() ? 0 : runs[0].run_seq;
    }
    return pick;
  }

  /// A collapse of `level`'s runs into one fresh run, for a leveled level
  /// that holds more: a tree written under tiering and reopened under
  /// leveling or lazy leveling. Merging the level first keeps a later
  /// pick from joining or moving part of one run, which could push a
  /// newer file below an older one.
  static CompactionPick CollapseLevel(const Version& v, int level) {
    CompactionPick pick;
    pick.level = level;
    pick.output_level = level;
    pick.inputs = AllFiles(v, level);
    return pick;
  }

  /// Byte capacity of a leveled `level`: level 0 holds flushed buffers;
  /// deeper levels grow by T.
  uint64_t LevelCapacity(int level) const {
    double cap = static_cast<double>(options_.write_buffer_size) *
                 options_.level0_compaction_trigger;
    for (int i = 0; i < level; i++) {
      cap *= options_.size_ratio;
    }
    return static_cast<uint64_t>(cap);
  }

  /// Files of the output level's runs overlapping [smallest, largest] in
  /// user-key space: one fence search per run.
  std::vector<FileMetaPtr> Overlaps(const Version& v, int output_level,
                                    const Slice& smallest,
                                    const Slice& largest) const {
    std::vector<FileMetaPtr> result;
    const Slice lo = ExtractUserKey(smallest);
    const Slice hi = ExtractUserKey(largest);
    for (const Run& run : v.levels()[output_level].runs) {
      const std::span<const FileMetaPtr> files =
          FenceSearch(run.files, *icmp_->user_comparator(), &lo, &hi);
      result.insert(result.end(), files.begin(), files.end());
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
      // Level-0 runs overlap; a partial pick would break run ordering,
      // so a level-0 seek trigger merges the whole level like the count
      // trigger does.
      return PickInto(v, level,
                      level == 0 ? AllFiles(v, 0)
                                 : std::vector<FileMetaPtr>{hottest});
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
        return {PickOldest(files, level)};
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

  /// The file that reached `level` first; files that arrived together
  /// rank by number.
  FileMetaPtr PickOldest(const std::vector<FileMetaPtr>& files,
                         int level) const {
    const std::unordered_map<uint64_t, uint64_t>& arrived = arrivals_[level];
    auto rank = [&](const FileMetaPtr& f) {
      return std::make_pair(arrived.at(f->number), f->number);
    };
    FileMetaPtr best = files[0];
    for (const FileMetaPtr& f : files) {
      if (rank(f) < rank(best)) {
        best = f;
      }
    }
    return best;
  }

  /// Stamps each file of `v` at levels from 1 down with the Pick call
  /// that first saw it at its level. Every compaction is followed by a
  /// Pick, so a file moved into a level ranks after the files already
  /// there, though a move keeps its number. The stamps live only in
  /// memory: after a reopen the first Pick sees every file at once.
  void NoteArrivals(const Version& v) {
    arrivals_.resize(v.num_levels());
    for (int level = 1; level < v.num_levels(); level++) {
      std::unordered_map<uint64_t, uint64_t> arrived;
      for (const Run& run : v.levels()[level].runs) {
        for (const FileMetaPtr& f : run.files) {
          auto seen = arrivals_[level].find(f->number);
          arrived[f->number] =
              seen != arrivals_[level].end() ? seen->second : picks_;
        }
      }
      arrivals_[level] = std::move(arrived);
    }
    picks_++;
  }

  const Options options_;
  const InternalKeyComparator* const icmp_;
  BlockCache* const block_cache_;
  std::vector<std::string> cursors_;  // per-level round-robin position
  // kOldest: per level, file number to the Pick that first saw it there.
  std::vector<std::unordered_map<uint64_t, uint64_t>> arrivals_;
  uint64_t picks_ = 0;
};

// ------------------------------------------------------------------ FIFO --

/// FIFO: no merging at all. Flush runs pile up in level 0 and the oldest
/// run is dropped once the total size exceeds the budget — the
/// cache/TTL-style layout RocksDB ships for time-series data.
class FifoPolicy : public CompactionPolicy {
 public:
  explicit FifoPolicy(uint64_t size_budget) : size_budget_(size_budget) {}

  std::optional<CompactionPick> Pick(const Version& v) override {
    if (v.levels()[0].TotalBytes() <= size_budget_ ||
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

 private:
  const uint64_t size_budget_;
};

}  // namespace

std::unique_ptr<CompactionPolicy> CreateCompactionPolicy(
    const Options& options, const InternalKeyComparator* icmp,
    BlockCache* block_cache) {
  if (options.merge_policy == MergePolicy::kFifo) {
    return std::make_unique<FifoPolicy>(options.fifo_size_budget);
  }
  return std::make_unique<FluidPolicy>(options, icmp, block_cache);
}

std::optional<CompactionPick> PickMajorCompaction(const Version& v,
                                                  const Options& options) {
  if (v.TotalRuns() <= 1) {
    return std::nullopt;
  }
  int shallowest = 0;
  while (v.levels()[shallowest].runs.empty()) {
    shallowest++;
  }
  CompactionPick pick;
  pick.level = shallowest;
  pick.inputs = AllFiles(v, shallowest);
  pick.subcompactions = SplitsMerges(options);
  if (shallowest == v.MaxPopulatedLevel()) {
    pick.output_level = shallowest;  // collapse the bottom's runs
  } else {
    // Consume the next level entirely too, producing one merged run: its
    // run, when it holds one, so the level never holds a second.
    pick.output_level = shallowest + 1;
    pick.output_overlaps = AllFiles(v, shallowest + 1);
    const std::vector<Run>& runs = v.levels()[shallowest + 1].runs;
    if (runs.size() == 1) {
      pick.output_run_seq = runs[0].run_seq;
    }
  }
  return pick;
}

}  // namespace lsmlab
