#ifndef LSMLAB_CORE_COMPACTION_COMPACTION_POLICY_H_
#define LSMLAB_CORE_COMPACTION_COMPACTION_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/options.h"
#include "core/version.h"

namespace lsmlab {

class BlockCache;

/// One unit of compaction work chosen by a policy (tutorial I-2 / [76]:
/// trigger, data layout, granularity and data movement are the compaction
/// primitives).
struct CompactionPick {
  /// Source level; -1 means "drop only" (FIFO eviction).
  int level = 0;
  int output_level = 0;
  /// Files consumed from the source level.
  std::vector<FileMetaPtr> inputs;
  /// Files of the output level's run overlapping the inputs (leveled
  /// merges); they are consumed and rewritten too.
  std::vector<FileMetaPtr> output_overlaps;
  /// Run the outputs join, at every install of the merge; 0 = allocate a
  /// fresh run (tiered push).
  uint64_t output_run_seq = 0;
  /// FIFO: delete inputs without rewriting them.
  bool drop_only = false;
  /// MergeRuns may cut the merge into key subranges. Each subrange ends
  /// its own short last file, which a partial file picker later moves
  /// alone, so a policy that picks single files clears this.
  bool subcompactions = true;
};

/// CompactionPolicy::MaxRuns of a level whose run count only triggers
/// merges.
inline constexpr size_t kUnboundedRuns = SIZE_MAX;

/// Strategy deciding when a level overflows and what to merge: the
/// data-layout axis of the design space. One merging policy serves the
/// leveling, tiering and lazy leveling presets; FIFO never merges.
class CompactionPolicy {
 public:
  virtual ~CompactionPolicy() = default;

  /// Returns the next compaction to run against `v`, or nullopt when the
  /// shape is within bounds. Policies may keep cursor state (round-robin
  /// picking), so this is non-const.
  virtual std::optional<CompactionPick> Pick(const Version& v) = 0;

  /// Most runs `level` of `v` holds after any install
  /// (Version::CheckRunBound): 1 at a level the policy keeps as one run,
  /// else kUnboundedRuns (level 0 and tiered levels, whose run count is a
  /// merge trigger that flushes may outpace).
  virtual size_t MaxRuns(const Version& /*v*/, int /*level*/) const {
    return kUnboundedRuns;
  }
};

/// Builds the policy selected by options.merge_policy. `block_cache` (may
/// be null) supplies hotness data for the kCold file picker.
std::unique_ptr<CompactionPolicy> CreateCompactionPolicy(
    const Options& options, const InternalKeyComparator* icmp,
    BlockCache* block_cache);

/// The next step of a major compaction (DB::CompactAll) on `v`: the
/// shallowest populated level merges with all of the next level into one
/// run (the next level's, when it holds exactly one; else a fresh one),
/// or, when it is the deepest, its runs merge into one.
/// nullopt once the tree is a single run.
std::optional<CompactionPick> PickMajorCompaction(const Version& v,
                                                  const Options& options);

}  // namespace lsmlab

#endif  // LSMLAB_CORE_COMPACTION_COMPACTION_POLICY_H_
