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
/// trigger, granularity, and data-movement policy are the compaction
/// primitives; the data-layout primitive is the policy subclass itself).
struct CompactionPick {
  /// Source level; -1 means "drop only" (FIFO eviction).
  int level = 0;
  int output_level = 0;
  /// Files consumed from the source level.
  std::vector<FileMetaPtr> inputs;
  /// Files of the output level's run overlapping the inputs (leveled
  /// merges); they are consumed and rewritten too.
  std::vector<FileMetaPtr> output_overlaps;
  /// Run the outputs join; 0 = allocate a fresh run (tiered push).
  uint64_t output_run_seq = 0;
  /// FIFO: delete inputs without rewriting them.
  bool drop_only = false;
};

/// CompactionPolicy::MaxRuns of a level whose run count only triggers
/// merges.
inline constexpr size_t kUnboundedRuns = SIZE_MAX;

/// Strategy deciding when a level overflows and what to merge — the
/// merge-policy axis of the design space (leveling / tiering / lazy
/// leveling / FIFO).
class CompactionPolicy {
 public:
  virtual ~CompactionPolicy() = default;

  virtual const char* Name() const = 0;

  /// Returns the next compaction to run against `v`, or nullopt when the
  /// shape is within bounds. Policies may keep cursor state (round-robin
  /// picking), so this is non-const.
  virtual std::optional<CompactionPick> Pick(const Version& v) = 0;

  /// Byte capacity of `level` under this policy's shape.
  virtual uint64_t LevelCapacity(int level) const = 0;

  /// Most runs `level` of `v` holds once an install completes its merge
  /// (Version::CheckRunBound):
  /// 1 at a level the policy keeps as one run, else kUnboundedRuns (level
  /// 0 and tiered levels, whose run count is a merge trigger that flushes
  /// may outpace).
  virtual size_t MaxRuns(const Version& /*v*/, int /*level*/) const {
    return kUnboundedRuns;
  }
};

/// Builds the policy selected by options.merge_policy. `block_cache` (may
/// be null) supplies hotness data for the kCold file picker.
std::unique_ptr<CompactionPolicy> CreateCompactionPolicy(
    const Options& options, const InternalKeyComparator* icmp,
    BlockCache* block_cache);

}  // namespace lsmlab

#endif  // LSMLAB_CORE_COMPACTION_COMPACTION_POLICY_H_
