#ifndef LSMLAB_CORE_COMPACTION_COMPACTION_JOB_H_
#define LSMLAB_CORE_COMPACTION_COMPACTION_JOB_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/compaction/compaction_policy.h"
#include "core/table_cache.h"
#include "core/version.h"
#include "util/iterator.h"

namespace lsmlab {

/// One subrange of a build: user keys [*begin, *end) (a null bound is
/// open), and `numbers` output file numbers reserved from `first_number`
/// on (fresh ones follow once they run out).
struct Subrange {
  const Slice* begin = nullptr;
  const Slice* end = nullptr;
  uint64_t first_number = 0;
  uint64_t numbers = 0;
};

/// The one table builder, of flushes and compactions: builds tables at
/// `output_level` of `tables`' database from `iter`'s entries in `range`,
/// splitting at max_file_size. A merge (`drop_shadowed`) writes an entry
/// that repeats the previous one only once: a tree left between two
/// installs of one compaction holds its installed source-level entries
/// twice. Touches no DB state but `versions`' file-number counter.
Status BuildTables(TableCache* tables, VersionSet* versions, Iterator* iter,
                   int output_level, bool drop_shadowed, bool drop_tombstones,
                   SequenceNumber smallest_snapshot,
                   std::vector<FileMetaData>* outputs,
                   uint64_t* bytes_written, Subrange range = {});

/// A subcompaction cut: a user key, and whether an install may end there.
using SubcompactionCut = std::pair<std::string, bool>;

/// Subcompaction boundaries: user keys that cut a merge of `runs` into one
/// subrange per kSubcompactionFiles x `file_bytes` (max_file_size, at
/// least 1) of input, each paired with whether an install may end there.
/// The cuts are smallest user keys of the files of the largest run (by
/// bytes), spaced by that run's bytes, and of runs[*along], the run the
/// outputs join, spaced by its bytes: no file of that run straddles its
/// own cuts, so only those may end an install when `along` is given. The
/// cuts depend only on the input files, never on the helper count, and
/// each is a user-key boundary, so every version of a key falls in one
/// subrange. Empty when the merge is too small to split.
std::vector<SubcompactionCut> SubcompactionCuts(
    const Comparator& ucmp,
    const std::vector<std::span<const FileMetaPtr>>& runs,
    std::optional<size_t> along, uint64_t file_bytes);

/// One compaction pick, run outside the DB mutex: a drop, a move, or a
/// merge of the pick's runs into tables for the output level, cut into
/// subranges built by the calling thread and `helpers` short-lived
/// threads (negative: one per extra core). Every change to the tree goes
/// through `install`, in key order, one edit at a time; of the DB's other
/// state the job takes only output file numbers from `versions`.
class CompactionJob {
 public:
  /// The job's one way into the tree: applies `edit` (the manifest
  /// install) and returns its status.
  using InstallHook = std::function<Status(VersionEdit* edit)>;

  /// Decides, from `base` (the version `pick` was taken from, not kept)
  /// and `tables`' filter bits, whether the pick moves and whether its
  /// merge is bottommost. `run_seq` is the run the outputs join.
  CompactionJob(CompactionPick pick, const Version& base, TableCache* tables,
                VersionSet* versions, SequenceNumber smallest_snapshot,
                uint64_t run_seq, int helpers, InstallHook install);
  // Helper threads hold the job's address while it runs.
  CompactionJob(const CompactionJob&) = delete;
  CompactionJob& operator=(const CompactionJob&) = delete;

  /// Runs the pick. A drop or a move is one install. A merge installs
  /// each time the finished prefix of its subranges grows to an end an
  /// install may take, and no subrange starts 2 x threads or more ahead
  /// of the installed prefix; a merge that removes no output-level input
  /// installs once, at the end. The first failure wins, whether a build's
  /// or the hook's; installs already made stay.
  Status Run();

  /// The pick's inputs change run rather than being merged.
  bool move() const { return move_; }
  /// The merge outputs installed so far, in key order.
  const std::vector<FileMetaData>& installed() const { return installed_; }
  /// Bytes of every output built, installed or not.
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  /// One install: adds `outputs` (the next outputs in key order) to run
  /// run_seq_ and removes the output-level inputs whose largest user key
  /// lies below `end`, the installed prefix's end cut; the final install
  /// (`end` null) removes every input left. A move passes the inputs as
  /// `outputs`. Then drops the references to the inputs that left.
  Status Install(std::span<const FileMetaData> outputs, const Slice* end);
  Status MergeRuns();
  /// Loads the blocks of `outputs` into the block cache, up to the
  /// remaining Leaper budget, before the install publishes them.
  void PrefetchOutputs(std::span<const FileMetaData> outputs);

  CompactionPick pick_;  // inputs an install removed are null
  TableCache* const tables_;
  VersionSet* const versions_;
  const SequenceNumber smallest_snapshot_;
  const uint64_t run_seq_;
  const int helpers_;
  const InstallHook install_;
  bool move_ = false;
  bool bottommost_ = false;
  /// Bytes the Leaper re-warm may still load; 0 = no re-warm.
  size_t prefetch_budget_ = 0;
  std::vector<FileMetaData> installed_;
  uint64_t bytes_written_ = 0;
};

}  // namespace lsmlab

#endif  // LSMLAB_CORE_COMPACTION_COMPACTION_JOB_H_
