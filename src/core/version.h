#ifndef LSMLAB_CORE_VERSION_H_
#define LSMLAB_CORE_VERSION_H_

#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/dbformat.h"
#include "core/options.h"
#include "storage/env.h"
#include "util/slice.h"
#include "util/status.h"

namespace lsmlab {

class CompactionPolicy;
class Env;
class TableCache;

namespace wal {
class Writer;
}

/// One immutable SSTable: what the file is, not where it sits. A file's
/// position (its level and sorted run) belongs to the Version that holds
/// it, so a move places the same object in another run. Shared (via
/// shared_ptr) by every Version that contains the file; once a durable
/// edit leaves it in no run and the last reference drops, the on-disk
/// file is deleted and the open table is evicted from the table cache.
struct FileMetaData {
  uint64_t number = 0;
  uint64_t file_size = 0;
  std::string smallest;  // smallest internal key
  std::string largest;   // largest internal key

  /// Point probes that reached this file but found nothing (a filterless
  /// or false-positive probe): the signal for read-triggered compaction
  /// (the "compaction trigger" primitive of [76]; LevelDB's allowed_seeks).
  mutable std::atomic<uint64_t> wasted_probes{0};

  /// True once a durable edit left the file in no run; the destructor
  /// then removes it from storage.
  bool obsolete = false;
  std::function<void(FileMetaData*)> cleanup;

  FileMetaData() = default;
  /// Copies describe the file (for manifest edits); runtime state — probe
  /// counters, obsolescence, cleanup hooks — intentionally stays behind.
  FileMetaData(const FileMetaData& o)
      : number(o.number),
        file_size(o.file_size),
        smallest(o.smallest),
        largest(o.largest) {}
  FileMetaData& operator=(const FileMetaData& o) {
    number = o.number;
    file_size = o.file_size;
    smallest = o.smallest;
    largest = o.largest;
    return *this;
  }

  ~FileMetaData() {
    if (obsolete && cleanup) {
      cleanup(this);
    }
  }
};

using FileMetaPtr = std::shared_ptr<FileMetaData>;

/// One sorted run: files ordered by smallest key, pairwise disjoint in
/// user keys.
struct Run {
  /// Identity of the run; globally monotonic, larger = newer. All files
  /// of one flush or compaction output share it.
  uint64_t run_seq = 0;
  std::vector<FileMetaPtr> files;

  uint64_t TotalBytes() const {
    uint64_t total = 0;
    for (const auto& f : files) {
      total += f->file_size;
    }
    return total;
  }
};

/// The fence search, the one search of a run by key: the files of
/// `files` (one run: ordered by smallest key, disjoint in user keys) whose
/// key ranges meet the keys from `*lo` to `*hi`, `*hi` excluded when
/// `hi_open`. A null bound is open. `cmp` compares user keys, or whole
/// internal keys when `internal_keys`. One binary search per bound given.
std::span<const FileMetaPtr> FenceSearch(std::span<const FileMetaPtr> files,
                                         const Comparator& cmp,
                                         const Slice* lo, const Slice* hi,
                                         bool hi_open = false,
                                         bool internal_keys = false);

/// The single file of `run` whose [smallest, largest] user-key range covers
/// `user_key`, or nullptr when no file does: one fence search with a lower
/// bound only. Shared by the Get and MultiGet read paths.
const FileMetaPtr* FindFileInRun(const Run& run, const Comparator* ucmp,
                                 const Slice& user_key);

/// The first of `files` (ordered by smallest key) whose user keys overlap
/// its predecessor's, or files.size() when they are pairwise disjoint and
/// so can form one run: the fence search needs each user key in one file.
size_t FirstOverlap(std::span<const FileMetaPtr> files,
                    const Comparator& ucmp);

/// One level: runs ordered newest-first (queries probe in this order).
/// Leveling keeps at most one run here; tiering up to T. A level's index
/// in its Version is the level of every file it holds.
struct LevelState {
  std::vector<Run> runs;

  uint64_t TotalBytes() const {
    uint64_t total = 0;
    for (const auto& r : runs) {
      total += r.TotalBytes();
    }
    return total;
  }
};

/// An immutable snapshot of the tree shape. Readers pin a Version
/// (shared_ptr) for the duration of a Get/iterator, which transitively pins
/// every file it references.
class Version {
 public:
  explicit Version(int max_levels) : levels_(max_levels) {}

  const std::vector<LevelState>& levels() const { return levels_; }
  std::vector<LevelState>* mutable_levels() { return &levels_; }

  int num_levels() const { return static_cast<int>(levels_.size()); }
  /// Total sorted runs a worst-case point lookup probes.
  int TotalRuns() const;
  int NumFiles() const;
  /// Deepest level index holding any data, or -1 when empty.
  int MaxPopulatedLevel() const;

  std::string DebugString() const;

  /// The tree's structural invariants: each run's files are ordered and
  /// disjoint in user keys, and no file number appears twice. Corruption
  /// names the first violation.
  Status CheckConsistency(const Comparator* ucmp) const;
  /// The run bound of one install, for this version built from `base`:
  /// no level grows past the runs `policy` allows, between two installs
  /// of a merge as after its last. A level that already held more in
  /// `base` may keep them: a tree written under another policy opens,
  /// and its next picks collapse it.
  Status CheckRunBound(const Version& base,
                       const CompactionPolicy& policy) const;

 private:
  std::vector<LevelState> levels_;
};

using VersionPtr = std::shared_ptr<const Version>;

/// A delta between two versions; serialized as one manifest record.
class VersionEdit {
 public:
  void SetLogNumber(uint64_t n) {
    has_log_number_ = true;
    log_number_ = n;
  }
  void SetNextFileNumber(uint64_t n) {
    has_next_file_number_ = true;
    next_file_number_ = n;
  }
  void SetLastSequence(SequenceNumber s) {
    has_last_sequence_ = true;
    last_sequence_ = s;
  }
  void SetNextRunSeq(uint64_t n) {
    has_next_run_seq_ = true;
    next_run_seq_ = n;
  }
  void SetComparatorName(const std::string& name) {
    has_comparator_ = true;
    comparator_ = name;
  }

  /// Places the file in run `run_seq` of `level`. A file the same edit
  /// removes moves there: the version keeps its FileMetaData, and its
  /// bytes stay.
  void AddFile(int level, uint64_t run_seq, const FileMetaData& meta) {
    new_files_.push_back(NewFile{level, run_seq, meta});
  }
  void RemoveFile(int level, uint64_t file_number) {
    deleted_files_.emplace_back(level, file_number);
  }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(const Slice& src);

 private:
  friend class VersionSet;

  bool has_log_number_ = false;
  uint64_t log_number_ = 0;
  bool has_next_file_number_ = false;
  uint64_t next_file_number_ = 0;
  bool has_last_sequence_ = false;
  SequenceNumber last_sequence_ = 0;
  bool has_next_run_seq_ = false;
  uint64_t next_run_seq_ = 0;
  bool has_comparator_ = false;
  std::string comparator_;
  struct NewFile {
    int level = 0;
    uint64_t run_seq = 0;
    FileMetaData meta;
  };
  std::vector<NewFile> new_files_;
  std::vector<std::pair<int, uint64_t>> deleted_files_;
};

/// Owns the chain of versions, the manifest, and the file/sequence/run
/// counters. One per DB.
class VersionSet {
 public:
  /// `policy` bounds the runs per level that a debug-build install
  /// accepts (Version::CheckRunBound); it must outlive the VersionSet.
  VersionSet(std::string dbname, const Options* options,
             TableCache* table_cache, const InternalKeyComparator* icmp,
             const CompactionPolicy* policy);
  ~VersionSet();

  VersionSet(const VersionSet&) = delete;
  VersionSet& operator=(const VersionSet&) = delete;

  /// Loads CURRENT -> MANIFEST and replays edits into the initial version.
  /// Creates a fresh DB when none exists and options.create_if_missing.
  Status Recover();

  /// Applies `edit` to the current version, persists it to the manifest,
  /// and installs the result as current. Files the edit leaves in no run
  /// become obsolete: deleted once the last version holding them drops.
  /// Debug builds first check the new version (CheckConsistency and
  /// CheckRunBound) and install nothing when it fails.
  Status LogAndApply(VersionEdit* edit);

  /// The current version's CheckConsistency.
  Status CheckConsistency() const;

  VersionPtr current() const { return current_; }

  /// Thread-safe: background table builds allocate output numbers while
  /// the DB mutex is released. Reserves `count` consecutive numbers and
  /// returns the first.
  uint64_t NewFileNumber(uint64_t count = 1) {
    return next_file_number_.fetch_add(count, std::memory_order_relaxed);
  }
  /// Ensures future allocations skip `number` — called during recovery for
  /// every file found on storage, so a crash that rolled back the manifest
  /// can never cause a live file's number to be reused (and truncated).
  void MarkFileNumberUsed(uint64_t number) {
    uint64_t cur = next_file_number_.load(std::memory_order_relaxed);
    while (cur <= number &&
           !next_file_number_.compare_exchange_weak(
               cur, number + 1, std::memory_order_relaxed)) {
    }
  }
  uint64_t NewRunSeq() { return next_run_seq_++; }
  SequenceNumber last_sequence() const { return last_sequence_; }
  void SetLastSequence(SequenceNumber s) { last_sequence_ = s; }
  uint64_t log_number() const { return log_number_; }

  /// Deletes files in the db dir that no version references (crash
  /// leftovers); called once after recovery.
  void RemoveOrphanedFiles();

  /// Registers an observer invoked with the file number of every obsolete
  /// table file as its on-disk bytes are removed. Cleanup runs when the
  /// last Version referencing the file drops — often inside LogAndApply
  /// with the DB mutex held — so the observer must only record the event
  /// (no locking back into the DB, no listener callbacks).
  void SetFileDeletionObserver(std::function<void(uint64_t)> observer) {
    deletion_observer_ = std::move(observer);
  }

 private:
  /// Starts a new manifest holding a snapshot of the current version, and
  /// points CURRENT at it once the snapshot is durable.
  Status NewManifest();
  FileMetaPtr WrapFile(const FileMetaData& meta);
  /// `base` with `edit` applied. A file the edit removes and adds back
  /// keeps its FileMetaData; the removed files it does not add back go to
  /// *dropped (may be null).
  std::shared_ptr<Version> ApplyEdit(const Version& base,
                                     const VersionEdit& edit,
                                     std::vector<FileMetaPtr>* dropped);

  const std::string dbname_;
  const Options* const options_;
  Env* const env_;
  TableCache* const table_cache_;
  const InternalKeyComparator* const icmp_;
  const CompactionPolicy* const policy_;

  VersionPtr current_;
  std::atomic<uint64_t> next_file_number_{2};
  uint64_t next_run_seq_ = 1;
  SequenceNumber last_sequence_ = 0;
  uint64_t log_number_ = 0;
  uint64_t manifest_number_ = 1;

  std::unique_ptr<WritableFile> manifest_file_;
  std::unique_ptr<wal::Writer> manifest_writer_;
  std::function<void(uint64_t)> deletion_observer_;
};

}  // namespace lsmlab

#endif  // LSMLAB_CORE_VERSION_H_
