#ifndef LSMLAB_CORE_VERSION_H_
#define LSMLAB_CORE_VERSION_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/dbformat.h"
#include "core/options.h"
#include "storage/env.h"
#include "util/slice.h"
#include "util/status.h"

namespace lsmlab {

class Env;
class TableCache;

namespace wal {
class Writer;
}

/// Metadata of one immutable SSTable. Shared (via shared_ptr) by every
/// Version that contains the file; when the last reference drops and the
/// file was superseded by a compaction, the on-disk file is deleted and the
/// open table is evicted from the table cache.
struct FileMetaData {
  uint64_t number = 0;
  uint64_t file_size = 0;
  std::string smallest;  // smallest internal key
  std::string largest;   // largest internal key
  /// Identity of the sorted run this file belongs to; globally monotonic,
  /// larger = newer. All files of one flush/compaction output share it.
  uint64_t run_seq = 0;
  int level = 0;

  /// Point probes that reached this file but found nothing (a filterless
  /// or false-positive probe): the signal for read-triggered compaction
  /// (the "compaction trigger" primitive of [76]; LevelDB's allowed_seeks).
  mutable std::atomic<uint64_t> wasted_probes{0};

  /// True once the file left the latest version; the destructor then
  /// removes it from storage.
  bool obsolete = false;
  std::function<void(FileMetaData*)> cleanup;
  /// Set when an edit moved the file to another run: the entry it had
  /// before the move. That entry alone owns the file's deletion, so the
  /// file stays while either entry is referenced.
  std::shared_ptr<FileMetaData> moved_from;

  FileMetaData() = default;
  /// Copies describe the file (for manifest edits); runtime state — probe
  /// counters, obsolescence, cleanup hooks — intentionally stays behind.
  FileMetaData(const FileMetaData& o)
      : number(o.number),
        file_size(o.file_size),
        smallest(o.smallest),
        largest(o.largest),
        run_seq(o.run_seq),
        level(o.level) {}
  FileMetaData& operator=(const FileMetaData& o) {
    number = o.number;
    file_size = o.file_size;
    smallest = o.smallest;
    largest = o.largest;
    run_seq = o.run_seq;
    level = o.level;
    return *this;
  }

  ~FileMetaData() {
    if (obsolete && cleanup) {
      cleanup(this);
    }
  }
};

using FileMetaPtr = std::shared_ptr<FileMetaData>;

/// One sorted run: files ordered by smallest key, pairwise non-overlapping.
struct Run {
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

/// The single file of `run` whose [smallest, largest] user-key range covers
/// `user_key`, or nullptr when no file does. Run files are ordered by
/// smallest key and pairwise non-overlapping, so a binary search over the
/// fence pointers suffices. Shared by the Get and MultiGet read paths.
const FileMetaPtr* FindFileInRun(const Run& run, const Comparator* ucmp,
                                 const Slice& user_key);

/// One level: runs ordered newest-first (queries probe in this order).
/// Leveling keeps at most one run here; tiering up to T.
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

  void AddFile(int level, const FileMetaData& meta) {
    new_files_.emplace_back(level, meta);
  }
  /// A file one edit removes and adds back moves (to another run or
  /// level); its bytes are not deleted.
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
  std::vector<std::pair<int, FileMetaData>> new_files_;
  std::vector<std::pair<int, uint64_t>> deleted_files_;
};

/// Owns the chain of versions, the manifest, and the file/sequence/run
/// counters. One per DB.
class VersionSet {
 public:
  VersionSet(std::string dbname, const Options* options,
             TableCache* table_cache, const InternalKeyComparator* icmp);
  ~VersionSet();

  VersionSet(const VersionSet&) = delete;
  VersionSet& operator=(const VersionSet&) = delete;

  /// Loads CURRENT -> MANIFEST and replays edits into the initial version.
  /// Creates a fresh DB when none exists and options.create_if_missing.
  Status Recover();

  /// Applies `edit` to the current version, persists it to the manifest,
  /// and installs the result as current.
  Status LogAndApply(VersionEdit* edit);

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
  Status WriteSnapshot(wal::Writer* manifest_writer);
  FileMetaPtr WrapFile(const FileMetaData& meta);
  std::shared_ptr<Version> ApplyEdit(const Version& base,
                                     const VersionEdit& edit);

  const std::string dbname_;
  const Options* const options_;
  Env* const env_;
  TableCache* const table_cache_;
  const InternalKeyComparator* const icmp_;

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
