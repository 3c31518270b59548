#ifndef LSMLAB_VLOG_VALUE_LOG_H_
#define LSMLAB_VLOG_VALUE_LOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "storage/env.h"
#include "util/mutex.h"
#include "util/slice.h"
#include "util/status.h"

namespace lsmlab {

/// WiscKey-style value log (tutorial I-2; Lu et al. [53], HashKV [12],
/// DiffKV [49], Parallax [88]): large values live in append-only log
/// files, the LSM-tree stores small pointer records. Compactions then move
/// pointers instead of payloads, collapsing write amplification for large
/// values; the price is one extra (random) storage access per read of a
/// separated value and a separate garbage-collection pass.
///
/// Record layout in a log file:
///   fixed32 crc | varint32 size | value bytes
/// Pointer encoding (stored as the LSM value):
///   varint64 file_number | varint64 offset | varint32 size
///
/// Internally synchronized: writers append, the group-commit leader and
/// the flush worker sync, and readers resolve pointers, all at once. It
/// owns the durability of what it holds: it knows whether any appended
/// value is not yet fsynced.
class ValueLog {
 public:
  /// `dbname` is the database directory; log files are named
  /// <dbname>/<number>.vlog with numbering independent of table files.
  ValueLog(Env* env, std::string dbname, size_t max_file_bytes);
  ~ValueLog();

  ValueLog(const ValueLog&) = delete;
  ValueLog& operator=(const ValueLog&) = delete;

  /// Scans the directory, resumes numbering after the newest existing log.
  Status Open();

  /// Appends `value`, encoding its pointer into *pointer. Rotates to a new
  /// file when the current one exceeds the size limit. The value reaches
  /// the file (Flush) but is durable only after the next Sync.
  Status Add(const Slice& value, std::string* pointer);

  /// Resolves a pointer produced by Add (possibly in an earlier session).
  Status Get(const Slice& pointer, std::string* value) const;

  /// One separated value to resolve within a batch (DB::MultiGet).
  struct BatchRead {
    Slice pointer;             ///< in: encoded pointer (from the LSM value)
    std::string* value;        ///< out: decoded payload
    Status* status;            ///< out: per-slot; a bad pointer or record
                               ///< fails only its own slot
  };

  /// Resolves several pointers in one pass. Reads are issued sorted by
  /// (file, offset), so a batch whose values cluster in one log file walks
  /// it front-to-back instead of seeking per key in LSM order.
  void GetBatch(std::vector<BatchRead>* reads) const;

  /// Makes every value added so far durable: fsyncs the current log file
  /// if an Add since the last fsync or rotation left it unsynced (a
  /// rotation fsyncs the file it closes). Sets *synced to whether it
  /// issued an fsync.
  Status Sync(bool* synced);

  /// Numbers of all closed (non-current) log files — GC candidates.
  std::vector<uint64_t> ClosedFiles() const;

  /// Deletes the given log files (after GC rewrote their live values).
  Status DeleteFiles(const std::vector<uint64_t>& numbers);

  /// True when `pointer` refers to one of `files`.
  static bool PointsInto(const Slice& pointer,
                         const std::set<uint64_t>& files);

  /// Total bytes across all live log files. Served from an incrementally
  /// maintained counter: DBImpl::GetStats calls this under the DB mutex,
  /// so it must not stat files (tools/check_lock_io.py flags the old
  /// per-call GetFileSize scan as blocking I/O under mu_).
  uint64_t TotalBytes() const;
  size_t NumFiles() const;
  uint64_t current_file_number() const {
    MutexLock lock(&mu_);
    return current_number_;
  }

 private:
  /// A decoded (and syntactically validated) value-log pointer.
  struct Pointer {
    uint64_t number = 0;
    uint64_t offset = 0;
    uint32_t size = 0;
  };

  static Status DecodePointer(const Slice& pointer, Pointer* out);
  /// Returns (lazily opening and caching) the read handle for log `number`.
  Status GetReader(uint64_t number,
                   std::shared_ptr<RandomAccessFile>* reader) const;
  /// Reads and CRC-verifies the record at `ptr` through `reader`.
  Status ReadRecord(RandomAccessFile* reader, const Pointer& ptr,
                    std::string* value) const;

  Status RotateLocked() REQUIRES(mu_);
  static std::string FileName(const std::string& dbname, uint64_t number);

  Env* const env_;
  const std::string dbname_;
  const size_t max_file_bytes_;

  // Lock order: mu_ before readers_mu_ (DeleteFiles takes both).
  mutable Mutex mu_{LockRank::kValueLogMu};
  /// All live log files (including current).
  std::set<uint64_t> files_ GUARDED_BY(mu_);
  /// Bytes per live file + their sum, maintained on Add/Open/DeleteFiles
  /// so TotalBytes() never touches the filesystem.
  std::map<uint64_t, uint64_t> file_bytes_ GUARDED_BY(mu_);
  uint64_t total_bytes_ GUARDED_BY(mu_) = 0;
  uint64_t current_number_ GUARDED_BY(mu_) = 0;
  uint64_t current_offset_ GUARDED_BY(mu_) = 0;
  std::unique_ptr<WritableFile> current_file_ GUARDED_BY(mu_);
  /// The current file holds values no fsync has covered yet: Add sets
  /// it, Sync and RotateLocked clear it.
  bool unsynced_ GUARDED_BY(mu_) = false;

  // Open read handles, keyed by file number (lazily opened, kept).
  mutable Mutex readers_mu_ ACQUIRED_AFTER(mu_){LockRank::kValueLogReadersMu};
  mutable std::vector<std::pair<uint64_t, std::shared_ptr<RandomAccessFile>>>
      readers_ GUARDED_BY(readers_mu_);
};

}  // namespace lsmlab

#endif  // LSMLAB_VLOG_VALUE_LOG_H_
