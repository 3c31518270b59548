#ifndef LSMLAB_STORAGE_ENV_H_
#define LSMLAB_STORAGE_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/io_stats.h"
#include "util/slice.h"
#include "util/status.h"

namespace lsmlab {

/// Random-access handle over an immutable file (an SSTable).
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;

  /// Reads up to n bytes at `offset` into scratch, which must hold n
  /// bytes; *result points into scratch.
  virtual Status Read(uint64_t offset, size_t n, Slice* result,
                      char* scratch) const = 0;

  virtual uint64_t Size() const = 0;
};

/// Append-only handle used while building SSTables, WAL, and manifest.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const Slice& data) = 0;
  virtual Status Flush() = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// Sequential reader for WAL/manifest replay.
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;

  /// Reads up to n bytes from the current position into scratch, which
  /// must hold n bytes; *result points into scratch.
  virtual Status Read(size_t n, Slice* result, char* scratch) = 0;
  virtual Status Skip(uint64_t n) = 0;
};

/// Filesystem abstraction. The engine only talks to storage through Env,
/// which is what lets the benchmarks run on a deterministic in-memory
/// counting environment while the examples run on real files.
class Env {
 public:
  virtual ~Env() = default;

  virtual Status NewRandomAccessFile(const std::string& fname,
                                     std::unique_ptr<RandomAccessFile>* result) = 0;
  virtual Status NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) = 0;
  virtual Status NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* result) = 0;

  virtual bool FileExists(const std::string& fname) = 0;
  virtual Status GetChildren(const std::string& dir,
                             std::vector<std::string>* result) = 0;
  virtual Status RemoveFile(const std::string& fname) = 0;
  virtual Status CreateDir(const std::string& dirname) = 0;
  virtual Status GetFileSize(const std::string& fname, uint64_t* size) = 0;
  virtual Status RenameFile(const std::string& src,
                            const std::string& target) = 0;

  /// Makes every byte of the existing file `fname` durable, as Sync() on
  /// its writable handle would, without opening it for writing (which
  /// truncates). An Env that cannot do this keeps the default and says
  /// NotSupported.
  virtual Status SyncFile(const std::string& fname) {
    return Status::NotSupported(fname, "SyncFile");
  }

  /// Logical-I/O counters for this environment.
  IoStats* io_stats() { return &io_stats_; }

 protected:
  IoStats io_stats_;
};

/// In-memory environment: files are byte strings, I/O is counted, nothing
/// touches the real filesystem. Deterministic substrate for tests/benches.
Env* NewMemEnv();

/// Environment backed by the local POSIX filesystem.
Env* NewPosixEnv();

// Convenience helpers shared by recovery code and tests.
Status WriteStringToFile(Env* env, const Slice& data, const std::string& fname);
Status ReadFileToString(Env* env, const std::string& fname, std::string* data);

}  // namespace lsmlab

#endif  // LSMLAB_STORAGE_ENV_H_
