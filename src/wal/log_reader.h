#ifndef LSMLAB_WAL_LOG_READER_H_
#define LSMLAB_WAL_LOG_READER_H_

#include <memory>
#include <string>

#include "storage/env.h"
#include "util/slice.h"
#include "wal/log_writer.h"

namespace lsmlab {
namespace wal {

/// Replays records written by wal::Writer. Corrupt or torn tail records are
/// skipped, so a crash mid-write loses at most the unsynced suffix — never
/// previously acknowledged records. A torn tail is not a corruption;
/// status() keeps the first corruption skipped.
class Reader {
 public:
  /// Does not take ownership of `file`.
  explicit Reader(SequentialFile* file);

  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// Reads the next complete record into *record (may point into *scratch).
  /// Returns false at end of input.
  bool ReadRecord(Slice* record, std::string* scratch);

  /// The first corruption skipped so far, or OK.
  const Status& status() const { return status_; }

 private:
  // Extended record types for internal signalling.
  enum { kEof = kMaxRecordType + 1, kBadRecord = kMaxRecordType + 2 };

  unsigned int ReadPhysicalRecord(Slice* result);
  void ReportCorruption(const char* reason);

  SequentialFile* const file_;
  std::unique_ptr<char[]> backing_store_;
  Slice buffer_;
  bool eof_ = false;
  Status status_;
};

}  // namespace wal
}  // namespace lsmlab

#endif  // LSMLAB_WAL_LOG_READER_H_
