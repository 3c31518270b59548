#include "wal/log_reader.h"

#include "util/coding.h"
#include "util/crc32c.h"

namespace lsmlab {
namespace wal {

Reader::Reader(SequentialFile* file)
    : file_(file), backing_store_(new char[kBlockSize]) {}

void Reader::ReportCorruption(const char* reason) {
  if (status_.ok()) {
    status_ = Status::Corruption(reason);
  }
}

bool Reader::ReadRecord(Slice* record, std::string* scratch) {
  scratch->clear();
  record->clear();
  bool in_fragmented_record = false;

  Slice fragment;
  while (true) {
    const unsigned int record_type = ReadPhysicalRecord(&fragment);
    switch (record_type) {
      case kFullType:
        if (in_fragmented_record) {
          ReportCorruption("partial record without end");
          scratch->clear();
        }
        *record = fragment;
        return true;

      case kFirstType:
        if (in_fragmented_record) {
          ReportCorruption("partial record without end");
        }
        scratch->assign(fragment.data(), fragment.size());
        in_fragmented_record = true;
        break;

      case kMiddleType:
        if (!in_fragmented_record) {
          ReportCorruption("missing start of fragmented record");
        } else {
          scratch->append(fragment.data(), fragment.size());
        }
        break;

      case kLastType:
        if (!in_fragmented_record) {
          ReportCorruption("missing start of fragmented record");
        } else {
          scratch->append(fragment.data(), fragment.size());
          *record = Slice(*scratch);
          return true;
        }
        break;

      case kEof:
        if (in_fragmented_record) {
          // Torn tail write: drop the partial record silently.
          scratch->clear();
        }
        return false;

      case kBadRecord:
        if (in_fragmented_record) {
          ReportCorruption("error in middle of record");
          in_fragmented_record = false;
          scratch->clear();
        }
        break;

      default:
        ReportCorruption("unknown record type");
        in_fragmented_record = false;
        scratch->clear();
        break;
    }
  }
}

unsigned int Reader::ReadPhysicalRecord(Slice* result) {
  while (true) {
    if (buffer_.size() < kHeaderSize) {
      if (!eof_) {
        // Skip block trailer padding and read the next block.
        buffer_.clear();
        Status status =
            file_->Read(kBlockSize, &buffer_, backing_store_.get());
        if (!status.ok()) {
          buffer_.clear();
          ReportCorruption("read error");
          eof_ = true;
          return kEof;
        }
        if (buffer_.size() < kBlockSize) {
          eof_ = true;
        }
        continue;
      }
      // Truncated header at EOF: implicit torn write; ignore.
      buffer_.clear();
      return kEof;
    }

    const char* header = buffer_.data();
    const uint32_t a = static_cast<uint8_t>(header[4]);
    const uint32_t b = static_cast<uint8_t>(header[5]);
    const unsigned int type = static_cast<uint8_t>(header[6]);
    const uint32_t length = a | (b << 8);
    if (kHeaderSize + length > buffer_.size()) {
      buffer_.clear();
      if (!eof_) {
        ReportCorruption("bad record length");
        return kBadRecord;
      }
      return kEof;  // torn tail
    }

    if (type == kZeroType && length == 0) {
      // Padding emitted by the writer (or preallocated space); skip.
      buffer_.clear();
      return kBadRecord;
    }

    // bounds: buffer_.size() >= kHeaderSize (7) was checked above.
    const uint32_t expected_crc = crc32c::Unmask(DecodeFixed32(header));
    uint32_t actual_crc = crc32c::Value(header + 6, 1 + length);
    if (actual_crc != expected_crc) {
      buffer_.clear();
      ReportCorruption("checksum mismatch");
      return kBadRecord;
    }

    buffer_.remove_prefix(kHeaderSize + length);
    *result = Slice(header + kHeaderSize, length);
    return type;
  }
}

}  // namespace wal
}  // namespace lsmlab
