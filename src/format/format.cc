#include "format/format.h"

#include <cstring>

#include "obs/perf_context.h"
#include "util/coding.h"
#include "util/crc32c.h"

namespace lsmlab {

void BlockHandle::EncodeTo(std::string* dst) const {
  PutVarint64(dst, offset_);
  PutVarint64(dst, size_);
}

Status BlockHandle::DecodeFrom(Slice* input) {
  if (GetVarint64(input, &offset_) && GetVarint64(input, &size_)) {
    return Status::OK();
  }
  return Status::Corruption("bad block handle");
}

void Footer::EncodeTo(std::string* dst) const {
  const size_t original_size = dst->size();
  metaindex_handle_.EncodeTo(dst);
  index_handle_.EncodeTo(dst);
  dst->resize(original_size + 2 * BlockHandle::kMaxEncodedLength);  // pad
  PutFixed32(dst, kFormatVersion);
  PutFixed64(dst, kTableMagicNumber);
}

Status Footer::DecodeFrom(Slice* input) {
  if (input->size() < kEncodedLength) {
    return Status::Corruption("footer too short");
  }
  const char* magic_ptr = input->data() + kEncodedLength - 8;
  // bounds: input->size() >= kEncodedLength was checked above.
  const uint64_t magic = DecodeFixed64(magic_ptr);
  if (magic != kTableMagicNumber) {
    return Status::Corruption("not an sstable (bad magic number)");
  }
  // bounds: magic_ptr - 4 is kEncodedLength - 12 bytes into the footer.
  const uint32_t version = DecodeFixed32(magic_ptr - 4);
  if (version != kFormatVersion) {
    return Status::NotSupported("unsupported table format version");
  }

  Status result = metaindex_handle_.DecodeFrom(input);
  if (result.ok()) {
    result = index_handle_.DecodeFrom(input);
  }
  return result;
}

BlockContents BlockContents::CopyOf(const Slice& bytes) {
  BlockContents contents;
  contents.owned = std::make_unique_for_overwrite<char[]>(bytes.size());
  std::memcpy(contents.owned.get(), bytes.data(), bytes.size());
  contents.data = Slice(contents.owned.get(), bytes.size());
  return contents;
}

Status ReadBlock(RandomAccessFile* file, uint64_t file_size,
                 const BlockHandle& handle, BlockContents* result) {
  result->data = Slice();
  result->owned.reset();

  // The handle was decoded from untrusted bytes; bound it by the file
  // before sizing any buffer. Subtractions are ordered so nothing wraps.
  if (handle.size() > file_size ||
      file_size - handle.size() < kBlockTrailerSize ||
      handle.offset() > file_size - handle.size() - kBlockTrailerSize) {
    return Status::Corruption("block handle out of file bounds");
  }

  const size_t n = static_cast<size_t>(handle.size());
  // Uninitialized: the read below fills it, and a short read is rejected
  // before any byte is used. The trailer stays allocated behind the data.
  std::unique_ptr<char[]> buf =
      std::make_unique_for_overwrite<char[]>(n + kBlockTrailerSize);
  // PerfContext charges block fetches here — the same call the Env-level
  // IoStats sees — so per-operation byte totals reconcile exactly with the
  // env's bytes_read on read-only workloads.
  PerfContext* perf = GetPerfContext();
  perf->block_read_count++;
  perf->block_read_bytes += n + kBlockTrailerSize;
  Slice contents;
  Status s = file->Read(handle.offset(), n + kBlockTrailerSize, &contents,
                        buf.get());
  if (!s.ok()) {
    return s;
  }
  if (contents.size() != n + kBlockTrailerSize) {
    return Status::Corruption("truncated block read");
  }

  const char* data = contents.data();
  // bounds: contents.size() == n + kBlockTrailerSize (5) was checked above.
  const uint32_t expected = crc32c::Unmask(DecodeFixed32(data + n + 1));
  const uint32_t actual = crc32c::Value(data, n + 1);
  if (actual != expected) {
    return Status::Corruption("block checksum mismatch");
  }
  if (data[n] != 0) {
    return Status::Corruption("unknown block compression type");
  }

  result->owned = std::move(buf);
  result->data = Slice(result->owned.get(), n);
  return Status::OK();
}

}  // namespace lsmlab
