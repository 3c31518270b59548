#ifndef LSMLAB_FORMAT_FORMAT_H_
#define LSMLAB_FORMAT_FORMAT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "storage/env.h"
#include "util/slice.h"
#include "util/status.h"

namespace lsmlab {

/// Location (offset, size) of a block within an SSTable file.
class BlockHandle {
 public:
  BlockHandle() : offset_(~uint64_t{0}), size_(~uint64_t{0}) {}
  BlockHandle(uint64_t offset, uint64_t size) : offset_(offset), size_(size) {}

  uint64_t offset() const { return offset_; }
  uint64_t size() const { return size_; }
  void set_offset(uint64_t offset) { offset_ = offset; }
  void set_size(uint64_t size) { size_ = size; }
  bool IsNull() const { return offset_ == ~uint64_t{0}; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

  // Maximum encoding length of a BlockHandle (two varint64).
  static constexpr size_t kMaxEncodedLength = 20;

 private:
  uint64_t offset_;
  uint64_t size_;
};

/// Fixed-size footer at the tail of every SSTable.
///
/// Layout: metaindex handle, index handle, padding to kEncodedLength-12,
/// format version (fixed32), magic (fixed64).
class Footer {
 public:
  // Two handles (padded) + version + magic.
  static constexpr size_t kEncodedLength =
      2 * BlockHandle::kMaxEncodedLength + 4 + 8;
  static constexpr uint64_t kTableMagicNumber = 0x6c736d6c61623031ull;
  static constexpr uint32_t kFormatVersion = 1;

  const BlockHandle& metaindex_handle() const { return metaindex_handle_; }
  const BlockHandle& index_handle() const { return index_handle_; }
  void set_metaindex_handle(const BlockHandle& h) { metaindex_handle_ = h; }
  void set_index_handle(const BlockHandle& h) { index_handle_ = h; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  BlockHandle metaindex_handle_;
  BlockHandle index_handle_;
};

/// Every block is followed by a 5-byte trailer: 1-byte type
/// (0 = uncompressed; reserved for future codecs) + 4-byte masked CRC32C of
/// the block contents + type byte.
constexpr size_t kBlockTrailerSize = 5;

/// Contents of a block. `data` views `owned` when the block owns its
/// bytes, else memory that must outlive every Block built from it.
struct BlockContents {
  Slice data;
  /// ReadBlock allocates this without zero-filling it: the Env read
  /// overwrites every byte `data` covers.
  std::unique_ptr<char[]> owned;

  /// Contents owning a copy of `bytes`.
  static BlockContents CopyOf(const Slice& bytes);
};

/// Reads the block identified by `handle`, verifying its trailer CRC.
/// `file_size` bounds the untrusted handle before any allocation: a corrupt
/// offset/size pair is reported as Corruption instead of driving a
/// multi-gigabyte buffer resize or an out-of-range read.
Status ReadBlock(RandomAccessFile* file, uint64_t file_size,
                 const BlockHandle& handle, BlockContents* result);

}  // namespace lsmlab

#endif  // LSMLAB_FORMAT_FORMAT_H_
