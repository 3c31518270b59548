#include "format/block.h"

#include <algorithm>

#include "format/block_builder.h"
#include "util/coding.h"

namespace lsmlab {

Block::Block(BlockContents&& contents)
    : owned_(std::move(contents.owned)),
      data_(contents.data),
      entries_size_(0),
      num_restarts_(0),
      restarts_offset_(0),
      buckets_offset_(0),
      num_buckets_(0),
      malformed_(false) {
  // Parse from the tail: trailer word, optional hash index, restart array.
  // Every count here comes straight off disk and is validated against the
  // block size before use; a block that fails any check is latched malformed
  // (empty iterator, no hash index) instead of trusted.
  if (data_.size() < sizeof(uint32_t)) {
    MarkMalformed();
    return;
  }
  size_t pos = data_.size() - sizeof(uint32_t);
  // bounds: pos = size - 4, checked >= 0 above.
  const uint32_t trailer = DecodeFixed32(data_.data() + pos);
  num_restarts_ = trailer & ~BlockBuilder::kHashIndexFlag;
  const bool has_hash = (trailer & BlockBuilder::kHashIndexFlag) != 0;

  if (has_hash) {
    if (pos < sizeof(uint32_t)) {
      MarkMalformed();
      return;
    }
    pos -= sizeof(uint32_t);
    // bounds: pos >= 0 after the check above.
    num_buckets_ = DecodeFixed32(data_.data() + pos);
    if (num_buckets_ > pos) {
      MarkMalformed();
      return;
    }
    pos -= num_buckets_;
    buckets_offset_ = pos;
  }

  const size_t restart_bytes =
      static_cast<size_t>(num_restarts_) * sizeof(uint32_t);
  if (restart_bytes > pos) {
    MarkMalformed();
    return;
  }
  restarts_offset_ = pos - restart_bytes;
  entries_size_ = restarts_offset_;

  // The restart offsets themselves are untrusted; reject any that point
  // outside the entry region so iterator positioning can rely on them.
  for (uint32_t i = 0; i < num_restarts_; i++) {
    if (RestartPoint(i) > entries_size_) {
      MarkMalformed();
      return;
    }
  }
}

void Block::MarkMalformed() {
  malformed_ = true;
  entries_size_ = 0;
  num_restarts_ = 0;
  restarts_offset_ = 0;
  buckets_offset_ = 0;
  num_buckets_ = 0;
}

uint32_t Block::RestartPoint(uint32_t index) const {
  if (index >= num_restarts_) {
    // Corrupt callers latch through the iterator path; clamp to "end of
    // entries" so even a buggy index never reads past the restart array.
    return static_cast<uint32_t>(entries_size_);
  }
  // bounds: restarts_offset_ + num_restarts_ * 4 <= data_.size() was
  // established at construction, and index < num_restarts_ here.
  return DecodeFixed32(data_.data() + restarts_offset_ +
                       index * sizeof(uint32_t));
}

Block::HashResult Block::HashLookup(uint32_t hash,
                                    uint32_t* restart_index) const {
  if (num_buckets_ == 0 || malformed_) {
    return HashResult::kNoIndex;
  }
  // bounds: buckets_offset_ + num_buckets_ <= data_.size() was validated at
  // construction, and hash % num_buckets_ < num_buckets_.
  const uint8_t bucket = static_cast<uint8_t>(
      data_.data()[buckets_offset_ + hash % num_buckets_]);
  if (bucket == BlockBuilder::kHashBucketEmpty) {
    return HashResult::kAbsent;
  }
  if (bucket == BlockBuilder::kHashBucketCollision) {
    return HashResult::kCollision;
  }
  if (bucket >= num_restarts_) {
    return HashResult::kCollision;  // defensive: treat as unusable
  }
  *restart_index = bucket;
  return HashResult::kFound;
}

namespace {

/// Decodes the entry header at p: shared/non_shared/value lengths.
/// Returns nullptr on malformed input, else pointer to the key delta bytes.
const char* DecodeEntry(const char* p, const char* limit, uint32_t* shared,
                        uint32_t* non_shared, uint32_t* value_length) {
  // bounds: the three varint reads below are limit-checked by GetVarint32Ptr.
  if ((p = GetVarint32Ptr(p, limit, shared)) == nullptr) return nullptr;
  if ((p = GetVarint32Ptr(p, limit, non_shared)) == nullptr) return nullptr;
  if ((p = GetVarint32Ptr(p, limit, value_length)) == nullptr) return nullptr;
  // Sum in 64 bits: non_shared + value_length can wrap uint32 (e.g.
  // 0xffffffff + 1 == 0), which would pass a 32-bit comparison and let the
  // caller append ~4GB of out-of-bounds bytes to its key buffer.
  if (static_cast<uint64_t>(limit - p) <
      static_cast<uint64_t>(*non_shared) + *value_length) {
    return nullptr;
  }
  return p;
}

}  // namespace

class Block::Iter : public Block::BlockIterator {
 public:
  Iter(const Block* block, const Comparator* comparator)
      : block_(block),
        comparator_(comparator),
        current_(block->entries_size_),
        restart_index_(block->num_restarts_) {}

  bool Valid() const override { return current_ < block_->entries_size_; }

  Status status() const override { return status_; }

  Slice key() const override { return Slice(key_); }

  Slice value() const override { return value_; }

  void Next() override {
    if (!Valid()) {
      return;
    }
    ParseNextKey();
  }

  void Prev() override {
    if (!Valid()) {
      return;
    }
    // Scan backwards to a restart point before current_, then walk forward.
    const size_t original = current_;
    while (block_->RestartPoint(restart_index_) >= original) {
      if (restart_index_ == 0) {
        current_ = block_->entries_size_;  // no entry before the first
        restart_index_ = block_->num_restarts_;
        return;
      }
      restart_index_--;
    }
    SeekToRestartPoint(restart_index_);
    do {
    } while (ParseNextKey() && NextEntryOffset() < original);
  }

  void Seek(const Slice& target) override {
    if (block_->num_restarts_ == 0 || block_->malformed_) {
      current_ = block_->entries_size_;
      return;
    }
    // Binary-search restart points for the last restart whose key < target,
    // then linearly scan forward.
    uint32_t left = 0;
    uint32_t right = block_->num_restarts_ == 0 ? 0 : block_->num_restarts_ - 1;
    while (left < right) {
      const uint32_t mid = (left + right + 1) / 2;
      SeekToRestartPoint(mid);
      if (!ParseNextKey()) {
        return;  // corruption
      }
      if (comparator_->Compare(Slice(key_), target) < 0) {
        left = mid;
      } else {
        right = mid - 1;
      }
    }
    SeekToRestartPoint(left);
    while (ParseNextKey()) {
      if (comparator_->Compare(Slice(key_), target) >= 0) {
        return;
      }
    }
  }

  void SeekToFirst() override {
    if (block_->num_restarts_ == 0 || block_->malformed_) {
      current_ = block_->entries_size_;
      return;
    }
    SeekToRestartPoint(0);
    ParseNextKey();
  }

  void SeekToLast() override {
    if (block_->num_restarts_ == 0 || block_->malformed_) {
      current_ = block_->entries_size_;
      return;
    }
    SeekToRestartPoint(block_->num_restarts_ - 1);
    while (ParseNextKey() && NextEntryOffset() < block_->entries_size_) {
    }
  }

  void SeekToRestart(uint32_t index) override {
    if (index >= block_->num_restarts_) {
      current_ = block_->entries_size_;
      return;
    }
    SeekToRestartPoint(index);
    ParseNextKey();
  }

 private:
  size_t NextEntryOffset() const {
    return (value_.data() + value_.size()) - block_->data_.data();
  }

  void SeekToRestartPoint(uint32_t index) {
    key_.clear();
    restart_index_ = index;
    const uint32_t offset = block_->RestartPoint(index);
    // ParseNextKey starts from the end of value_; fake a zero-length value
    // ending at the restart offset.
    value_ = Slice(block_->data_.data() + offset, 0);
  }

  bool ParseNextKey() {
    current_ = NextEntryOffset();
    const char* p = block_->data_.data() + current_;
    const char* limit = block_->data_end();
    if (p >= limit) {
      current_ = block_->entries_size_;
      restart_index_ = block_->num_restarts_;
      return false;
    }

    uint32_t shared, non_shared, value_length;
    p = DecodeEntry(p, limit, &shared, &non_shared, &value_length);
    if (p == nullptr || key_.size() < shared) {
      CorruptionError();
      return false;
    }
    key_.resize(shared);
    key_.append(p, non_shared);
    value_ = Slice(p + non_shared, value_length);
    while (restart_index_ + 1 < block_->num_restarts_ &&
           block_->RestartPoint(restart_index_ + 1) < current_) {
      restart_index_++;
    }
    return true;
  }

  void CorruptionError() {
    current_ = block_->entries_size_;
    restart_index_ = block_->num_restarts_;
    status_ = Status::Corruption("bad entry in block");
    key_.clear();
    value_ = Slice();
  }

  const Block* block_;
  const Comparator* comparator_;
  size_t current_;          // offset of current entry; >= entries_size_ if !Valid
  uint32_t restart_index_;  // restart group containing current_
  std::string key_;
  Slice value_;
  Status status_;
};

Block::BlockIterator* Block::NewIterator(const Comparator* comparator) const {
  // A malformed or empty block yields an iterator whose seeks all land in
  // the !Valid() state.
  return new Iter(this, comparator);
}

}  // namespace lsmlab
