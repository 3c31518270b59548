#include "core/write_batch.h"

#include "memtable/memtable.h"
#include "util/coding.h"

namespace lsmlab {

namespace {
// fixed64 sequence + fixed32 count.
constexpr size_t kHeader = 12;
}  // namespace

void WriteBatch::Clear() {
  rep_.clear();
  rep_.resize(kHeader, '\0');
}

uint32_t WriteBatch::Count() const {
  // bounds: rep_.size() >= kHeader (12) is a class invariant; Clear() and
  // SetContentsFrom() both re-establish it.
  return DecodeFixed32(rep_.data() + 8);
}

void WriteBatch::SetCount(uint32_t n) {
  EncodeFixed32(rep_.data() + 8, n);
}

SequenceNumber WriteBatch::sequence() const {
  // bounds: rep_.size() >= kHeader (12) is a class invariant.
  return DecodeFixed64(rep_.data());
}

void WriteBatch::set_sequence(SequenceNumber seq) {
  EncodeFixed64(rep_.data(), seq);
}

void WriteBatch::Put(const Slice& key, const Slice& value) {
  SetCount(Count() + 1);
  rep_.push_back(static_cast<char>(ValueType::kTypeValue));
  PutLengthPrefixedSlice(&rep_, key);
  PutLengthPrefixedSlice(&rep_, value);
}

void WriteBatch::Delete(const Slice& key) {
  SetCount(Count() + 1);
  rep_.push_back(static_cast<char>(ValueType::kTypeDeletion));
  PutLengthPrefixedSlice(&rep_, key);
}

void WriteBatch::Append(const WriteBatch& src) {
  SetCount(Count() + src.Count());
  // bounds: rep_.size() >= kHeader (12) is a class invariant of src too.
  rep_.append(src.rep_.data() + kHeader, src.rep_.size() - kHeader);
}

void WriteBatch::SetContentsFrom(const Slice& contents) {
  rep_.assign(contents.data(), contents.size());
  if (rep_.size() < kHeader) {
    Clear();
  }
}

Status WriteBatch::Iterate(Handler* handler) const {
  Slice input(rep_);
  if (input.size() < kHeader) {
    return Status::Corruption("malformed WriteBatch (too small)");
  }
  input.remove_prefix(kHeader);
  uint32_t found = 0;
  while (!input.empty()) {
    found++;
    const ValueType tag = static_cast<ValueType>(input[0]);
    input.remove_prefix(1);
    Slice key, value;
    switch (tag) {
      case ValueType::kTypeValue:
        if (!GetLengthPrefixedSlice(&input, &key) ||
            !GetLengthPrefixedSlice(&input, &value)) {
          return Status::Corruption("bad WriteBatch Put");
        }
        handler->Put(key, value);
        break;
      case ValueType::kTypeDeletion:
        if (!GetLengthPrefixedSlice(&input, &key)) {
          return Status::Corruption("bad WriteBatch Delete");
        }
        handler->Delete(key);
        break;
      default:
        return Status::Corruption("unknown WriteBatch tag");
    }
  }
  if (found != Count()) {
    return Status::Corruption("WriteBatch has wrong count");
  }
  return Status::OK();
}

namespace {

/// Applies batch entries to a memtable with an explicit base sequence.
class MemTableInserter : public WriteBatch::Handler {
 public:
  MemTableInserter(SequenceNumber base_sequence, MemTable* mem)
      : sequence_(base_sequence), mem_(mem) {}

  void Put(const Slice& key, const Slice& value) override {
    cas_retries_ += mem_->Add(sequence_++, ValueType::kTypeValue, key, value);
  }
  void Delete(const Slice& key) override {
    cas_retries_ += mem_->Add(sequence_++, ValueType::kTypeDeletion, key,
                              Slice());
  }

  uint64_t cas_retries() const { return cas_retries_; }

 private:
  SequenceNumber sequence_;
  MemTable* mem_;
  uint64_t cas_retries_ = 0;
};

}  // namespace

Status WriteBatch::InsertInto(MemTable* mem, SequenceNumber base_sequence,
                              uint64_t* cas_retries) const {
  MemTableInserter inserter(base_sequence, mem);
  Status s = Iterate(&inserter);
  *cas_retries += inserter.cas_retries();
  return s;
}

}  // namespace lsmlab
