#include "memtable/memtable.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/coding.h"
#include "util/hash.h"

namespace lsmlab {

namespace {

/// Decodes the internal key of a length-prefixed entry.
Slice GetInternalKey(const char* entry) {
  uint32_t len;
  const char* p = GetVarint32Ptr(entry, entry + 5, &len);
  return Slice(p, len);
}

/// Decodes the value of a length-prefixed entry.
Slice GetEntryValue(const char* entry) {
  uint32_t klen;
  const char* p = GetVarint32Ptr(entry, entry + 5, &klen);
  p += klen;
  uint32_t vlen;
  p = GetVarint32Ptr(p, p + 5, &vlen);
  return Slice(p, vlen);
}

/// Index of the first entry of `vec` (sorted by internal key) >= `target`.
size_t LowerBound(const std::vector<const char*>& vec,
                  const InternalKeyComparator& cmp, const Slice& target) {
  size_t lo = 0;
  size_t hi = vec.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (cmp.Compare(GetInternalKey(vec[mid]), target) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

int MemTable::KeyComparator::operator()(const char* a, const char* b) const {
  return comparator->Compare(GetInternalKey(a), GetInternalKey(b));
}

MemTable::MemTable(const InternalKeyComparator& comparator, Rep rep,
                   bool hash_index)
    : comparator_(comparator),
      key_comparator_{&comparator_},
      rep_(rep),
      use_hash_index_(hash_index) {
  if (rep_ == Rep::kSkipList) {
    skiplist_ = std::make_unique<SkipList<const char*, KeyComparator>>(
        key_comparator_, &arena_);
  }
}

size_t MemTable::ApproximateMemoryUsage() const {
  size_t total = arena_.MemoryUsage();
  if (rep_ == Rep::kSkipList && !use_hash_index_) {
    return total;
  }
  MutexLock lock(&mu_);
  total += vector_.capacity() * sizeof(char*);
  if (use_hash_index_) {
    total += hash_index_.size() *
             (sizeof(std::string_view) + sizeof(char*) + 16);
  }
  return total;
}

const char* MemTable::EncodeEntry(SequenceNumber seq, ValueType type,
                                  const Slice& user_key, const Slice& value) {
  const size_t internal_key_size = user_key.size() + 8;
  const size_t encoded_len = VarintLength(internal_key_size) +
                             internal_key_size +
                             VarintLength(value.size()) + value.size();
  char* buf = arena_.Allocate(encoded_len);
  std::string scratch;
  scratch.reserve(encoded_len);
  PutVarint32(&scratch, static_cast<uint32_t>(internal_key_size));
  scratch.append(user_key.data(), user_key.size());
  PutFixed64(&scratch, PackSequenceAndType(seq, type));
  PutVarint32(&scratch, static_cast<uint32_t>(value.size()));
  scratch.append(value.data(), value.size());
  assert(scratch.size() == encoded_len);
  memcpy(buf, scratch.data(), encoded_len);
  return buf;
}

void MemTable::IndexUnderLock(const char* entry) {
  if (rep_ == Rep::kSkipList && !use_hash_index_) {
    return;
  }
  const Slice ik = GetInternalKey(entry);
  MutexLock lock(&mu_);
  if (rep_ == Rep::kSortedVector) {
    vector_.insert(vector_.begin() + LowerBound(vector_, comparator_, ik),
                   entry);
  }
  if (use_hash_index_) {
    // Concurrent members may add a key's versions out of sequence order;
    // the index keeps the highest sequence, not the last Add.
    const Slice uk = ExtractUserKey(ik);
    const char*& newest = hash_index_[std::string_view(uk.data(), uk.size())];
    if (newest == nullptr ||
        ExtractSequence(GetInternalKey(newest)) < ExtractSequence(ik)) {
      newest = entry;
    }
  }
}

uint64_t MemTable::Add(SequenceNumber seq, ValueType type,
                       const Slice& user_key, const Slice& value) {
  const char* entry = EncodeEntry(seq, type, user_key, value);
  num_entries_.fetch_add(1, std::memory_order_relaxed);
  uint64_t cas_retries = 0;
  if (rep_ == Rep::kSkipList) {
    cas_retries = skiplist_->Insert(entry, Hash64(GetInternalKey(entry)));
  }
  IndexUnderLock(entry);
  return cas_retries;
}

bool MemTable::Get(const LookupKey& lkey, std::string* value, Status* s) {
  const char* entry = nullptr;

  if (use_hash_index_ &&
      ExtractSequence(lkey.internal_key()) == kMaxSequenceNumber) {
    // O(1) latest-version fast path.
    Slice uk = lkey.user_key();
    MutexLock lock(&mu_);
    auto it = hash_index_.find(std::string_view(uk.data(), uk.size()));
    if (it == hash_index_.end()) {
      return false;
    }
    entry = it->second;
  } else if (rep_ == Rep::kSkipList) {
    SkipList<const char*, KeyComparator>::Iterator iter(skiplist_.get());
    // Seek wants an entry-encoded key; encode the lookup key likewise.
    std::string seek_entry;
    PutVarint32(&seek_entry,
                static_cast<uint32_t>(lkey.internal_key().size()));
    seek_entry.append(lkey.internal_key().data(),
                      lkey.internal_key().size());
    iter.Seek(seek_entry.data());
    if (!iter.Valid()) {
      return false;
    }
    entry = iter.key();
  } else {
    MutexLock lock(&mu_);
    const size_t pos = LowerBound(vector_, comparator_, lkey.internal_key());
    if (pos >= vector_.size()) {
      return false;
    }
    entry = vector_[pos];
  }

  const Slice internal_key = GetInternalKey(entry);
  if (comparator_.user_comparator()->Compare(ExtractUserKey(internal_key),
                                             lkey.user_key()) != 0) {
    return false;
  }
  switch (ExtractValueType(internal_key)) {
    case ValueType::kTypeValue: {
      Slice v = GetEntryValue(entry);
      value->assign(v.data(), v.size());
      return true;
    }
    case ValueType::kTypeDeletion:
      *s = Status::NotFound("");
      return true;
  }
  return false;
}

namespace {

class MemTableIterator : public Iterator {
 public:
  /// Walks `list`, or, when it is null, `vec`: a snapshot of the vector
  /// rep that later Adds cannot reallocate under the iterator.
  MemTableIterator(MemTable* mem,
                   SkipList<const char*, MemTable::KeyComparator>* list,
                   std::vector<const char*> vec,
                   const InternalKeyComparator* cmp)
      : mem_(mem), vec_(std::move(vec)), cmp_(cmp) {
    if (list != nullptr) {
      list_iter_ = std::make_unique<
          SkipList<const char*, MemTable::KeyComparator>::Iterator>(list);
    }
    mem_->Ref();
  }

  ~MemTableIterator() override { mem_->Unref(); }

  bool Valid() const override {
    return list_iter_ ? list_iter_->Valid() : vec_pos_ < vec_.size();
  }

  void SeekToFirst() override {
    if (list_iter_) {
      list_iter_->SeekToFirst();
    } else {
      vec_pos_ = 0;
    }
  }

  void SeekToLast() override {
    if (list_iter_) {
      list_iter_->SeekToLast();
    } else {
      vec_pos_ = vec_.empty() ? 0 : vec_.size() - 1;
    }
  }

  void Seek(const Slice& target) override {
    if (list_iter_) {
      std::string seek_entry;
      PutVarint32(&seek_entry, static_cast<uint32_t>(target.size()));
      seek_entry.append(target.data(), target.size());
      list_iter_->Seek(seek_entry.data());
    } else {
      vec_pos_ = LowerBound(vec_, *cmp_, target);
    }
  }

  void Next() override {
    if (list_iter_) {
      list_iter_->Next();
    } else {
      vec_pos_++;
    }
  }

  void Prev() override {
    if (list_iter_) {
      list_iter_->Prev();
    } else if (vec_pos_ == 0) {
      vec_pos_ = vec_.size();
    } else {
      vec_pos_--;
    }
  }

  Slice key() const override { return GetInternalKey(Entry()); }
  Slice value() const override { return GetEntryValue(Entry()); }
  Status status() const override { return Status::OK(); }

 private:
  const char* Entry() const {
    return list_iter_ ? list_iter_->key() : vec_[vec_pos_];
  }

  MemTable* mem_;
  std::unique_ptr<SkipList<const char*, MemTable::KeyComparator>::Iterator>
      list_iter_;
  const std::vector<const char*> vec_;
  size_t vec_pos_ = 0;
  const InternalKeyComparator* cmp_;
};

}  // namespace

Iterator* MemTable::NewIterator() {
  if (rep_ == Rep::kSkipList) {
    return new MemTableIterator(this, skiplist_.get(), {}, &comparator_);
  }
  MutexLock lock(&mu_);
  return new MemTableIterator(this, nullptr, vector_, &comparator_);
}

}  // namespace lsmlab
