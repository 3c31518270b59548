#ifndef LSMLAB_MEMTABLE_MEMTABLE_H_
#define LSMLAB_MEMTABLE_MEMTABLE_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dbformat.h"
#include "memtable/skiplist.h"
#include "util/arena.h"
#include "util/iterator.h"
#include "util/mutex.h"
#include "util/status.h"

namespace lsmlab {

/// Mutable in-memory write buffer (tutorial I-1: ingestion is buffered here
/// and flushed to an immutable run when full).
///
/// Entries are stored arena-allocated as
///   varint32 internal_key_len | internal_key | varint32 value_len | value
/// and indexed by one of two representations (the buffer-design axis of
/// the read-update-memory tradeoff, tutorial I-2 / E13):
///  - kSkipList: O(log n) insert and search (default; LevelDB/RocksDB).
///  - kSortedVector: contiguous array kept sorted; cache-friendly searches,
///    O(n) inserts — the "sorted dense buffer" design point.
///
/// An optional hash index (tutorial §II-4: per-page hash maps) maps user
/// keys to their newest entry for O(1) latest-version Gets; snapshot reads
/// fall back to the ordered search.
///
/// The memtable owns its write synchronisation: readers may run alongside
/// any writer, and AddConcurrent calls alongside each other, on every rep.
/// The skiplist is lock-free on both sides (CAS splice, acquire loads);
/// the sorted vector and the hash index serialise writers and readers on
/// the leaf mu_, and a vector-rep iterator reads a copy of vector_.
class MemTable {
 public:
  enum class Rep { kSkipList, kSortedVector };

  explicit MemTable(const InternalKeyComparator& comparator,
                    Rep rep = Rep::kSkipList, bool hash_index = false);

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  /// Reference counting: the DB holds one ref; iterators/readers add more.
  /// Drops itself when the count reaches zero. Atomic because iterators are
  /// released on reader threads while the background flush thread unrefs a
  /// frozen memtable.
  void Ref() { refs_.fetch_add(1, std::memory_order_relaxed); }
  void Unref() {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete this;
    }
  }

  /// Bytes consumed; compared against Options::write_buffer_size to
  /// trigger a flush.
  size_t ApproximateMemoryUsage() const;

  /// Iterator yielding internal keys (entry encoding stripped). A
  /// vector-rep iterator sees the entries present when it was created.
  Iterator* NewIterator();

  /// Adds an entry. A deletion is an entry of type kTypeDeletion.
  /// Single-writer: callers serialize Adds with each other and with
  /// AddConcurrent (the classic contract); readers need no coordination.
  void Add(SequenceNumber seq, ValueType type, const Slice& user_key,
           const Slice& value);

  /// Thread-safe Add for the parallel group apply: any number of
  /// AddConcurrent calls may run simultaneously, alongside readers, on
  /// every rep. Returns the number of skiplist CAS retries
  /// (memtable.insert_cas_retries ticker; always 0 for the vector rep).
  uint64_t AddConcurrent(SequenceNumber seq, ValueType type,
                         const Slice& user_key, const Slice& value);

  /// If a version visible at `lkey`'s snapshot exists, returns true and
  /// sets *value (found) or *s = NotFound (tombstone). Returns false when
  /// this memtable holds nothing visible for the key.
  bool Get(const LookupKey& lkey, std::string* value, Status* s);

  uint64_t num_entries() const {
    return num_entries_.load(std::memory_order_relaxed);
  }

  /// Orders entry pointers by their encoded internal keys (public so the
  /// iterator implementation can name the skiplist type).
  struct KeyComparator {
    const InternalKeyComparator* comparator;
    int operator()(const char* a, const char* b) const;
  };

 private:
  ~MemTable() = default;  // only via Unref()

  const char* EncodeEntry(SequenceNumber seq, ValueType type,
                          const Slice& user_key, const Slice& value,
                          bool concurrent);

  /// Adds an encoded entry to the vector rep and the hash index, the two
  /// indexes mu_ guards; a no-op for a plain skiplist.
  void IndexUnderLock(const char* entry);

  InternalKeyComparator comparator_;
  KeyComparator key_comparator_;
  Rep rep_;
  std::atomic<int> refs_{0};
  // Relaxed atomic: bumped by concurrent appliers, read by flush sizing.
  std::atomic<uint64_t> num_entries_{0};
  Arena arena_;
  std::unique_ptr<SkipList<const char*, KeyComparator>> skiplist_;
  const bool use_hash_index_;

  /// Leaf lock over the two indexes that are not safe for unlocked
  /// readers. The skiplist never takes it.
  mutable Mutex mu_{LockRank::kMemTableMu};
  std::vector<const char*> vector_ GUARDED_BY(mu_);  // sorted by internal key
  // user key (view into arena memory) -> highest-sequence entry
  std::unordered_map<std::string_view, const char*> hash_index_
      GUARDED_BY(mu_);
};

}  // namespace lsmlab

#endif  // LSMLAB_MEMTABLE_MEMTABLE_H_
