#ifndef LSMLAB_MEMTABLE_SKIPLIST_H_
#define LSMLAB_MEMTABLE_SKIPLIST_H_

#include <atomic>
#include <cassert>
#include <cstdint>

#include "util/arena.h"

namespace lsmlab {

/// Arena-backed skiplist: the classic LSM write-buffer structure
/// (tutorial I-1). Any number of writers may insert at once, each level
/// spliced with a CAS, and readers traverse alongside them without locking
/// (next pointers are released atomically, nodes are never removed until
/// the whole list is dropped).
///
/// Key is a trivially copyable handle (the memtable uses const char*).
/// Comparator is a functor: int operator()(const Key&, const Key&).
template <typename Key, class Comparator>
class SkipList {
 private:
  struct Node;

 public:
  SkipList(Comparator cmp, Arena* arena)
      : compare_(cmp),
        arena_(arena),
        head_(NewNode(Key{}, kMaxHeight)),
        max_height_(1) {
    for (int i = 0; i < kMaxHeight; i++) {
      head_->NoBarrier_SetNext(i, nullptr);
    }
  }

  SkipList(const SkipList&) = delete;
  SkipList& operator=(const SkipList&) = delete;

  /// Inserts key; any number of Insert() calls may run at once, alongside
  /// lock-free readers. `hash` is a well-mixed hash of the key: the tower
  /// height is drawn from it, so the same keys build the same list on any
  /// thread and in any order.
  ///
  /// Each level is spliced with a CAS on prev->next; when the CAS loses
  /// (another writer spliced there first) the level's splice is recomputed
  /// by walking forward from the stale prev — valid because nodes are never
  /// removed, so a stale prev is still an ancestor of the right position.
  /// Levels link bottom-up: once level 0 succeeds the node is reachable,
  /// and the release CAS publishes the node's own next pointers to readers.
  ///
  /// REQUIRES: no equal key is in the list or being inserted.
  /// Returns the number of CAS retries (for memtable.insert_cas_retries).
  uint64_t Insert(const Key& key, uint64_t hash) {
    Node* prev[kMaxHeight];
    Node* next[kMaxHeight];
    const int height = HeightFor(hash);

    // Raise max_height_ with a CAS so racing tall inserts converge on the
    // tallest request. A reader that observes the new height before the
    // node is linked just walks head_'s null pointers at the top.
    int max_h = max_height_.load(std::memory_order_relaxed);
    while (height > max_h &&
           !max_height_.compare_exchange_weak(max_h, height,
                                              std::memory_order_relaxed)) {
    }

    Node* x = NewNode(key, height);
    FindSplice(key, prev, next);
    assert(next[0] == nullptr || !Equal(key, next[0]->key));

    uint64_t cas_retries = 0;
    for (int i = 0; i < height; i++) {
      while (true) {
        // Link the new node to its successor before publishing: the CAS
        // below releases, so a reader that reaches x through prev[i] also
        // sees x->next_[i]. Insert-only lists cannot ABA — a next pointer
        // never returns to a prior value because nodes are never unlinked.
        x->NoBarrier_SetNext(i, next[i]);
        if (prev[i]->CASNext(i, next[i], x)) {
          break;
        }
        // Lost the race at this level: someone spliced after prev[i].
        // prev[i] still compares < key, so re-walk forward from it.
        cas_retries++;
        FindSpliceForLevel(key, prev[i], i, &prev[i], &next[i]);
        assert(i != 0 || next[0] == nullptr || !Equal(key, next[0]->key));
      }
    }
    return cas_retries;
  }

  bool Contains(const Key& key) const {
    Node* x = FindGreaterOrEqual(key);
    return x != nullptr && Equal(key, x->key);
  }

  /// Cursor over the list contents.
  class Iterator {
   public:
    explicit Iterator(const SkipList* list) : list_(list), node_(nullptr) {}

    bool Valid() const { return node_ != nullptr; }
    const Key& key() const {
      assert(Valid());
      return node_->key;
    }
    void Next() {
      assert(Valid());
      node_ = node_->Next(0);
    }
    void Prev() {
      assert(Valid());
      node_ = list_->FindLessThan(node_->key);
      if (node_ == list_->head_) {
        node_ = nullptr;
      }
    }
    void Seek(const Key& target) {
      node_ = list_->FindGreaterOrEqual(target);
    }
    void SeekToFirst() { node_ = list_->head_->Next(0); }
    void SeekToLast() {
      node_ = list_->FindLast();
      if (node_ == list_->head_) {
        node_ = nullptr;
      }
    }

   private:
    const SkipList* list_;
    Node* node_;
  };

 private:
  static constexpr int kMaxHeight = 12;
  static constexpr int kBranching = 4;

  struct Node {
    explicit Node(const Key& k) : key(k) {}

    Key const key;

    Node* Next(int n) {
      return next_[n].load(std::memory_order_acquire);
    }
    void NoBarrier_SetNext(int n, Node* x) {
      next_[n].store(x, std::memory_order_relaxed);
    }
    /// Splice CAS: release on success (publishes x and its next
    /// pointers), relaxed on failure (the caller re-walks and retries).
    bool CASNext(int n, Node* expected, Node* x) {
      return next_[n].compare_exchange_strong(expected, x,
                                              std::memory_order_release,
                                              std::memory_order_relaxed);
    }

   private:
    // Array of length equal to the node height; [0] is the lowest level.
    std::atomic<Node*> next_[1];
  };

  Node* NewNode(const Key& key, int height) {
    char* mem = arena_->AllocateAligned(
        sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1));
    return new (mem) Node(key);
  }

  /// 1 + the number of low base-kBranching digits of `hash` that are
  /// zero: height h with probability (1/kBranching)^(h-1), capped.
  static int HeightFor(uint64_t hash) {
    int height = 1;
    while (height < kMaxHeight && hash % kBranching == 0) {
      height++;
      hash /= kBranching;
    }
    return height;
  }

  int GetMaxHeight() const {
    return max_height_.load(std::memory_order_relaxed);
  }

  bool Equal(const Key& a, const Key& b) const {
    return compare_(a, b) == 0;
  }

  /// Walks forward from `before` at `level` until the splice point:
  /// *out_prev compares < key and *out_next is its successor (nullptr or
  /// >= key). REQUIRES: before is head_ or compares < key.
  void FindSpliceForLevel(const Key& key, Node* before, int level,
                          Node** out_prev, Node** out_next) const {
    Node* x = before;
    while (true) {
      Node* next = x->Next(level);
      if (next == nullptr || compare_(next->key, key) >= 0) {
        *out_prev = x;
        *out_next = next;
        return;
      }
      x = next;
    }
  }

  /// Computes the splice (prev/next pair) for every level. Top levels
  /// above max_height_ just yield head_/nullptr, which is exactly the
  /// right splice if this insert raises the height.
  void FindSplice(const Key& key, Node** prev, Node** next) const {
    Node* before = head_;
    for (int level = kMaxHeight - 1; level >= 0; level--) {
      FindSpliceForLevel(key, before, level, &prev[level], &next[level]);
      before = prev[level];
    }
  }

  Node* FindGreaterOrEqual(const Key& key) const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    while (true) {
      Node* next = x->Next(level);
      if (next != nullptr && compare_(next->key, key) < 0) {
        x = next;
      } else {
        if (level == 0) {
          return next;
        }
        level--;
      }
    }
  }

  Node* FindLessThan(const Key& key) const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    while (true) {
      Node* next = x->Next(level);
      if (next != nullptr && compare_(next->key, key) < 0) {
        x = next;
      } else {
        if (level == 0) {
          return x;
        }
        level--;
      }
    }
  }

  Node* FindLast() const {
    Node* x = head_;
    int level = GetMaxHeight() - 1;
    while (true) {
      Node* next = x->Next(level);
      if (next != nullptr) {
        x = next;
      } else {
        if (level == 0) {
          return x;
        }
        level--;
      }
    }
  }

  Comparator const compare_;
  Arena* const arena_;
  Node* const head_;
  std::atomic<int> max_height_;
};

}  // namespace lsmlab

#endif  // LSMLAB_MEMTABLE_SKIPLIST_H_
