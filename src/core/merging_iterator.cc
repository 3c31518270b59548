#include "core/merging_iterator.h"

#include <memory>
#include <string>
#include <vector>

#include "obs/perf_context.h"

namespace lsmlab {

namespace {

/// A child iterator whose Valid() and key() are cached after every move
/// (LevelDB's IteratorWrapper), so the merge loop compares plain slices
/// instead of making two virtual calls per child per step. key() slices
/// stay valid until the child's next mutation, which only goes through
/// this wrapper.
class MergeChild {
 public:
  explicit MergeChild(Iterator* iter) : iter_(iter) {}

  bool Valid() const { return valid_; }
  Slice key() const { return key_; }
  Slice value() const { return iter_->value(); }
  Status status() const { return iter_->status(); }

  void SeekToFirst() {
    iter_->SeekToFirst();
    Update();
  }
  void SeekToLast() {
    iter_->SeekToLast();
    Update();
  }
  void Seek(const Slice& target) {
    iter_->Seek(target);
    Update();
  }
  void Next() {
    iter_->Next();
    Update();
  }
  void Prev() {
    iter_->Prev();
    Update();
  }

 private:
  void Update() {
    valid_ = iter_->Valid();
    if (valid_) {
      key_ = iter_->key();
    }
  }

  std::unique_ptr<Iterator> iter_;
  bool valid_ = false;
  Slice key_;
};

/// K-way merge by linear scan over children. Callers pass one child per
/// sorted run — scans one per memtable and run, compactions one per chain
/// of key-ordered input files — so children number at most the runs and
/// a heap buys little; children that are invalid are skipped. Ties (same
/// internal key cannot occur; same user key differs by sequence) resolve
/// by comparator order, which already puts newer versions first.
///
/// Debug builds check that each forward step of a child yields a strictly
/// larger internal key. A child that steps back (a run whose files
/// overlap) fails the merge with Corruption where it starts, instead of
/// passing a full scan that DBIter's skip of already-emitted user keys
/// would hide.
class MergingIterator : public Iterator {
 public:
  MergingIterator(const Comparator* comparator, Iterator** children, int n)
      : comparator_(comparator), current_(nullptr) {
    children_.reserve(n);
    for (int i = 0; i < n; i++) {
      children_.emplace_back(children[i]);
    }
  }

  bool Valid() const override { return current_ != nullptr; }

  void SeekToFirst() override {
    GetPerfContext()->merge_iter_seek_count++;
    for (MergeChild& child : children_) {
      child.SeekToFirst();
    }
    FindSmallest();
    direction_ = kForward;
  }

  void SeekToLast() override {
    GetPerfContext()->merge_iter_seek_count++;
    for (MergeChild& child : children_) {
      child.SeekToLast();
    }
    FindLargest();
    direction_ = kReverse;
  }

  void Seek(const Slice& target) override {
    GetPerfContext()->merge_iter_seek_count++;
    for (MergeChild& child : children_) {
      child.Seek(target);
    }
    FindSmallest();
    direction_ = kForward;
  }

  void Next() override {
    GetPerfContext()->merge_iter_step_count++;
    // If we were moving backwards, reposition all non-current children
    // to the first entry after key().
    if (direction_ != kForward) {
      const std::string saved_key = key().ToString();
      for (MergeChild& child : children_) {
        if (&child == current_) {
          continue;
        }
        child.Seek(Slice(saved_key));
        if (child.Valid() &&
            comparator_->Compare(child.key(), Slice(saved_key)) == 0) {
          child.Next();
        }
      }
      direction_ = kForward;
    }
#ifndef NDEBUG
    const std::string before = key().ToString();
#endif
    current_->Next();
#ifndef NDEBUG
    if (current_->Valid() &&
        comparator_->Compare(current_->key(), Slice(before)) <= 0 &&
        order_status_.ok()) {
      order_status_ = Status::Corruption("merge child out of key order");
    }
#endif
    FindSmallest();
  }

  void Prev() override {
    GetPerfContext()->merge_iter_step_count++;
    if (direction_ != kReverse) {
      const std::string saved_key = key().ToString();
      for (MergeChild& child : children_) {
        if (&child == current_) {
          continue;
        }
        child.Seek(Slice(saved_key));
        if (child.Valid()) {
          child.Prev();
        } else {
          child.SeekToLast();
        }
      }
      direction_ = kReverse;
    }
    current_->Prev();
    FindLargest();
  }

  Slice key() const override { return current_->key(); }
  Slice value() const override { return current_->value(); }

  Status status() const override {
    if (!order_status_.ok()) {
      return order_status_;
    }
    for (const MergeChild& child : children_) {
      Status s = child.status();
      if (!s.ok()) {
        return s;
      }
    }
    return Status::OK();
  }

 private:
  enum Direction { kForward, kReverse };

  void FindSmallest() {
    MergeChild* smallest = nullptr;
    for (MergeChild& child : children_) {
      if (child.Valid() &&
          (smallest == nullptr ||
           comparator_->Compare(child.key(), smallest->key()) < 0)) {
        smallest = &child;
      }
    }
    current_ = smallest;
  }

  void FindLargest() {
    MergeChild* largest = nullptr;
    for (MergeChild& child : children_) {
      if (child.Valid() &&
          (largest == nullptr ||
           comparator_->Compare(child.key(), largest->key()) > 0)) {
        largest = &child;
      }
    }
    current_ = largest;
  }

  const Comparator* comparator_;
  std::vector<MergeChild> children_;
  MergeChild* current_;
  Direction direction_ = kForward;
  Status order_status_;  // debug builds' key-order check
};

}  // namespace

Iterator* NewMergingIterator(const Comparator* comparator,
                             Iterator** children, int n) {
  if (n == 0) {
    return NewEmptyIterator();
  }
  if (n == 1) {
    return children[0];
  }
  return new MergingIterator(comparator, children, n);
}

}  // namespace lsmlab
