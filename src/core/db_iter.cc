#include "core/db_iter.h"

#include <memory>
#include <string>

#include "obs/perf_context.h"
#include "obs/perf_scope.h"

namespace lsmlab {

namespace {

/// Forward/backward filtering over the internal key space.
///
/// Forward: stand on the newest visible version of a user key; Next skips
/// the remaining (older) versions and any tombstoned keys.
/// Backward: scan versions of the previous user key and remember the
/// newest visible one (LevelDB's two-direction scheme).
class DBIter : public Iterator {
 public:
  DBIter(const Comparator* user_comparator, Iterator* iter,
         SequenceNumber sequence, StatsRegistry* stats)
      : ucmp_(user_comparator),
        iter_(iter),
        sequence_(sequence),
        stats_(stats) {}

  bool Valid() const override { return valid_; }

  Slice key() const override {
    return direction_ == kForward ? ExtractUserKey(iter_->key())
                                  : Slice(saved_key_);
  }

  Slice value() const override {
    return direction_ == kForward ? iter_->value() : Slice(saved_value_);
  }

  Status status() const override {
    return status_.ok() ? iter_->status() : status_;
  }

  void SeekToFirst() override {
    PerfScope scope(stats_);
    PerfTimer timer(&GetPerfContext()->seek_micros);
    direction_ = kForward;
    iter_->SeekToFirst();
    FindNextUserEntry(/*skipping=*/false);
  }

  void SeekToLast() override {
    PerfScope scope(stats_);
    PerfTimer timer(&GetPerfContext()->seek_micros);
    direction_ = kReverse;
    iter_->SeekToLast();
    FindPrevUserEntry();
  }

  void Seek(const Slice& target) override {
    PerfScope scope(stats_);
    PerfTimer timer(&GetPerfContext()->seek_micros);
    direction_ = kForward;
    std::string seek_key;
    AppendInternalKey(&seek_key, target, sequence_, kValueTypeForSeek);
    iter_->Seek(Slice(seek_key));
    FindNextUserEntry(/*skipping=*/false);
  }

  void Next() override {
    PerfScope scope(stats_);
    PerfTimer timer(&GetPerfContext()->next_micros);
    assert(valid_);
    if (direction_ == kReverse) {
      // Position iter_ at the first entry past saved_key_.
      direction_ = kForward;
      if (!iter_->Valid()) {
        iter_->SeekToFirst();
      } else {
        iter_->Next();
      }
      // iter_ now points at entries of saved_key_ or beyond; skip to the
      // next user key.
      skip_key_ = saved_key_;
      FindNextUserEntry(/*skipping=*/true);
      return;
    }
    skip_key_ = ExtractUserKey(iter_->key()).ToString();
    iter_->Next();
    FindNextUserEntry(/*skipping=*/true);
  }

  void Prev() override {
    PerfScope scope(stats_);
    PerfTimer timer(&GetPerfContext()->next_micros);
    assert(valid_);
    if (direction_ == kForward) {
      // Back iter_ off to before the current user key's entries.
      saved_key_ = ExtractUserKey(iter_->key()).ToString();
      while (true) {
        iter_->Prev();
        if (!iter_->Valid()) {
          valid_ = false;
          saved_key_.clear();
          saved_value_.clear();
          return;
        }
        if (ucmp_->Compare(ExtractUserKey(iter_->key()),
                           Slice(saved_key_)) < 0) {
          break;
        }
      }
      direction_ = kReverse;
    }
    FindPrevUserEntry();
  }

 private:
  enum Direction { kForward, kReverse };

  bool Visible(const Slice& internal_key) const {
    return ExtractSequence(internal_key) <= sequence_;
  }

  /// Forward scan: leave iter_ on the newest visible non-deleted version of
  /// the next user key (skipping skip_key_ when `skipping`).
  void FindNextUserEntry(bool skipping) {
    while (iter_->Valid()) {
      const Slice ikey = iter_->key();
      if (!Visible(ikey)) {
        iter_->Next();
        continue;
      }
      const Slice user_key = ExtractUserKey(ikey);
      if (skipping && ucmp_->Compare(user_key, Slice(skip_key_)) <= 0) {
        iter_->Next();  // older version of a key we already emitted/skipped
        continue;
      }
      switch (ExtractValueType(ikey)) {
        case ValueType::kTypeDeletion:
          // Key is dead; skip all its older versions too.
          skip_key_ = user_key.ToString();
          skipping = true;
          iter_->Next();
          break;
        case ValueType::kTypeValue:
          valid_ = true;
          return;
      }
    }
    valid_ = false;
  }

  /// Backward scan: iter_ enters positioned before the entries of the user
  /// key we just left. Walk backwards accumulating the newest visible
  /// version of each key until we find a live one.
  void FindPrevUserEntry() {
    ValueType value_type = ValueType::kTypeDeletion;
    while (iter_->Valid()) {
      const Slice ikey = iter_->key();
      if (Visible(ikey)) {
        const Slice user_key = ExtractUserKey(ikey);
        if (value_type != ValueType::kTypeDeletion &&
            ucmp_->Compare(user_key, Slice(saved_key_)) < 0) {
          // Crossed into the previous key with a live version saved.
          break;
        }
        // Entering this key from the right: every earlier-seen entry of it
        // was older; this one is newer, so it overrides.
        value_type = ExtractValueType(ikey);
        if (value_type == ValueType::kTypeDeletion) {
          saved_key_.clear();
          saved_value_.clear();
        } else {
          saved_key_ = user_key.ToString();
          saved_value_ = iter_->value().ToString();
        }
      }
      iter_->Prev();
    }
    if (value_type == ValueType::kTypeDeletion) {
      valid_ = false;
      saved_key_.clear();
      saved_value_.clear();
      direction_ = kForward;
    } else {
      valid_ = true;
    }
  }

  const Comparator* ucmp_;
  std::unique_ptr<Iterator> iter_;
  SequenceNumber sequence_;
  StatsRegistry* const stats_;
  Status status_;
  std::string saved_key_;
  std::string saved_value_;
  std::string skip_key_;
  Direction direction_ = kForward;
  bool valid_ = false;
};

}  // namespace

Iterator* NewDBIterator(const Comparator* user_comparator,
                        Iterator* internal_iter, SequenceNumber sequence,
                        StatsRegistry* stats) {
  return new DBIter(user_comparator, internal_iter, sequence, stats);
}

}  // namespace lsmlab
