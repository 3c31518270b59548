// Unit tests for the core internals: internal-key format, write batches,
// version edits, file naming, and the iterator stack.

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/db_impl.h"
#include "core/db_iter.h"
#include "core/dbformat.h"
#include "core/filename.h"
#include "core/merging_iterator.h"
#include "core/version.h"
#include "core/write_batch.h"
#include "format/sstable_builder.h"
#include "memtable/memtable.h"
#include "storage/env.h"
#include "util/random.h"

namespace lsmlab {
namespace {

std::string IKey(const std::string& user_key, SequenceNumber seq,
                 ValueType type = ValueType::kTypeValue) {
  std::string result;
  AppendInternalKey(&result, user_key, seq, type);
  return result;
}

// ------------------------------------------------------------- dbformat --

TEST(DbFormatTest, EncodeDecodeRoundtrip) {
  const std::string ikey = IKey("hello", 42, ValueType::kTypeDeletion);
  EXPECT_EQ(ExtractUserKey(ikey).ToString(), "hello");
  EXPECT_EQ(ExtractSequence(ikey), 42u);
  EXPECT_EQ(ExtractValueType(ikey), ValueType::kTypeDeletion);
}

TEST(DbFormatTest, InternalOrderNewestFirst) {
  InternalKeyComparator icmp(BytewiseComparator());
  // Same user key: larger sequence sorts FIRST.
  EXPECT_LT(icmp.Compare(IKey("a", 5), IKey("a", 3)), 0);
  // Type breaks ties: value sorts before deletion at equal seq.
  EXPECT_LT(icmp.Compare(IKey("a", 5, ValueType::kTypeValue),
                         IKey("a", 5, ValueType::kTypeDeletion)),
            0);
  // Different user keys: user order dominates.
  EXPECT_LT(icmp.Compare(IKey("a", 1), IKey("b", 100)), 0);
}

TEST(DbFormatTest, LookupKeySortsBeforeVisibleVersions) {
  InternalKeyComparator icmp(BytewiseComparator());
  LookupKey lkey("k", 10);
  // Versions visible at snapshot 10 (seq <= 10) sort at-or-after the
  // lookup key, so a forward seek lands on the newest visible one.
  EXPECT_LE(icmp.Compare(lkey.internal_key(), IKey("k", 10)), 0);
  EXPECT_LT(icmp.Compare(lkey.internal_key(), IKey("k", 9)), 0);
  EXPECT_LT(icmp.Compare(lkey.internal_key(), IKey("k", 1)), 0);
  // Newer versions sort before it (skipped by a forward seek).
  EXPECT_GT(icmp.Compare(lkey.internal_key(), IKey("k", 11)), 0);
}

TEST(DbFormatTest, SeparatorStaysBetweenAndKeepsUserKeyShort) {
  InternalKeyComparator icmp(BytewiseComparator());
  std::string start = IKey("abcdefgh", 7);
  const std::string limit = IKey("abzz", 3);
  std::string sep = start;
  icmp.FindShortestSeparator(&sep, limit);
  EXPECT_LE(icmp.Compare(start, sep), 0);
  EXPECT_LT(icmp.Compare(sep, limit), 0);
  EXPECT_LE(sep.size(), start.size());
}

TEST(DbFormatTest, SeparatorUnchangedForSameUserKey) {
  // Versions of one user key cannot be separated; the key must remain
  // exactly (or the fence would corrupt version visibility).
  InternalKeyComparator icmp(BytewiseComparator());
  std::string start = IKey("samekey", 9);
  const std::string orig = start;
  icmp.FindShortestSeparator(&start, IKey("samekey", 2));
  EXPECT_EQ(start, orig);
}

// ----------------------------------------------------------- WriteBatch --

TEST(WriteBatchTest, CountAndSequence) {
  WriteBatch batch;
  EXPECT_EQ(batch.Count(), 0u);
  batch.Put("a", "1");
  batch.Delete("b");
  batch.Put("c", "3");
  EXPECT_EQ(batch.Count(), 3u);
  batch.set_sequence(100);
  EXPECT_EQ(batch.sequence(), 100u);
}

TEST(WriteBatchTest, IterateReplaysInOrder) {
  WriteBatch batch;
  batch.Put("k1", "v1");
  batch.Delete("k2");
  batch.Put("k3", "v3");

  struct Collector : public WriteBatch::Handler {
    std::vector<std::string> ops;
    void Put(const Slice& k, const Slice& v) override {
      ops.push_back("put:" + k.ToString() + "=" + v.ToString());
    }
    void Delete(const Slice& k) override {
      ops.push_back("del:" + k.ToString());
    }
  } collector;
  ASSERT_TRUE(batch.Iterate(&collector).ok());
  ASSERT_EQ(collector.ops.size(), 3u);
  EXPECT_EQ(collector.ops[0], "put:k1=v1");
  EXPECT_EQ(collector.ops[1], "del:k2");
  EXPECT_EQ(collector.ops[2], "put:k3=v3");
}

TEST(WriteBatchTest, ContentsRoundtripThroughWalRecord) {
  WriteBatch a;
  a.Put("key", std::string(1000, 'v'));
  a.set_sequence(7);
  WriteBatch b;
  b.SetContentsFrom(a.Contents());
  EXPECT_EQ(b.Count(), 1u);
  EXPECT_EQ(b.sequence(), 7u);
}

TEST(WriteBatchTest, CorruptContentsRejected) {
  WriteBatch batch;
  batch.SetContentsFrom(Slice("\x01\x02\x03"));  // too short: reset
  EXPECT_EQ(batch.Count(), 0u);

  // Valid header, garbage body.
  std::string bad(12, '\0');
  bad[8] = 2;  // count = 2 but no ops follow
  batch.SetContentsFrom(bad);
  struct Nop : public WriteBatch::Handler {
    void Put(const Slice&, const Slice&) override {}
    void Delete(const Slice&) override {}
  } nop;
  EXPECT_TRUE(batch.Iterate(&nop).IsCorruption());
}

// ---------------------------------------------------------- VersionEdit --

TEST(VersionEditTest, EncodeDecodeRoundtrip) {
  VersionEdit edit;
  edit.SetComparatorName("lsmlab.BytewiseComparator");
  edit.SetLogNumber(12);
  edit.SetNextFileNumber(34);
  edit.SetLastSequence(56);
  edit.SetNextRunSeq(78);
  FileMetaData meta;
  meta.number = 9;
  meta.file_size = 1024;
  meta.smallest = IKey("aaa", 5);
  meta.largest = IKey("zzz", 2);
  edit.AddFile(2, /*run_seq=*/3, meta);
  edit.RemoveFile(1, 4);

  std::string encoded;
  edit.EncodeTo(&encoded);
  VersionEdit decoded;
  ASSERT_TRUE(decoded.DecodeFrom(Slice(encoded)).ok());

  std::string re_encoded;
  decoded.EncodeTo(&re_encoded);
  EXPECT_EQ(encoded, re_encoded);
}

TEST(VersionEditTest, RejectsGarbage) {
  VersionEdit edit;
  EXPECT_FALSE(edit.DecodeFrom(Slice("\xff\xff\xff garbage")).ok());
}

// --------------------------------------------------------- Fence search --

// The fence search on a hand-built run of three files, [b, d], [f, h] and
// [k, m]: the range form at open bounds, at bounds equal to a file's
// smallest or largest user key with closed and half-open ends, and in the
// gaps; FindFileInRun agrees with the closed range [key, key].
TEST(FenceSearchTest, RangesAndPointsOfARun) {
  const Comparator* ucmp = BytewiseComparator();
  lsmlab::Run run;
  for (const auto& [lo, hi] : {std::pair<std::string, std::string>{"b", "d"},
                               {"f", "h"},
                               {"k", "m"}}) {
    auto f = std::make_shared<FileMetaData>();
    f->number = run.files.size() + 1;
    f->smallest = IKey(lo, 9);
    f->largest = IKey(hi, 5);
    run.files.push_back(std::move(f));
  }
  // The numbers of the files FenceSearch returns, "" for none; "-" is an
  // open bound.
  auto search = [&](const std::string& lo, const std::string& hi,
                    bool hi_open) {
    const Slice lo_key(lo);
    const Slice hi_key(hi);
    std::string numbers;
    for (const FileMetaPtr& f :
         FenceSearch(run.files, *ucmp, lo == "-" ? nullptr : &lo_key,
                     hi == "-" ? nullptr : &hi_key, hi_open)) {
      numbers += std::to_string(f->number);
    }
    return numbers;
  };
  EXPECT_EQ(search("-", "-", false), "123");
  EXPECT_EQ(search("-", "-", true), "123");
  EXPECT_EQ(search("d", "-", false), "123");  // lo at a largest key
  EXPECT_EQ(search("e", "-", false), "23");   // lo in a gap
  EXPECT_EQ(search("n", "-", false), "");
  EXPECT_EQ(search("-", "f", false), "12");  // hi at a smallest key
  EXPECT_EQ(search("-", "f", true), "1");
  EXPECT_EQ(search("-", "b", true), "");
  EXPECT_EQ(search("-", "a", false), "");
  EXPECT_EQ(search("h", "k", false), "23");
  EXPECT_EQ(search("h", "k", true), "2");
  EXPECT_EQ(search("i", "j", false), "");  // both bounds in one gap
  EXPECT_EQ(search("e", "e", false), "");
  EXPECT_EQ(search("c", "l", true), "123");

  for (char c = 'a'; c <= 'n'; c++) {
    const std::string key(1, c);
    const FileMetaPtr* found = FindFileInRun(run, ucmp, Slice(key));
    const std::string range = search(key, key, false);
    EXPECT_EQ(found == nullptr ? "" : std::to_string((*found)->number), range)
        << key;
    EXPECT_LE(range.size(), 1u) << key;
  }

  // Whole internal keys: file 1 ends at d@5, so a seek to d@3 lies past
  // it and a seek to d@7 does not.
  const InternalKeyComparator icmp(ucmp);
  const std::string newer = IKey("d", 7);
  const std::string older = IKey("d", 3);
  const Slice newer_key(newer);
  const Slice older_key(older);
  EXPECT_EQ(FenceSearch(run.files, icmp, &newer_key, nullptr, false,
                        /*internal_keys=*/true)
                .size(),
            3u);
  EXPECT_EQ(FenceSearch(run.files, icmp, &older_key, nullptr, false,
                        /*internal_keys=*/true)
                .size(),
            2u);

  const lsmlab::Run empty;
  EXPECT_EQ(FindFileInRun(empty, ucmp, Slice("c")), nullptr);
  const Slice c("c");
  EXPECT_TRUE(FenceSearch(empty.files, *ucmp, &c, &c).empty());
  EXPECT_TRUE(FenceSearch(empty.files, *ucmp, nullptr, nullptr).empty());
}

// ------------------------------------------------------------ Filenames --

TEST(FilenameTest, RoundtripAllTypes) {
  struct Case {
    std::string name;
    uint64_t number;
    FileType type;
  } cases[] = {
      {"000007.sst", 7, FileType::kTableFile},
      {"000042.wal", 42, FileType::kWalFile},
      {"MANIFEST-000003", 3, FileType::kManifestFile},
      {"CURRENT", 0, FileType::kCurrentFile},
  };
  for (const auto& c : cases) {
    uint64_t number;
    FileType type;
    ASSERT_TRUE(ParseFileName(c.name, &number, &type)) << c.name;
    EXPECT_EQ(number, c.number);
    EXPECT_EQ(static_cast<int>(type), static_cast<int>(c.type));
  }
  EXPECT_EQ(TableFileName("/db", 7), "/db/000007.sst");
  EXPECT_EQ(WalFileName("/db", 42), "/db/000042.wal");
}

TEST(FilenameTest, RejectsForeignNames) {
  uint64_t number;
  FileType type;
  EXPECT_FALSE(ParseFileName("LOCK", &number, &type));
  EXPECT_FALSE(ParseFileName("123.tmp", &number, &type));
  EXPECT_FALSE(ParseFileName("abc.sst", &number, &type));
  EXPECT_FALSE(ParseFileName("", &number, &type));
}

// ---------------------------------------------- Merging iterator + DBIter --

/// In-memory iterator over a sorted vector of (internal key, value).
class VectorIterator : public Iterator {
 public:
  explicit VectorIterator(
      std::vector<std::pair<std::string, std::string>> data)
      : data_(std::move(data)), pos_(data_.size()) {}

  bool Valid() const override { return pos_ < data_.size(); }
  void SeekToFirst() override { pos_ = 0; }
  void SeekToLast() override {
    pos_ = data_.empty() ? 0 : data_.size() - 1;
    if (data_.empty()) pos_ = data_.size();
  }
  void Seek(const Slice& target) override {
    InternalKeyComparator icmp(BytewiseComparator());
    pos_ = 0;
    while (pos_ < data_.size() &&
           icmp.Compare(Slice(data_[pos_].first), target) < 0) {
      pos_++;
    }
  }
  void Next() override { pos_++; }
  void Prev() override { pos_ = pos_ == 0 ? data_.size() : pos_ - 1; }
  Slice key() const override { return Slice(data_[pos_].first); }
  Slice value() const override { return Slice(data_[pos_].second); }
  Status status() const override { return Status::OK(); }

 private:
  std::vector<std::pair<std::string, std::string>> data_;
  size_t pos_;
};

TEST(MergingIteratorTest, InterleavesRuns) {
  InternalKeyComparator icmp(BytewiseComparator());
  auto* a = new VectorIterator({{IKey("a", 1), "1"}, {IKey("c", 1), "3"}});
  auto* b = new VectorIterator({{IKey("b", 1), "2"}, {IKey("d", 1), "4"}});
  Iterator* children[] = {a, b};
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(&icmp, children, 2));
  std::string order;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    order += merged->value().ToString();
  }
  EXPECT_EQ(order, "1234");
  // Backward.
  order.clear();
  for (merged->SeekToLast(); merged->Valid(); merged->Prev()) {
    order += merged->value().ToString();
  }
  EXPECT_EQ(order, "4321");
}

#ifndef NDEBUG
// Debug builds: a child that steps back (here, as a run whose files
// overlap would) fails the merge with Corruption at that step. DBIter
// alone would hide it on a full scan, skipping the repeated user key.
TEST(MergingIteratorTest, ChildOutOfKeyOrderFailsTheMerge) {
  InternalKeyComparator icmp(BytewiseComparator());
  auto* run = new VectorIterator(
      {{IKey("a", 1), "1"}, {IKey("c", 1), "3"}, {IKey("b", 1), "2"}});
  auto* mem = new VectorIterator({{IKey("d", 2), "4"}});
  Iterator* children[] = {run, mem};
  std::unique_ptr<Iterator> merged(NewMergingIterator(&icmp, children, 2));
  merged->SeekToFirst();
  merged->Next();
  EXPECT_TRUE(merged->status().ok());
  merged->Next();  // c -> b
  EXPECT_TRUE(merged->status().IsCorruption()) << merged->status().ToString();
}
#endif

// Model check of the merge over the children a real read sees: a memtable
// (several versions per key), a multi-table run read through
// TableCache::NewRunIterator with an empty table between two others, and an
// empty child. Every position after a random mix of seeks and steps, with
// direction switches, must match a std::map of the same internal keys.
TEST(MergingIteratorTest, ModelCheckAgainstMap) {
  std::unique_ptr<Env> env(NewMemEnv());
  Options options;
  options.env = env.get();
  InternalKeyComparator icmp(BytewiseComparator());
  StatsRegistry stats;
  TableCache tables("/db", &options, &icmp, &stats);
  auto user_key = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%03d", i);
    return std::string(buf);
  };
  struct Less {
    const InternalKeyComparator* icmp;
    bool operator()(const std::string& a, const std::string& b) const {
      return icmp->Compare(Slice(a), Slice(b)) < 0;
    }
  };
  std::map<std::string, std::string, Less> model(Less{&icmp});
  Random rnd(301);
  SequenceNumber seq = 1;

  // The run: tables over user keys [0, 80), [100, 150) and [150, 200),
  // and an empty table whose fences lie between the first two.
  std::vector<FileMetaPtr> run;
  auto add_table = [&](uint64_t number, int lo, int hi,
                       const std::string& smallest,
                       const std::string& largest) {
    TableOptions topts;
    topts.comparator = &icmp;
    topts.block_size = 256;
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(
        env->NewWritableFile(TableFileName("/db", number), &file).ok());
    SSTableBuilder builder(topts, file.get());
    auto meta = std::make_shared<FileMetaData>();
    meta->number = number;
    meta->smallest = smallest;
    meta->largest = largest;
    for (int i = lo; i < hi; i++) {
      if (rnd.Uniform(3) == 0) {
        continue;
      }
      const ValueType type = rnd.Uniform(8) == 0 ? ValueType::kTypeDeletion
                                                 : ValueType::kTypeValue;
      const std::string key = IKey(user_key(i), seq++, type);
      const std::string value =
          type == ValueType::kTypeValue ? "run" + std::to_string(i) : "";
      builder.Add(key, value);
      model[key] = value;
      if (meta->smallest.empty()) {
        meta->smallest = key;
      }
      meta->largest = key;
    }
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE(file->Close().ok());
    meta->file_size = builder.FileSize();
    run.push_back(meta);
  };
  add_table(1000, 0, 80, "", "");
  add_table(1001, 0, 0, IKey(user_key(85), 0), IKey(user_key(90), 0));
  add_table(1002, 100, 150, "", "");
  add_table(1003, 150, 200, "", "");
  ASSERT_EQ(run.size(), 4u);

  // The memtable: newer versions of keys across (and past) the run's range.
  MemTable* mem = new MemTable(icmp);
  mem->Ref();
  for (int n = 0; n < 150; n++) {
    const int i = static_cast<int>(rnd.Uniform(210));
    const ValueType type = rnd.Uniform(8) == 0 ? ValueType::kTypeDeletion
                                               : ValueType::kTypeValue;
    const std::string value =
        type == ValueType::kTypeValue ? "mem" + std::to_string(n) : "";
    mem->Add(seq, type, user_key(i), value);
    model[IKey(user_key(i), seq, type)] = value;
    seq++;
  }

  Iterator* children[] = {mem->NewIterator(), tables.NewRunIterator(run, 0),
                          NewEmptyIterator()};
  mem->Unref();
  std::unique_ptr<Iterator> merged(NewMergingIterator(&icmp, children, 3));

  auto pos = model.end();
  for (int step = 0; step < 4000; step++) {
    const uint64_t op = rnd.Uniform(10);
    std::string what;
    if (op == 0) {
      merged->SeekToFirst();
      pos = model.begin();
      what = "SeekToFirst";
    } else if (op == 1) {
      merged->SeekToLast();
      pos = model.empty() ? model.end() : std::prev(model.end());
      what = "SeekToLast";
    } else if (op == 2 || pos == model.end()) {
      const int i = static_cast<int>(rnd.Uniform(215));
      const std::string target = IKey(user_key(i), rnd.Uniform(seq + 1));
      merged->Seek(target);
      pos = model.lower_bound(target);
      what = "Seek";
    } else if (op < 6) {
      merged->Next();
      ++pos;
      what = "Next";
    } else {
      merged->Prev();
      pos = pos == model.begin() ? model.end() : std::prev(pos);
      what = "Prev";
    }
    SCOPED_TRACE("step " + std::to_string(step) + ": " + what);
    ASSERT_EQ(merged->Valid(), pos != model.end());
    if (pos != model.end()) {
      ASSERT_EQ(merged->key().ToString(), pos->first);
      ASSERT_EQ(merged->value().ToString(), pos->second);
    }
  }
  EXPECT_TRUE(merged->status().ok()) << merged->status().ToString();
}

TEST(DBIterTest, NewestVisibleVersionWins) {
  auto* data = new VectorIterator({
      {IKey("k", 3), "newest"},
      {IKey("k", 2), "middle"},
      {IKey("k", 1), "oldest"},
  });
  std::unique_ptr<Iterator> it(
      NewDBIterator(BytewiseComparator(), data, /*sequence=*/2));
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "k");
  EXPECT_EQ(it->value().ToString(), "middle");  // seq 3 invisible at snap 2
  it->Next();
  EXPECT_FALSE(it->Valid());
}

TEST(DBIterTest, TombstoneHidesOlderVersions) {
  auto* data = new VectorIterator({
      {IKey("a", 5), "live"},
      {IKey("b", 4, ValueType::kTypeDeletion), ""},
      {IKey("b", 3), "dead"},
      {IKey("c", 2), "live2"},
  });
  std::unique_ptr<Iterator> it(
      NewDBIterator(BytewiseComparator(), data, kMaxSequenceNumber));
  std::string seen;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    seen += it->key().ToString();
  }
  EXPECT_EQ(seen, "ac");
}

TEST(DBIterTest, SeekSkipsInvisibleAndDeleted) {
  auto* data = new VectorIterator({
      {IKey("a", 9), "too-new"},
      {IKey("b", 2, ValueType::kTypeDeletion), ""},
      {IKey("b", 1), "dead"},
      {IKey("c", 2), "target"},
  });
  std::unique_ptr<Iterator> it(
      NewDBIterator(BytewiseComparator(), data, /*sequence=*/5));
  it->Seek("a");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "c");  // a invisible, b deleted
  EXPECT_EQ(it->value().ToString(), "target");
}

TEST(DBIterTest, PrevFromForwardPosition) {
  auto* data = new VectorIterator({
      {IKey("a", 1), "1"},
      {IKey("b", 2), "2-new"},
      {IKey("b", 1), "2-old"},
      {IKey("c", 1), "3"},
  });
  std::unique_ptr<Iterator> it(
      NewDBIterator(BytewiseComparator(), data, kMaxSequenceNumber));
  it->Seek("c");
  ASSERT_TRUE(it->Valid());
  it->Prev();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "b");
  EXPECT_EQ(it->value().ToString(), "2-new");  // newest version, not oldest
  it->Prev();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "a");
  it->Prev();
  EXPECT_FALSE(it->Valid());
}

}  // namespace
}  // namespace lsmlab
