// Exhaustive single-byte corruption and truncation sweeps over every
// persistent artifact: SSTable, WAL, and MANIFEST. This is the
// deterministic, gcc-runnable half of the corruption contract (the
// libFuzzer harnesses in fuzz/ are the coverage-guided half): every
// possible single-byte flip and every truncation must surface as a clean
// Status — ok, NotFound, or Corruption — never a crash, hang, or
// out-of-bounds access.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/db.h"
#include "core/db_impl.h"
#include "core/filename.h"
#include "format/sstable_builder.h"
#include "format/sstable_reader.h"
#include "obs/event_listener.h"
#include "storage/env.h"
#include "util/hash.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"

namespace lsmlab {
namespace {

/// Statuses a reader of corrupt bytes is allowed to return. NotSupported
/// covers a flipped footer-version byte, which is indistinguishable from a
/// file written by a newer format revision.
::testing::AssertionResult CleanStatus(const Status& s) {
  if (s.ok() || s.IsNotFound() || s.IsCorruption() || s.IsNotSupported()) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "unexpected status class: " << s.ToString();
}

std::string TestKey(int i) {
  char key[16];
  std::snprintf(key, sizeof(key), "k%06d", i);
  return key;
}

// ---------------------------------------------------------------------------
// SSTable sweep
// ---------------------------------------------------------------------------

/// Point-probes `key` through SSTable::MultiGet, a batch of one, and
/// returns the key's status.
Status ProbeKey(const SSTable& table, const std::string& key) {
  BatchGetContext ctx;
  ctx.target = key;
  ctx.searchable = key;
  ctx.hash = Hash64(key);
  ctx.handler = [](void*, const Slice&, const Slice&) {};
  BatchGetContext* const keys[] = {&ctx};
  table.MultiGet(keys, /*use_filter=*/true);
  return ctx.status;
}

std::string BuildTableImage(Env* env, const TableOptions& opts, int entries) {
  std::unique_ptr<WritableFile> file;
  EXPECT_TRUE(env->NewWritableFile("/good", &file).ok());
  SSTableBuilder builder(opts, file.get());
  for (int i = 0; i < entries; i++) {
    builder.Add(TestKey(i), "value");
  }
  EXPECT_TRUE(builder.Finish().ok());
  std::string image;
  EXPECT_TRUE(ReadFileToString(env, "/good", &image).ok());
  return image;
}

/// Opens `image` as a table and exercises open/iterate/seek/get; every
/// status surfaced must be a clean one.
void ExerciseTable(Env* env, const TableOptions& opts,
                   const std::string& image, const std::string& context) {
  ASSERT_TRUE(WriteStringToFile(env, image, "/probe").ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env->NewRandomAccessFile("/probe", &file).ok());
  std::unique_ptr<SSTable> table;
  Status s =
      SSTable::Open(opts, std::move(file), image.size(), 1, nullptr, &table);
  EXPECT_TRUE(CleanStatus(s)) << context;
  if (!s.ok()) {
    return;
  }
  std::unique_ptr<Iterator> it(table->NewIterator());
  int steps = 0;
  for (it->SeekToFirst(); it->Valid() && steps < 5000; it->Next()) {
    it->key();
    it->value();
    steps++;
  }
  EXPECT_TRUE(CleanStatus(it->status())) << context;
  it->Seek(TestKey(17));
  EXPECT_TRUE(CleanStatus(it->status())) << context;
  EXPECT_TRUE(CleanStatus(ProbeKey(*table, TestKey(17)))) << context;
}

TEST(CorruptionTest, SSTableEveryByteFlip) {
  std::unique_ptr<Env> env(NewMemEnv());
  TableOptions opts;
  opts.block_size = 256;
  const std::string good = BuildTableImage(env.get(), opts, 60);
  ASSERT_GT(good.size(), 0u);

  for (size_t pos = 0; pos < good.size(); pos++) {
    for (const unsigned char pattern : {0x01, 0x80, 0xff}) {
      std::string bad = good;
      bad[pos] = static_cast<char>(bad[pos] ^ pattern);
      ExerciseTable(env.get(), opts, bad,
                    "flip at offset " + std::to_string(pos));
    }
  }
}

TEST(CorruptionTest, SSTableEveryTruncation) {
  std::unique_ptr<Env> env(NewMemEnv());
  TableOptions opts;
  opts.block_size = 256;
  const std::string good = BuildTableImage(env.get(), opts, 60);

  for (size_t len = 0; len < good.size(); len++) {
    ExerciseTable(env.get(), opts, good.substr(0, len),
                  "truncation to " + std::to_string(len));
  }
}

// ---------------------------------------------------------------------------
// WAL sweep
// ---------------------------------------------------------------------------

std::string BuildWalImage(Env* env) {
  std::unique_ptr<WritableFile> file;
  EXPECT_TRUE(env->NewWritableFile("/goodwal", &file).ok());
  wal::Writer writer(file.get());
  EXPECT_TRUE(writer.AddRecord("first record").ok());
  EXPECT_TRUE(writer.AddRecord(std::string(500, 'x')).ok());
  EXPECT_TRUE(writer.AddRecord("last record").ok());
  std::string image;
  EXPECT_TRUE(ReadFileToString(env, "/goodwal", &image).ok());
  return image;
}

/// Reads every record out of `image`; corrupt bytes may drop records (the
/// reader's status() then names the first) but must never crash or loop
/// forever.
void ExerciseWal(Env* env, const std::string& image,
                 const std::string& context) {
  ASSERT_TRUE(WriteStringToFile(env, image, "/probewal").ok());
  std::unique_ptr<SequentialFile> file;
  ASSERT_TRUE(env->NewSequentialFile("/probewal", &file).ok());
  wal::Reader reader(file.get());
  Slice record;
  std::string scratch;
  int records = 0;
  while (reader.ReadRecord(&record, &scratch)) {
    ASSERT_LT(records++, 1000) << "reader failed to terminate: " << context;
  }
  EXPECT_LE(records, 3) << context;
  EXPECT_TRUE(reader.status().ok() || reader.status().IsCorruption())
      << context;
}

TEST(CorruptionTest, WalEveryByteFlip) {
  std::unique_ptr<Env> env(NewMemEnv());
  const std::string good = BuildWalImage(env.get());
  ASSERT_GT(good.size(), 0u);

  for (size_t pos = 0; pos < good.size(); pos++) {
    for (const unsigned char pattern : {0x01, 0x80, 0xff}) {
      std::string bad = good;
      bad[pos] = static_cast<char>(bad[pos] ^ pattern);
      ExerciseWal(env.get(), bad, "flip at offset " + std::to_string(pos));
    }
  }
}

TEST(CorruptionTest, WalEveryTruncation) {
  std::unique_ptr<Env> env(NewMemEnv());
  const std::string good = BuildWalImage(env.get());

  for (size_t len = 0; len < good.size(); len++) {
    ExerciseWal(env.get(), good.substr(0, len),
                "truncation to " + std::to_string(len));
  }
}

// ---------------------------------------------------------------------------
// MANIFEST sweep
// ---------------------------------------------------------------------------

/// Builds a small DB, then returns a snapshot of all its files plus the
/// manifest's name.
std::map<std::string, std::string> BuildDbSnapshot(Env* env,
                                                   const std::string& dbname,
                                                   std::string* manifest) {
  Options options;
  options.env = env;
  {
    std::unique_ptr<DB> db;
    EXPECT_TRUE(DB::Open(options, dbname, &db).ok());
    for (int i = 0; i < 20; i++) {
      EXPECT_TRUE(db->Put(WriteOptions(), TestKey(i), "value").ok());
    }
    EXPECT_TRUE(db->Flush().ok());
  }
  std::map<std::string, std::string> files;
  std::vector<std::string> children;
  EXPECT_TRUE(env->GetChildren(dbname, &children).ok());
  for (const std::string& child : children) {
    std::string contents;
    EXPECT_TRUE(
        ReadFileToString(env, dbname + "/" + child, &contents).ok());
    files[child] = contents;
    if (child.rfind("MANIFEST", 0) == 0) {
      *manifest = child;
    }
  }
  return files;
}

/// Restores `files` (with `manifest` replaced by `image`) into a fresh
/// directory and opens the DB there; recovery must return a clean status
/// and, when it succeeds, reads must return clean statuses too.
void ExerciseRecovery(const std::map<std::string, std::string>& files,
                      const std::string& manifest, const std::string& image,
                      int trial, const std::string& context) {
  std::unique_ptr<Env> env(NewMemEnv());
  const std::string dbname = "/sweep" + std::to_string(trial);
  ASSERT_TRUE(env->CreateDir(dbname).ok());
  for (const auto& [name, contents] : files) {
    const std::string& data = (name == manifest) ? image : contents;
    ASSERT_TRUE(WriteStringToFile(env.get(), data, dbname + "/" + name).ok());
  }
  Options options;
  options.env = env.get();
  options.create_if_missing = false;
  std::unique_ptr<DB> db;
  Status s = DB::Open(options, dbname, &db);
  EXPECT_TRUE(CleanStatus(s)) << context;
  if (!s.ok()) {
    return;
  }
  std::string value;
  EXPECT_TRUE(CleanStatus(db->Get(ReadOptions(), TestKey(7), &value)))
      << context;
  std::vector<std::pair<std::string, std::string>> results;
  EXPECT_TRUE(CleanStatus(
      db->Scan(ReadOptions(), TestKey(0), TestKey(19), 50, &results)))
      << context;
}

TEST(CorruptionTest, ManifestEveryByteFlip) {
  std::unique_ptr<Env> env(NewMemEnv());
  std::string manifest;
  const auto files = BuildDbSnapshot(env.get(), "/golden", &manifest);
  ASSERT_FALSE(manifest.empty());
  const std::string good = files.at(manifest);
  ASSERT_GT(good.size(), 0u);

  int trial = 0;
  for (size_t pos = 0; pos < good.size(); pos++) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0xff);
    ExerciseRecovery(files, manifest, bad, trial++,
                     "flip at offset " + std::to_string(pos));
  }
}

TEST(CorruptionTest, ManifestEveryTruncation) {
  std::unique_ptr<Env> env(NewMemEnv());
  std::string manifest;
  const auto files = BuildDbSnapshot(env.get(), "/golden", &manifest);
  ASSERT_FALSE(manifest.empty());
  const std::string good = files.at(manifest);

  int trial = 0;
  for (size_t len = 0; len < good.size(); len++) {
    ExerciseRecovery(files, manifest, good.substr(0, len), trial++,
                     "truncation to " + std::to_string(len));
  }
}

// ---------------------------------------------------------------------------
// Compaction over a corrupt input
// ---------------------------------------------------------------------------

/// Keeps the outputs of the last successful compaction, in key order, and
/// those a failed one installed before it failed.
class CompactionOutputRecorder : public EventListener {
 public:
  void OnCompactionEnd(const CompactionJobInfo& info) override {
    if (info.status.ok()) {
      output_level = info.output_level;
      outputs = info.outputs;
    } else {
      installed_before_failure = info.outputs;
    }
  }

  int output_level = -1;
  std::vector<TableFileInfo> outputs;
  std::vector<TableFileInfo> installed_before_failure;
};

std::set<std::string> TableFiles(Env* env, const std::string& dbname) {
  std::vector<std::string> children;
  EXPECT_TRUE(env->GetChildren(dbname, &children).ok());
  std::set<std::string> tables;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) && type == FileType::kTableFile) {
      tables.insert(child);
    }
  }
  return tables;
}

/// Builds an L1 run of at least eight files under a newer L0 run spanning
/// it, flips a byte in the first data block of the run's file `victim`
/// (counted from the end when negative), and compacts the two runs with
/// `helpers` subcompaction helper threads. The compaction must fail. The
/// subranges it installed before the failure stay, the tree keeps serving
/// every intact key, and the outputs built but never installed are swept
/// as orphans on the next open.
void CompactOverCorruptInput(int victim, int helpers) {
  std::unique_ptr<Env> env(NewMemEnv());
  auto recorder = std::make_shared<CompactionOutputRecorder>();
  Options options;
  options.env = env.get();
  options.write_buffer_size = 16 << 10;
  options.max_file_size = 8 << 10;
  options.listeners.push_back(recorder);
  const std::string dbname = "/lazy";
  const std::string old_value(40, 'o');
  const int kKeys = 2000;
  std::vector<TableFileInfo> run;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
    for (int i = 0; i < kKeys; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), old_value).ok());
    }
    ASSERT_TRUE(db->CompactAll().ok());
    ASSERT_EQ(recorder->output_level, 1) << db->DebugShape();
    run = recorder->outputs;
    // Eight 8 KiB files: at least two subranges of 4 x max_file_size.
    ASSERT_GE(run.size(), 8u) << db->DebugShape();
    // A newer L0 run spanning the whole key range, so the next CompactAll
    // merges it with every file of the L1 run.
    for (int i = 0; i < kKeys; i += 50) {
      ASSERT_TRUE(db->Put(WriteOptions(), TestKey(i), "new").ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_EQ(db->GetStats().total_runs, 2) << db->DebugShape();
  }

  const TableFileInfo& bad = run[victim >= 0 ? victim : run.size() + victim];
  const std::string victim_name = TableFileName(dbname, bad.file_number);
  std::string image;
  ASSERT_TRUE(ReadFileToString(env.get(), victim_name, &image).ok());
  image[10] = static_cast<char>(image[10] ^ 0xff);
  ASSERT_TRUE(WriteStringToFile(env.get(), image, victim_name).ok());

  const std::set<std::string> tables_before = TableFiles(env.get(), dbname);
  auto expect_intact_reads = [&](DB* db) {
    std::string value;
    for (int i = 0; i < kKeys; i += 50) {
      ASSERT_TRUE(db->Get(ReadOptions(), TestKey(i), &value).ok()) << i;
      EXPECT_EQ(value, "new") << i;
    }
    // Every key of the run's first file, which is intact.
    for (int i = 0; i < kKeys && TestKey(i) <= run[0].largest_user_key;
         i++) {
      ASSERT_TRUE(db->Get(ReadOptions(), TestKey(i), &value).ok()) << i;
      EXPECT_EQ(value, i % 50 == 0 ? "new" : old_value) << i;
    }
  };
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
    if (helpers >= 0) {
      static_cast<DBImpl*>(db.get())->TEST_SetSubcompactionHelpers(helpers);
    }
    const std::string shape = db->DebugShape();
    const Status s = db->CompactAll();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    if (recorder->installed_before_failure.empty()) {
      EXPECT_EQ(db->DebugShape(), shape);
    }
    // One thread builds the subranges in key order and installs each
    // before the next starts, so a corrupt last file leaves an installed
    // prefix.
    if (victim < 0 && helpers == 0) {
      EXPECT_FALSE(recorder->installed_before_failure.empty())
          << db->DebugShape();
    }
    expect_intact_reads(db.get());
  }
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
    const std::set<std::string> tables = TableFiles(env.get(), dbname);
    EXPECT_EQ(tables.size(),
              static_cast<size_t>(db->GetStats().total_files))
        << db->DebugShape();
    EXPECT_EQ(tables.count(victim_name.substr(dbname.size() + 1)), 1u);
    for (const TableFileInfo& t : recorder->installed_before_failure) {
      const std::string name = TableFileName(dbname, t.file_number);
      EXPECT_EQ(tables.count(name.substr(dbname.size() + 1)), 1u) << name;
    }
    if (recorder->installed_before_failure.empty()) {
      EXPECT_EQ(tables, tables_before);
    }
    expect_intact_reads(db.get());
  }
}

// A compaction reads each input run through one iterator that opens the
// run's tables only as the merge reaches them. A corrupt data block in a
// table opened that late must still fail the whole compaction.
TEST(CorruptionTest, CompactionFailsOnLazilyOpenedCorruptInput) {
  CompactOverCorruptInput(/*victim=*/1, /*helpers=*/-1);
}

// The merge above is cut into subranges (one per 4 x max_file_size of
// input). A corrupt block in the run's last file is read only by the last
// subrange, after (serially) or while (with helpers) the others build
// and install their outputs; it still fails the compaction.
TEST(CorruptionTest, CompactionFailsOnCorruptInputOfLaterSubrange) {
  for (const int helpers : {0, 3}) {
    SCOPED_TRACE(helpers);
    CompactOverCorruptInput(/*victim=*/-1, helpers);
  }
}

}  // namespace
}  // namespace lsmlab
