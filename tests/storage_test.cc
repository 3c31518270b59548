#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "storage/env.h"
#include "storage/fault_env.h"

namespace lsmlab {
namespace {

class EnvTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      env_.reset(NewMemEnv());
      dir_ = "/envtest";
    } else {
      env_.reset(NewPosixEnv());
      char tmpl[] = "/tmp/lsmlab_env_XXXXXX";
      dir_ = mkdtemp(tmpl);
    }
    ASSERT_TRUE(env_->CreateDir(dir_).ok());
  }

  void TearDown() override {
    std::vector<std::string> children;
    if (env_->GetChildren(dir_, &children).ok()) {
      for (const auto& c : children) {
        env_->RemoveFile(dir_ + "/" + c).IgnoreError();
      }
    }
  }

  std::unique_ptr<Env> env_;
  std::string dir_;
};

TEST_P(EnvTest, WriteReadRoundtrip) {
  const std::string fname = dir_ + "/f1";
  ASSERT_TRUE(WriteStringToFile(env_.get(), "hello world", fname).ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_.get(), fname, &data).ok());
  EXPECT_EQ(data, "hello world");
}

TEST_P(EnvTest, RandomAccessRead) {
  const std::string fname = dir_ + "/f2";
  ASSERT_TRUE(WriteStringToFile(env_.get(), "0123456789", fname).ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_->NewRandomAccessFile(fname, &file).ok());
  EXPECT_EQ(file->Size(), 10u);
  char scratch[16];
  Slice result;
  ASSERT_TRUE(file->Read(3, 4, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "3456");
  // Read past end returns what's available.
  ASSERT_TRUE(file->Read(8, 10, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "89");
}

TEST_P(EnvTest, FileExistsAndRemove) {
  const std::string fname = dir_ + "/f3";
  EXPECT_FALSE(env_->FileExists(fname));
  ASSERT_TRUE(WriteStringToFile(env_.get(), "x", fname).ok());
  EXPECT_TRUE(env_->FileExists(fname));
  ASSERT_TRUE(env_->RemoveFile(fname).ok());
  EXPECT_FALSE(env_->FileExists(fname));
  EXPECT_FALSE(env_->RemoveFile(fname).ok());
}

TEST_P(EnvTest, GetChildren) {
  ASSERT_TRUE(WriteStringToFile(env_.get(), "1", dir_ + "/a").ok());
  ASSERT_TRUE(WriteStringToFile(env_.get(), "2", dir_ + "/b").ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(dir_, &children).ok());
  std::sort(children.begin(), children.end());
  // POSIX may include . and ..; filter non-plain names.
  std::vector<std::string> plain;
  for (const auto& c : children) {
    if (c == "a" || c == "b") plain.push_back(c);
  }
  EXPECT_EQ(plain.size(), 2u);
}

TEST_P(EnvTest, Rename) {
  ASSERT_TRUE(WriteStringToFile(env_.get(), "data", dir_ + "/src").ok());
  ASSERT_TRUE(env_->RenameFile(dir_ + "/src", dir_ + "/dst").ok());
  EXPECT_FALSE(env_->FileExists(dir_ + "/src"));
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_.get(), dir_ + "/dst", &data).ok());
  EXPECT_EQ(data, "data");
}

TEST_P(EnvTest, GetFileSize) {
  ASSERT_TRUE(WriteStringToFile(env_.get(), std::string(1234, 'x'),
                                dir_ + "/sized").ok());
  uint64_t size = 0;
  ASSERT_TRUE(env_->GetFileSize(dir_ + "/sized", &size).ok());
  EXPECT_EQ(size, 1234u);
}

TEST_P(EnvTest, SequentialReadAndSkip) {
  ASSERT_TRUE(
      WriteStringToFile(env_.get(), "abcdefghij", dir_ + "/seq").ok());
  std::unique_ptr<SequentialFile> file;
  ASSERT_TRUE(env_->NewSequentialFile(dir_ + "/seq", &file).ok());
  char scratch[16];
  Slice result;
  ASSERT_TRUE(file->Read(3, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "abc");
  ASSERT_TRUE(file->Skip(2).ok());
  ASSERT_TRUE(file->Read(3, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "fgh");
}

TEST_P(EnvTest, MissingFileErrors) {
  std::unique_ptr<RandomAccessFile> f;
  EXPECT_TRUE(env_->NewRandomAccessFile(dir_ + "/nope", &f).IsIOError());
  std::unique_ptr<SequentialFile> sf;
  EXPECT_TRUE(env_->NewSequentialFile(dir_ + "/nope", &sf).IsIOError());
}

INSTANTIATE_TEST_SUITE_P(MemAndPosix, EnvTest, ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Mem" : "Posix";
                         });

TEST(IoStatsTest, CountsBlockGranularity) {
  std::unique_ptr<Env> env(NewMemEnv());
  ASSERT_TRUE(
      WriteStringToFile(env.get(), std::string(20000, 'x'), "/f").ok());
  env->io_stats()->Reset();

  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env->NewRandomAccessFile("/f", &file).ok());
  char scratch[8192];
  Slice result;

  // A 100-byte read within one 4K block counts as 1 block read.
  ASSERT_TRUE(file->Read(0, 100, &result, scratch).ok());
  EXPECT_EQ(env->io_stats()->block_reads.load(), 1u);

  // A read spanning a block boundary counts as 2.
  ASSERT_TRUE(file->Read(4000, 200, &result, scratch).ok());
  EXPECT_EQ(env->io_stats()->block_reads.load(), 3u);

  EXPECT_EQ(env->io_stats()->bytes_read.load(), 300u);
}

TEST(IoStatsTest, WritesChargedInBlocks) {
  std::unique_ptr<Env> env(NewMemEnv());
  env->io_stats()->Reset();
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile("/w", &file).ok());
  ASSERT_TRUE(file->Append(std::string(10000, 'y')).ok());
  EXPECT_EQ(env->io_stats()->block_writes.load(), 3u);  // ceil(10000/4096)
  EXPECT_EQ(env->io_stats()->bytes_written.load(), 10000u);
}

// MemEnv's files are memory: the live-bytes gauge counts every buffer not
// yet freed, a removed file's too while a reader keeps it open, and its
// high-water mark restarts from the gauge on Reset.
TEST(IoStatsTest, LiveFileBytesFollowBuffers) {
  std::unique_ptr<Env> env(NewMemEnv());
  IoStats* stats = env->io_stats();
  EXPECT_EQ(stats->live_file_bytes.load(), 0u);
  ASSERT_TRUE(WriteStringToFile(env.get(), std::string(3000, 'a'), "/a").ok());
  ASSERT_TRUE(WriteStringToFile(env.get(), std::string(1000, 'b'), "/b").ok());
  EXPECT_EQ(stats->live_file_bytes.load(), 4000u);
  EXPECT_EQ(stats->live_file_bytes_peak.load(), 4000u);

  std::unique_ptr<RandomAccessFile> reader;
  ASSERT_TRUE(env->NewRandomAccessFile("/a", &reader).ok());
  ASSERT_TRUE(env->RemoveFile("/a").ok());
  EXPECT_EQ(stats->live_file_bytes.load(), 4000u);  // still open
  reader.reset();
  EXPECT_EQ(stats->live_file_bytes.load(), 1000u);

  // Truncate-on-open frees the old buffer.
  std::unique_ptr<WritableFile> writer;
  ASSERT_TRUE(env->NewWritableFile("/b", &writer).ok());
  EXPECT_EQ(stats->live_file_bytes.load(), 0u);
  ASSERT_TRUE(writer->Append(std::string(500, 'c')).ok());
  writer.reset();
  EXPECT_EQ(stats->live_file_bytes.load(), 500u);
  EXPECT_EQ(stats->live_file_bytes_peak.load(), 4000u);

  stats->Reset();
  EXPECT_EQ(stats->live_file_bytes.load(), 500u);
  EXPECT_EQ(stats->live_file_bytes_peak.load(), 500u);
  ASSERT_TRUE(env->RemoveFile("/b").ok());
  EXPECT_EQ(stats->live_file_bytes.load(), 0u);
  EXPECT_NE(stats->ToString().find("live_file_bytes=0 "), std::string::npos)
      << stats->ToString();
  EXPECT_NE(stats->ToString().find("live_file_bytes_peak=500"),
            std::string::npos)
      << stats->ToString();
}

TEST(MemEnvTest, UnlinkedFileStaysReadable) {
  // POSIX semantics: an open reader survives file removal.
  std::unique_ptr<Env> env(NewMemEnv());
  ASSERT_TRUE(WriteStringToFile(env.get(), "still here", "/ghost").ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env->NewRandomAccessFile("/ghost", &file).ok());
  ASSERT_TRUE(env->RemoveFile("/ghost").ok());
  char scratch[16];
  Slice result;
  ASSERT_TRUE(file->Read(0, 10, &result, scratch).ok());
  EXPECT_EQ(result.ToString(), "still here");
}

TEST(MemEnvTest, TruncateOnReopen) {
  std::unique_ptr<Env> env(NewMemEnv());
  ASSERT_TRUE(WriteStringToFile(env.get(), "long content", "/t").ok());
  ASSERT_TRUE(WriteStringToFile(env.get(), "short", "/t").ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(env.get(), "/t", &data).ok());
  EXPECT_EQ(data, "short");
}

// ------------------------------------------------- FaultInjectionEnv --

class FaultEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_.reset(NewMemEnv());
    env_ = std::make_unique<FaultInjectionEnv>(base_.get());
  }

  std::unique_ptr<Env> base_;
  std::unique_ptr<FaultInjectionEnv> env_;
};

TEST_F(FaultEnvTest, UnsyncedFileVanishesOnCrash) {
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env_->NewWritableFile("/a", &f).ok());
  ASSERT_TRUE(f->Append("data").ok());
  ASSERT_TRUE(f->Close().ok());
  ASSERT_TRUE(env_->Crash().ok());
  EXPECT_FALSE(env_->FileExists("/a"));
}

TEST_F(FaultEnvTest, SyncedPrefixSurvivesCrash) {
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env_->NewWritableFile("/a", &f).ok());
  ASSERT_TRUE(f->Append("durable").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Append("-volatile").ok());
  ASSERT_TRUE(f->Close().ok());
  ASSERT_TRUE(env_->Crash().ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_.get(), "/a", &data).ok());
  EXPECT_EQ(data, "durable");
}

TEST_F(FaultEnvTest, UntrackedFilesAreDurable) {
  // Files created before the fault env (or via the base env) are presumed
  // already on stable storage.
  ASSERT_TRUE(WriteStringToFile(base_.get(), "old", "/pre").ok());
  ASSERT_TRUE(env_->Crash().ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_.get(), "/pre", &data).ok());
  EXPECT_EQ(data, "old");
}

TEST_F(FaultEnvTest, RenameCarriesDurabilityState) {
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env_->NewWritableFile("/src", &f).ok());
  ASSERT_TRUE(f->Append("x").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Append("tail").ok());
  ASSERT_TRUE(f->Close().ok());
  ASSERT_TRUE(env_->RenameFile("/src", "/dst").ok());
  ASSERT_TRUE(env_->Crash().ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_.get(), "/dst", &data).ok());
  EXPECT_EQ(data, "x");
}

// After Kill, the dead process's teardown cannot sync its tail; Crash then
// rolls back to what was synced before and lets the next process write.
TEST_F(FaultEnvTest, KillFailsWritesUntilCrash) {
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env_->NewWritableFile("/a", &f).ok());
  ASSERT_TRUE(f->Append("durable").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Append("-tail").ok());
  env_->Kill();
  EXPECT_TRUE(f->Sync().IsIOError());
  EXPECT_TRUE(f->Append("more").IsIOError());
  ASSERT_TRUE(f->Close().ok());
  ASSERT_TRUE(env_->Crash().ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_.get(), "/a", &data).ok());
  EXPECT_EQ(data, "durable");
  ASSERT_TRUE(env_->NewWritableFile("/b", &f).ok());
  EXPECT_TRUE(f->Append("alive").ok());
  EXPECT_TRUE(f->Sync().ok());
}

TEST_F(FaultEnvTest, MarkSyncedCheckpointsEverything) {
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(env_->NewWritableFile("/a", &f).ok());
  ASSERT_TRUE(f->Append("never-synced-but-checkpointed").ok());
  ASSERT_TRUE(f->Close().ok());
  env_->MarkSynced();
  ASSERT_TRUE(env_->Crash().ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(env_.get(), "/a", &data).ok());
  EXPECT_EQ(data, "never-synced-but-checkpointed");
}

}  // namespace
}  // namespace lsmlab
