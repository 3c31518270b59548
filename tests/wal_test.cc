#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "storage/env.h"
#include "util/random.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"

namespace lsmlab {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override { env_.reset(NewMemEnv()); }

  void WriteRecords(const std::vector<std::string>& records) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile("/wal", &file).ok());
    wal::Writer writer(file.get());
    for (const auto& r : records) {
      ASSERT_TRUE(writer.AddRecord(r).ok());
    }
    ASSERT_TRUE(file->Close().ok());
  }

  /// Every record the reader returns; *status (when given) is the
  /// reader's status() after the last one: the first corruption skipped.
  std::vector<std::string> ReadRecords(Status* status = nullptr) {
    std::unique_ptr<SequentialFile> file;
    EXPECT_TRUE(env_->NewSequentialFile("/wal", &file).ok());
    wal::Reader reader(file.get());
    std::vector<std::string> result;
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      result.push_back(record.ToString());
    }
    EXPECT_TRUE(reader.status().ok() || reader.status().IsCorruption());
    if (status != nullptr) {
      *status = reader.status();
    }
    return result;
  }

  void CorruptByte(size_t offset, char xor_mask) {
    std::string data;
    ASSERT_TRUE(ReadFileToString(env_.get(), "/wal", &data).ok());
    ASSERT_LT(offset, data.size());
    data[offset] ^= xor_mask;
    ASSERT_TRUE(WriteStringToFile(env_.get(), data, "/wal").ok());
  }

  void Truncate(size_t new_size) {
    std::string data;
    ASSERT_TRUE(ReadFileToString(env_.get(), "/wal", &data).ok());
    data.resize(new_size);
    ASSERT_TRUE(WriteStringToFile(env_.get(), data, "/wal").ok());
  }

  std::unique_ptr<Env> env_;
};

TEST_F(WalTest, Roundtrip) {
  WriteRecords({"one", "two", "three"});
  EXPECT_EQ(ReadRecords(), (std::vector<std::string>{"one", "two", "three"}));
}

TEST_F(WalTest, EmptyLog) {
  WriteRecords({});
  EXPECT_TRUE(ReadRecords().empty());
}

TEST_F(WalTest, EmptyRecordAllowed) {
  WriteRecords({"", "x", ""});
  EXPECT_EQ(ReadRecords(), (std::vector<std::string>{"", "x", ""}));
}

TEST_F(WalTest, LargeRecordsFragmentAcrossBlocks) {
  // Records larger than the 32 KiB block must be split and reassembled.
  Random rng(1);
  std::vector<std::string> records;
  for (size_t size : {100u, 40000u, 100000u, 32768u, 32761u}) {
    std::string r;
    r.reserve(size);
    while (r.size() < size) {
      r.push_back(static_cast<char>(rng.Next() & 0xff));
    }
    records.push_back(std::move(r));
  }
  WriteRecords(records);
  EXPECT_EQ(ReadRecords(), records);
}

TEST_F(WalTest, ManySmallRecordsCrossBlockBoundaries) {
  std::vector<std::string> records;
  for (int i = 0; i < 10000; i++) {
    records.push_back("record-" + std::to_string(i));
  }
  WriteRecords(records);
  EXPECT_EQ(ReadRecords(), records);
}

TEST_F(WalTest, TornTailIsDroppedSilently) {
  WriteRecords({"complete", std::string(50000, 'x')});
  // Chop the file mid-way through the second (fragmented) record.
  Truncate(40000);
  Status status;
  const auto records = ReadRecords(&status);
  EXPECT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "complete");
}

TEST_F(WalTest, CorruptRecordSkippedAndReported) {
  WriteRecords({"first", "second", "third"});
  // Corrupt the payload of the second record: header(7)+5 for "first",
  // then the second header starts; flip a payload byte of record 2.
  CorruptByte(7 + 5 + 7 + 2, 0x40);
  Status status;
  const auto records = ReadRecords(&status);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  // First record always survives; third may or may not be recovered
  // depending on resynchronization, but "second" must not appear corrupted.
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records[0], "first");
  for (const auto& r : records) {
    EXPECT_NE(r, std::string("seVond"));
  }
}

TEST_F(WalTest, BinaryPayloadSafe) {
  std::string payload;
  for (int i = 0; i < 256; i++) {
    payload.push_back(static_cast<char>(i));
  }
  WriteRecords({payload});
  const auto records = ReadRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], payload);
}

TEST_F(WalTest, ExactBlockBoundaryPadding) {
  // A record sized so the next header would not fit in the block tail.
  const size_t first = wal::kBlockSize - wal::kHeaderSize - 3;
  WriteRecords({std::string(first, 'a'), "next"});
  const auto records = ReadRecords();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].size(), first);
  EXPECT_EQ(records[1], "next");
}

}  // namespace
}  // namespace lsmlab
