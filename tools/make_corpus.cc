// Regenerates the libFuzzer seed corpora under fuzz/corpora/. Each seed is
// a structurally valid artifact built with the library's own writers (plus
// a few deterministic pseudo-random inputs from tests/fuzz_inputs.h), so
// the fuzzers start from deep coverage instead of rediscovering the wire
// formats byte by byte.
//
// Usage: make_corpus <corpora-dir>      (typically fuzz/corpora)

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/version.h"
#include "core/write_batch.h"
#include "filter/filter_policy.h"
#include "format/block_builder.h"
#include "format/sstable_builder.h"
#include "rangefilter/range_filter.h"
#include "storage/env.h"
#include "tests/fuzz_inputs.h"
#include "wal/log_writer.h"
#include "workload/keygen.h"

namespace lsmlab {
namespace {

void WriteSeed(const std::string& dir, const std::string& target,
               const std::string& name, const std::string& contents) {
  const std::filesystem::path path =
      std::filesystem::path(dir) / target / name;
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    std::exit(1);
  }
}

/// A handful of small deterministic pseudo-random seeds so each fuzzer's
/// corpus also covers non-structured byte shapes.
void WriteRandomSeeds(const std::string& dir, const std::string& target,
                      uint64_t seed) {
  int i = 0;
  for (const std::string& input : FuzzInputs(seed, 3)) {
    if (input.size() > 512) continue;  // keep checked-in seeds small
    char name[32];
    std::snprintf(name, sizeof(name), "random-%02d", i++);
    WriteSeed(dir, target, name, input);
  }
}

std::string BuildBlock(bool hash_index) {
  TableOptions opts;
  opts.use_hash_index = hash_index;
  BlockBuilder builder(&opts);
  for (int i = 0; i < 40; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    builder.Add(key, "value");
  }
  return builder.Finish().ToString();
}

std::string BuildTable(Env* env) {
  TableOptions opts;
  opts.block_size = 256;
  std::unique_ptr<WritableFile> file;
  if (!env->NewWritableFile("/seed_table", &file).ok()) std::exit(1);
  SSTableBuilder builder(opts, file.get());
  for (int i = 0; i < 60; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    builder.Add(key, "value");
  }
  if (!builder.Finish().ok()) std::exit(1);
  std::string contents;
  if (!ReadFileToString(env, "/seed_table", &contents).ok()) std::exit(1);
  return contents;
}

std::string BuildWal(Env* env) {
  std::unique_ptr<WritableFile> file;
  if (!env->NewWritableFile("/seed_wal", &file).ok()) std::exit(1);
  wal::Writer writer(file.get());
  writer.AddRecord("small record").IgnoreError();
  writer.AddRecord(std::string(300, 'x')).IgnoreError();
  writer.AddRecord("").IgnoreError();
  std::string contents;
  if (!ReadFileToString(env, "/seed_wal", &contents).ok()) std::exit(1);
  return contents;
}

std::string BuildVersionEdit() {
  VersionEdit edit;
  edit.SetLogNumber(7);
  edit.SetNextFileNumber(12);
  edit.SetLastSequence(99);
  FileMetaData meta;
  meta.number = 11;
  meta.file_size = 4096;
  meta.smallest = "aaa";
  meta.largest = "zzz";
  edit.AddFile(1, /*run_seq=*/3, meta);
  std::string encoded;
  edit.EncodeTo(&encoded);
  return encoded;
}

std::string BuildWriteBatch() {
  WriteBatch batch;
  batch.Put("key-one", "value-one");
  batch.Delete("key-two");
  batch.Put("key-three", std::string(100, 'v'));
  return batch.Contents().ToString();
}

void BuildFilterSeeds(const std::string& dir) {
  std::vector<std::string> key_storage;
  for (int i = 0; i < 50; i++) {
    key_storage.push_back(EncodeKey(static_cast<uint64_t>(i) * 7));
  }
  std::vector<Slice> keys(key_storage.begin(), key_storage.end());

  // The policy index prefix byte must match fuzz_filter.cc's ordering:
  // point policies 0-4, range policies 5-8.
  std::vector<std::unique_ptr<const FilterPolicy>> point;
  point.emplace_back(NewBloomFilterPolicy(10));
  point.emplace_back(NewBlockedBloomFilterPolicy(10));
  point.emplace_back(NewCuckooFilterPolicy(12));
  point.emplace_back(NewRibbonFilterPolicy(10));
  point.emplace_back(NewElasticBloomFilterPolicy(12, 4, 2));
  for (size_t p = 0; p < point.size(); p++) {
    std::string seed(1, static_cast<char>(p));
    point[p]->CreateFilter(keys.data(), keys.size(), &seed);
    char name[32];
    std::snprintf(name, sizeof(name), "point-%02zu", p);
    WriteSeed(dir, "fuzz_filter", name, seed);
  }

  std::vector<std::unique_ptr<const RangeFilterPolicy>> range;
  range.emplace_back(NewPrefixBloomRangeFilter(6, 10));
  range.emplace_back(NewSurfRangeFilter(8));
  range.emplace_back(NewRosettaRangeFilter(20, 24));
  range.emplace_back(NewSnarfRangeFilter(10));
  for (size_t p = 0; p < range.size(); p++) {
    std::string seed(1, static_cast<char>(point.size() + p));
    range[p]->CreateFilter(keys, &seed);
    char name[32];
    std::snprintf(name, sizeof(name), "range-%02zu", p);
    WriteSeed(dir, "fuzz_filter", name, seed);
  }
}

int MakeCorpus(const std::string& dir) {
  std::unique_ptr<Env> env(NewMemEnv());

  WriteSeed(dir, "fuzz_block", "plain-block", BuildBlock(false));
  WriteSeed(dir, "fuzz_block", "hash-index-block", BuildBlock(true));
  WriteRandomSeeds(dir, "fuzz_block", 101);

  WriteSeed(dir, "fuzz_sstable", "small-table", BuildTable(env.get()));
  WriteRandomSeeds(dir, "fuzz_sstable", 102);

  WriteSeed(dir, "fuzz_wal_record", "three-records", BuildWal(env.get()));
  WriteRandomSeeds(dir, "fuzz_wal_record", 103);

  WriteSeed(dir, "fuzz_version_edit", "add-file", BuildVersionEdit());
  WriteRandomSeeds(dir, "fuzz_version_edit", 104);

  WriteSeed(dir, "fuzz_write_batch", "put-delete-put", BuildWriteBatch());
  WriteRandomSeeds(dir, "fuzz_write_batch", 105);

  BuildFilterSeeds(dir);
  WriteRandomSeeds(dir, "fuzz_filter", 106);

  std::printf("wrote seed corpora under %s\n", dir.c_str());
  return 0;
}

}  // namespace
}  // namespace lsmlab

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpora-dir>\n", argv[0]);
    return 1;
  }
  return lsmlab::MakeCorpus(argv[1]);
}
