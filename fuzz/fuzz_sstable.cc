// libFuzzer harness for the whole SSTable read path: the input is treated
// as a complete table file (footer -> index -> data/filter blocks) and
// opened, iterated, and point-probed. Open must reject garbage with a
// Status; anything that opens must iterate and seek without crashing, with
// errors latched in iterator status.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "format/sstable_reader.h"
#include "storage/env.h"
#include "util/hash.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace lsmlab;
  static Env* env = NewMemEnv();

  const std::string input(reinterpret_cast<const char*>(data), size);
  const std::string fname = "/fuzz_table";
  if (!WriteStringToFile(env, input, fname).ok()) return 0;
  std::unique_ptr<RandomAccessFile> file;
  if (!env->NewRandomAccessFile(fname, &file).ok()) return 0;

  TableOptions opts;
  std::unique_ptr<SSTable> table;
  Status s = SSTable::Open(opts, std::move(file), input.size(), 0, nullptr,
                           &table);
  if (!s.ok()) return 0;

  std::unique_ptr<Iterator> it(table->NewIterator());
  int steps = 0;
  for (it->SeekToFirst(); it->Valid() && steps < 10000; it->Next()) {
    it->key();
    it->value();
    steps++;
  }
  it->Seek("k000123");
  it->status().IgnoreError();

  table->KeyMayMatch("k000123", Hash64("k000123", 7));
  table->RangeMayMatch("k000100", "k000200");
  BatchGetContext ctx;
  ctx.target = "k000123";
  ctx.searchable = "k000123";
  ctx.hash = Hash64("k000123");
  ctx.handler = [](void*, const Slice&, const Slice&) {};
  BatchGetContext* const keys[] = {&ctx};
  table->MultiGet(keys, /*use_filter=*/true);
  return 0;
}
