// libFuzzer harness for the block parser: arbitrary bytes are handed to
// Block as a full block image and exhaustively iterated and probed. The
// corruption contract (DESIGN.md "Corruption safety contract") requires
// every outcome to be a latched Corruption status or an empty iterator —
// never a crash, sanitizer report, or unbounded loop.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "format/block.h"
#include "util/comparator.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace lsmlab;
  BlockContents contents = BlockContents::CopyOf(
      Slice(reinterpret_cast<const char*>(data), size));
  Block block(std::move(contents));

  std::unique_ptr<Iterator> it(block.NewIterator(BytewiseComparator()));
  int steps = 0;
  for (it->SeekToFirst(); it->Valid() && steps < 10000; it->Next()) {
    it->key();
    it->value();
    steps++;
  }
  it->Seek("probe-key");
  if (it->Valid()) {
    it->Next();
    if (it->Valid()) it->Prev();
  }
  it->SeekToLast();
  steps = 0;
  while (it->Valid() && steps++ < 1000) {
    it->Prev();
  }
  it->status().IgnoreError();

  uint32_t restart;
  block.HashLookup(0x12345678u, &restart);
  return 0;
}
