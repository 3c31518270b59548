// libFuzzer harness for WAL record framing: the input is a log file image
// read back record by record. The reader must terminate (no unbounded
// resync loops), never crash, and report drops through status() only.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "storage/env.h"
#include "wal/log_reader.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace lsmlab;
  static Env* env = NewMemEnv();

  const std::string input(reinterpret_cast<const char*>(data), size);
  const std::string fname = "/fuzz_wal";
  if (!WriteStringToFile(env, input, fname).ok()) return 0;
  std::unique_ptr<SequentialFile> file;
  if (!env->NewSequentialFile(fname, &file).ok()) return 0;

  wal::Reader reader(file.get());
  Slice record;
  std::string scratch;
  int records = 0;
  while (reader.ReadRecord(&record, &scratch) && records++ < 100000) {
  }
  return 0;
}
