#include "storage/io_stats.h"

#include <cstdio>

namespace lsmlab {

std::string IoStats::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "block_reads=%llu block_writes=%llu bytes_read=%llu bytes_written=%llu "
      "syncs=%llu live_file_bytes=%llu live_file_bytes_peak=%llu",
      static_cast<unsigned long long>(block_reads.load()),
      static_cast<unsigned long long>(block_writes.load()),
      static_cast<unsigned long long>(bytes_read.load()),
      static_cast<unsigned long long>(bytes_written.load()),
      static_cast<unsigned long long>(syncs.load()),
      static_cast<unsigned long long>(live_file_bytes.load()),
      static_cast<unsigned long long>(live_file_bytes_peak.load()));
  return buf;
}

}  // namespace lsmlab
