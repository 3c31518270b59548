#ifndef LSMLAB_OBS_EVENT_LISTENER_H_
#define LSMLAB_OBS_EVENT_LISTENER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace lsmlab {

/// Metadata of one SSTable file reported through listener callbacks.
struct TableFileInfo {
  uint64_t file_number = 0;
  uint64_t file_size = 0;
  int level = 0;
  std::string smallest_user_key;
  std::string largest_user_key;
};

struct FlushJobInfo {
  std::string db_name;
  /// True in background mode (Options::background_compaction); false in
  /// inline mode, where every flush runs on the thread that triggered it.
  bool background = false;
  uint64_t bytes_written = 0;
  uint64_t micros = 0;  ///< wall time of the table build + install
  std::vector<TableFileInfo> outputs;
  Status status;
};

struct CompactionJobInfo {
  std::string db_name;
  int input_level = 0;
  int output_level = 0;
  uint64_t bytes_written = 0;
  uint64_t micros = 0;
  std::vector<TableFileInfo> inputs;  ///< includes output-level overlaps
  /// Every output installed, in key order: all of them on success, those
  /// installed before the failure otherwise.
  std::vector<TableFileInfo> outputs;
  /// The inputs moved to output_level unchanged: no outputs, no bytes
  /// written, and the input files stay live.
  bool moved = false;
  Status status;
};

struct WriteStallInfo {
  enum class Cause {
    kSlowdown,      ///< L0 slowdown trigger: ~1ms delay injected
    kMemtableFull,  ///< previous memtable still flushing
    kL0Stop,        ///< L0 stop trigger: writer blocked on compaction
  };
  std::string db_name;
  Cause cause = Cause::kSlowdown;
  int l0_runs = 0;
};

struct TableFileDeletionInfo {
  std::string db_name;
  uint64_t file_number = 0;
};

/// Observer of DB lifecycle events, registered via Options::listeners.
///
/// Contract (see DESIGN.md "Observability"):
///  - Every DB call (Get, MultiGet, Write, NewIterator, Scan, Flush,
///    CompactAll, Open's recovery, GarbageCollectValues) and each step of
///    the background worker is one operation scope. Events the operation
///    causes are staged on it and delivered when it ends: after its
///    counters are folded into the DB's tickers and its scope has closed,
///    with NO DB mutex held. A callback may therefore call back into the
///    DB (GetStats, GetProperty, Get, iterators) and that call is an
///    operation of its own, counted once. Callbacks must not destroy the
///    DB.
///  - A DB call made inside another on the same thread (the Put and Flush
///    inside GarbageCollectValues) is not an operation of its own: its
///    events fire at the end of the outer call.
///  - Events for one DB are delivered in operation order, from the thread
///    that performed the operation (inline writes deliver at the end of the
///    triggering call; the background worker delivers between steps).
///    Table-file deletions are delivered by the next operation to end on
///    any thread. Events may therefore lag the operation itself —
///    synchronize in the listener when a test or tool needs to wait for
///    one.
///  - Callbacks run on the critical path of flush/compaction scheduling:
///    keep them short or hand off to another thread.
class EventListener {
 public:
  virtual ~EventListener() = default;

  virtual void OnFlushBegin(const FlushJobInfo& /*info*/) {}
  virtual void OnFlushEnd(const FlushJobInfo& /*info*/) {}
  virtual void OnCompactionBegin(const CompactionJobInfo& /*info*/) {}
  virtual void OnCompactionEnd(const CompactionJobInfo& /*info*/) {}
  virtual void OnWriteStall(const WriteStallInfo& /*info*/) {}
  virtual void OnTableFileCreated(const TableFileInfo& /*info*/) {}
  virtual void OnTableFileDeleted(const TableFileDeletionInfo& /*info*/) {}
};

}  // namespace lsmlab

#endif  // LSMLAB_OBS_EVENT_LISTENER_H_
