#ifndef LSMLAB_STORAGE_FAULT_ENV_H_
#define LSMLAB_STORAGE_FAULT_ENV_H_

#include <cstdint>
#include <memory>
#include <string>

#include "storage/env.h"

namespace lsmlab {

/// Fault-injection environment for crash testing.
///
/// Wraps a base Env and tracks, per file, how many bytes have been made
/// durable via Sync(). Crash() then rolls the world back to the durable
/// state: unsynced tails are truncated and files that were never synced
/// disappear — the on-disk state an OS crash could expose. Recovery code
/// (WAL replay, manifest load) must cope with exactly this.
class FaultInjectionEnv : public Env {
 public:
  /// Does not take ownership of `base`.
  explicit FaultInjectionEnv(Env* base);
  ~FaultInjectionEnv() override;

  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  bool FileExists(const std::string& fname) override;
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override;
  Status RemoveFile(const std::string& fname) override;
  Status CreateDir(const std::string& dirname) override;
  Status GetFileSize(const std::string& fname, uint64_t* size) override;
  Status RenameFile(const std::string& src,
                    const std::string& target) override;

  /// Simulates a kill -9 + machine crash: every file reverts to its last
  /// synced prefix; never-synced files are deleted. Writable handles
  /// still held by the (dead) DB become inert. Call while no live DB uses
  /// this env, then reopen the DB to exercise recovery.
  Status Crash();

  /// Simulates the process dying now: every later write operation fails,
  /// so a DB torn down afterwards writes nothing more and its buffered
  /// state is lost. Crash() then rolls the files back and revives the env.
  void Kill();

  /// Treat every byte written so far as durable (a checkpoint).
  void MarkSynced();

  /// Deterministic kill point: the next `ops` write operations (Append or
  /// Sync on any writable file) succeed, then every later one fails with
  /// an IOError — the process is "dead" from that operation onward.
  /// Sweeping `ops` over a fixed workload visits every write-op boundary:
  /// mid-WAL-record, between append and sync, during an SSTable build,
  /// inside a manifest install. Crash() disarms.
  void ArmKillPoint(uint64_t ops);

  /// Write operations that have been *allowed* since construction or the
  /// last Crash(). A full un-killed run's count bounds the sweep above.
  uint64_t write_ops() const;

  /// File whose operation first hit an armed kill point (empty until then;
  /// cleared by ArmKillPoint/Crash). Lets tests classify which structure
  /// the kill landed in: "*.wal", "*.sst", "MANIFEST-*".
  std::string kill_file() const;

  // Implementation detail, public so file-handle wrappers in the .cc can
  // reference it.
  struct State;

 private:
  std::unique_ptr<State> state_;
};

}  // namespace lsmlab

#endif  // LSMLAB_STORAGE_FAULT_ENV_H_
