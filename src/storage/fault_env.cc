#include "storage/fault_env.h"

#include <atomic>
#include <map>

#include "util/mutex.h"

namespace lsmlab {

namespace {

struct FileDurability {
  uint64_t synced_bytes = 0;  // prefix guaranteed to survive a crash
  bool ever_synced = false;
};

}  // namespace

struct FaultInjectionEnv::State {
  Env* base = nullptr;
  Mutex mu{LockRank::kFaultStateMu};
  std::map<std::string, FileDurability> files GUARDED_BY(mu);
  std::atomic<bool> crashed{false};

  // Kill-point machinery: counts write ops (Append/Sync) and starts
  // rejecting them once the armed budget is spent.
  bool kill_armed GUARDED_BY(mu) = false;
  uint64_t ops_until_kill GUARDED_BY(mu) = 0;
  uint64_t write_ops GUARDED_BY(mu) = 0;
  std::string kill_file GUARDED_BY(mu);

  /// Charges one write op against the kill budget. False = the op must
  /// fail (kill point reached); records the first victim's filename.
  bool AllowWriteOp(const std::string& fname) {
    MutexLock lock(&mu);
    if (kill_armed && ops_until_kill == 0) {
      if (kill_file.empty()) {
        kill_file = fname;
      }
      return false;
    }
    if (kill_armed) {
      ops_until_kill--;
    }
    write_ops++;
    return true;
  }
};

namespace {

/// Writable handle that reports durability transitions to the env state.
class TrackedWritableFile : public WritableFile {
 public:
  TrackedWritableFile(std::unique_ptr<WritableFile> base, std::string fname,
                      FaultInjectionEnv::State* state)
      : base_(std::move(base)), fname_(std::move(fname)), state_(state) {}

  Status Append(const Slice& data) override {
    if (state_->crashed.load()) {
      return Status::IOError("simulated crash");
    }
    if (!state_->AllowWriteOp(fname_)) {
      return Status::IOError("simulated kill");
    }
    Status s = base_->Append(data);
    if (s.ok()) {
      size_ += data.size();
    }
    return s;
  }

  Status Flush() override { return base_->Flush(); }

  Status Sync() override {
    if (state_->crashed.load()) {
      return Status::IOError("simulated crash");
    }
    if (!state_->AllowWriteOp(fname_)) {
      return Status::IOError("simulated kill");
    }
    Status s = base_->Sync();
    if (s.ok()) {
      MutexLock lock(&state_->mu);
      auto& d = state_->files[fname_];
      d.synced_bytes = size_;
      d.ever_synced = true;
    }
    return s;
  }

  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  std::string fname_;
  FaultInjectionEnv::State* state_;
  uint64_t size_ = 0;
};

}  // namespace

FaultInjectionEnv::FaultInjectionEnv(Env* base)
    : state_(std::make_unique<State>()) {
  state_->base = base;
}

FaultInjectionEnv::~FaultInjectionEnv() = default;

Status FaultInjectionEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<RandomAccessFile>* result) {
  return state_->base->NewRandomAccessFile(fname, result);
}

Status FaultInjectionEnv::NewWritableFile(
    const std::string& fname, std::unique_ptr<WritableFile>* result) {
  std::unique_ptr<WritableFile> base_file;
  Status s = state_->base->NewWritableFile(fname, &base_file);
  if (!s.ok()) {
    return s;
  }
  {
    MutexLock lock(&state_->mu);
    state_->files[fname] = FileDurability();  // fresh, nothing durable
  }
  *result = std::make_unique<TrackedWritableFile>(std::move(base_file),
                                                  fname, state_.get());
  return Status::OK();
}

Status FaultInjectionEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<SequentialFile>* result) {
  return state_->base->NewSequentialFile(fname, result);
}

bool FaultInjectionEnv::FileExists(const std::string& fname) {
  return state_->base->FileExists(fname);
}

Status FaultInjectionEnv::GetChildren(const std::string& dir,
                                      std::vector<std::string>* result) {
  return state_->base->GetChildren(dir, result);
}

Status FaultInjectionEnv::RemoveFile(const std::string& fname) {
  {
    MutexLock lock(&state_->mu);
    state_->files.erase(fname);
  }
  return state_->base->RemoveFile(fname);
}

Status FaultInjectionEnv::CreateDir(const std::string& dirname) {
  return state_->base->CreateDir(dirname);
}

Status FaultInjectionEnv::GetFileSize(const std::string& fname,
                                      uint64_t* size) {
  return state_->base->GetFileSize(fname, size);
}

Status FaultInjectionEnv::RenameFile(const std::string& src,
                                     const std::string& target) {
  {
    MutexLock lock(&state_->mu);
    auto it = state_->files.find(src);
    if (it != state_->files.end()) {
      state_->files[target] = it->second;
      state_->files.erase(it);
    }
  }
  return state_->base->RenameFile(src, target);
}

Status FaultInjectionEnv::SyncFile(const std::string& fname) {
  if (state_->crashed.load()) {
    return Status::IOError("simulated crash");
  }
  if (!state_->AllowWriteOp(fname)) {
    return Status::IOError("simulated kill");
  }
  uint64_t size = 0;
  Status s = state_->base->GetFileSize(fname, &size);
  if (s.ok()) {
    s = state_->base->SyncFile(fname);
  }
  if (s.ok()) {
    MutexLock lock(&state_->mu);
    auto& d = state_->files[fname];
    d.synced_bytes = size;
    d.ever_synced = true;
  }
  return s;
}

Status FaultInjectionEnv::Crash() {
  state_->crashed.store(true);
  MutexLock lock(&state_->mu);
  Status result = Status::OK();
  for (const auto& [fname, d] : state_->files) {
    if (!state_->base->FileExists(fname)) {
      continue;
    }
    if (!d.ever_synced) {
      Status s = state_->base->RemoveFile(fname);
      if (!s.ok() && result.ok()) {
        result = s;
      }
      continue;
    }
    uint64_t size = 0;
    Status s = state_->base->GetFileSize(fname, &size);
    if (!s.ok()) {
      continue;
    }
    if (size > d.synced_bytes) {
      // Truncate to the durable prefix by rewriting.
      std::string data;
      s = ReadFileToString(state_->base, fname, &data);
      if (!s.ok()) {
        if (result.ok()) result = s;
        continue;
      }
      data.resize(static_cast<size_t>(d.synced_bytes));
      s = WriteStringToFile(state_->base, data, fname);
      if (!s.ok() && result.ok()) {
        result = s;
      }
    }
  }
  state_->files.clear();
  state_->kill_armed = false;
  state_->ops_until_kill = 0;
  state_->write_ops = 0;
  state_->kill_file.clear();
  state_->crashed.store(false);
  return result;
}

void FaultInjectionEnv::Kill() { state_->crashed.store(true); }

void FaultInjectionEnv::Revive() {
  MutexLock lock(&state_->mu);
  state_->kill_armed = false;
  state_->ops_until_kill = 0;
  state_->kill_file.clear();
  state_->crashed.store(false);
}

void FaultInjectionEnv::MarkSynced() {
  MutexLock lock(&state_->mu);
  state_->files.clear();  // untracked files are implicitly durable
}

void FaultInjectionEnv::ArmKillPoint(uint64_t ops) {
  MutexLock lock(&state_->mu);
  state_->kill_armed = true;
  state_->ops_until_kill = ops;
  state_->kill_file.clear();
}

uint64_t FaultInjectionEnv::write_ops() const {
  MutexLock lock(&state_->mu);
  return state_->write_ops;
}

std::string FaultInjectionEnv::kill_file() const {
  MutexLock lock(&state_->mu);
  return state_->kill_file;
}

}  // namespace lsmlab
