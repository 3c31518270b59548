#include <algorithm>
#include <cstring>
#include <map>
#include <memory>

#include "storage/env.h"
#include "util/mutex.h"

namespace lsmlab {

namespace {

/// Shared, refcounted contents of one in-memory file. Readers opened before
/// a RemoveFile keep their snapshot alive via shared_ptr (mirrors POSIX
/// unlink semantics, which the engine relies on when dropping compacted
/// tables that live snapshots still read).
///
/// A file may be read while its writer still appends to it (the value log
/// reads its live segment), and an append may reallocate the buffer, so
/// every access takes mu_ and reads copy into the caller's scratch.
///
/// Its bytes count in the Env's live-file gauge until it is destroyed, so
/// the Env must outlive every handle.
class MemFile {
 public:
  explicit MemFile(IoStats* stats) : stats_(stats) {}
  ~MemFile() { stats_->SubLiveFileBytes(data_.size()); }

  MemFile(const MemFile&) = delete;
  MemFile& operator=(const MemFile&) = delete;

  void Append(const Slice& bytes) {
    MutexLock lock(&mu_);
    data_.append(bytes.data(), bytes.size());
    stats_->AddLiveFileBytes(bytes.size());
  }

  uint64_t Size() const {
    MutexLock lock(&mu_);
    return data_.size();
  }

  /// Copies the up-to-`n` bytes at `offset` into `scratch` and points
  /// *result at them. False when `offset` lies past the end.
  bool Read(uint64_t offset, size_t n, Slice* result, char* scratch) const {
    MutexLock lock(&mu_);
    if (offset > data_.size()) {
      return false;
    }
    const size_t len = std::min(n, data_.size() - static_cast<size_t>(offset));
    std::memcpy(scratch, data_.data() + offset, len);
    *result = Slice(scratch, len);
    return true;
  }

 private:
  IoStats* const stats_;
  mutable Mutex mu_{LockRank::kMemFileMu};
  std::string data_;  // guarded by mu_
};

class MemRandomAccessFile : public RandomAccessFile {
 public:
  MemRandomAccessFile(std::shared_ptr<MemFile> file, IoStats* stats)
      : file_(std::move(file)), stats_(stats) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    if (!file_->Read(offset, n, result, scratch)) {
      return Status::IOError("read past end of file");
    }
    stats_->RecordRead(offset, result->size());
    return Status::OK();
  }

  uint64_t Size() const override { return file_->Size(); }

 private:
  std::shared_ptr<MemFile> file_;
  IoStats* stats_;
};

class MemWritableFile : public WritableFile {
 public:
  MemWritableFile(std::shared_ptr<MemFile> file, IoStats* stats)
      : file_(std::move(file)), stats_(stats) {}

  Status Append(const Slice& data) override {
    file_->Append(data);
    stats_->RecordAppend(data.size());
    return Status::OK();
  }
  Status Flush() override { return Status::OK(); }
  Status Sync() override {
    stats_->RecordSync();
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }

 private:
  std::shared_ptr<MemFile> file_;
  IoStats* stats_;
};

class MemSequentialFile : public SequentialFile {
 public:
  MemSequentialFile(std::shared_ptr<MemFile> file, IoStats* stats)
      : file_(std::move(file)), stats_(stats) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    if (!file_->Read(pos_, n, result, scratch) || result->empty()) {
      *result = Slice();
      return Status::OK();
    }
    stats_->RecordRead(pos_, result->size());
    pos_ += result->size();
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    pos_ = std::min<uint64_t>(file_->Size(), pos_ + n);
    return Status::OK();
  }

 private:
  std::shared_ptr<MemFile> file_;
  IoStats* stats_;
  uint64_t pos_ = 0;
};

class MemEnv : public Env {
 public:
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    MutexLock lock(&mu_);
    auto it = files_.find(fname);
    if (it == files_.end()) {
      return Status::IOError(fname, "file not found");
    }
    *result = std::make_unique<MemRandomAccessFile>(it->second, &io_stats_);
    return Status::OK();
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    MutexLock lock(&mu_);
    auto file = std::make_shared<MemFile>(&io_stats_);
    files_[fname] = file;  // truncate-on-open semantics
    *result = std::make_unique<MemWritableFile>(std::move(file), &io_stats_);
    return Status::OK();
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    MutexLock lock(&mu_);
    auto it = files_.find(fname);
    if (it == files_.end()) {
      return Status::IOError(fname, "file not found");
    }
    *result = std::make_unique<MemSequentialFile>(it->second, &io_stats_);
    return Status::OK();
  }

  bool FileExists(const std::string& fname) override {
    MutexLock lock(&mu_);
    return files_.count(fname) > 0;
  }

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    MutexLock lock(&mu_);
    result->clear();
    std::string prefix = dir;
    if (!prefix.empty() && prefix.back() != '/') {
      prefix += '/';
    }
    for (const auto& [name, file] : files_) {
      if (name.size() > prefix.size() &&
          name.compare(0, prefix.size(), prefix) == 0 &&
          name.find('/', prefix.size()) == std::string::npos) {
        result->push_back(name.substr(prefix.size()));
      }
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& fname) override {
    MutexLock lock(&mu_);
    if (files_.erase(fname) == 0) {
      return Status::IOError(fname, "file not found");
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& dirname) override {
    (void)dirname;  // directories are implicit in the flat namespace
    return Status::OK();
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    MutexLock lock(&mu_);
    auto it = files_.find(fname);
    if (it == files_.end()) {
      return Status::IOError(fname, "file not found");
    }
    *size = it->second->Size();
    return Status::OK();
  }

  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    MutexLock lock(&mu_);
    auto it = files_.find(src);
    if (it == files_.end()) {
      return Status::IOError(src, "file not found");
    }
    files_[target] = it->second;
    files_.erase(it);
    return Status::OK();
  }

  Status SyncFile(const std::string& fname) override {
    if (!FileExists(fname)) {
      return Status::IOError(fname, "file not found");
    }
    io_stats_.RecordSync();
    return Status::OK();
  }

 private:
  Mutex mu_{LockRank::kMemEnvMu};
  std::map<std::string, std::shared_ptr<MemFile>> files_ GUARDED_BY(mu_);
};

}  // namespace

Env* NewMemEnv() { return new MemEnv(); }

Status WriteStringToFile(Env* env, const Slice& data,
                         const std::string& fname) {
  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(fname, &file);
  if (!s.ok()) {
    return s;
  }
  s = file->Append(data);
  if (s.ok()) {
    // Durable by contract: callers use this for CURRENT and other
    // small metadata files whose loss would orphan the database.
    s = file->Sync();
  }
  if (s.ok()) {
    s = file->Close();
  }
  return s;
}

Status ReadFileToString(Env* env, const std::string& fname,
                        std::string* data) {
  data->clear();
  std::unique_ptr<SequentialFile> file;
  Status s = env->NewSequentialFile(fname, &file);
  if (!s.ok()) {
    return s;
  }
  static const size_t kBufferSize = 8192;
  std::string scratch(kBufferSize, '\0');
  while (true) {
    Slice fragment;
    s = file->Read(kBufferSize, &fragment, scratch.data());
    if (!s.ok() || fragment.empty()) {
      break;
    }
    data->append(fragment.data(), fragment.size());
  }
  return s;
}

}  // namespace lsmlab
