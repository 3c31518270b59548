#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

#include "storage/env.h"

namespace lsmlab {

namespace {

Status PosixError(const std::string& context, int err) {
  return Status::IOError(context, std::strerror(err));
}

class PosixRandomAccessFile : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string fname, int fd, uint64_t size,
                        IoStats* stats)
      : fname_(std::move(fname)), fd_(fd), size_(size), stats_(stats) {}

  ~PosixRandomAccessFile() override { ::close(fd_); }

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    ssize_t r = ::pread(fd_, scratch, n, static_cast<off_t>(offset));
    if (r < 0) {
      return PosixError(fname_, errno);
    }
    stats_->RecordRead(offset, static_cast<uint64_t>(r));
    *result = Slice(scratch, static_cast<size_t>(r));
    return Status::OK();
  }

  uint64_t Size() const override { return size_; }

 private:
  std::string fname_;
  int fd_;
  uint64_t size_;
  IoStats* stats_;
};

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::string fname, FILE* f, IoStats* stats)
      : fname_(std::move(fname)), file_(f), stats_(stats) {}

  ~PosixWritableFile() override {
    if (file_ != nullptr) {
      std::fclose(file_);
    }
  }

  Status Append(const Slice& data) override {
    size_t r = std::fwrite(data.data(), 1, data.size(), file_);
    if (r != data.size()) {
      return PosixError(fname_, errno);
    }
    stats_->RecordAppend(data.size());
    return Status::OK();
  }

  Status Flush() override {
    if (std::fflush(file_) != 0) {
      return PosixError(fname_, errno);
    }
    return Status::OK();
  }

  Status Sync() override {
    Status s = Flush();
    if (!s.ok()) {
      return s;
    }
    if (::fsync(::fileno(file_)) != 0) {
      return PosixError(fname_, errno);
    }
    stats_->RecordSync();
    return Status::OK();
  }

  Status Close() override {
    int r = std::fclose(file_);
    file_ = nullptr;
    if (r != 0) {
      return PosixError(fname_, errno);
    }
    return Status::OK();
  }

 private:
  std::string fname_;
  FILE* file_;
  IoStats* stats_;
};

class PosixSequentialFile : public SequentialFile {
 public:
  PosixSequentialFile(std::string fname, FILE* f, IoStats* stats)
      : fname_(std::move(fname)), file_(f), stats_(stats) {}

  ~PosixSequentialFile() override { std::fclose(file_); }

  Status Read(size_t n, Slice* result, char* scratch) override {
    size_t r = std::fread(scratch, 1, n, file_);
    if (r < n && std::ferror(file_)) {
      return PosixError(fname_, errno);
    }
    stats_->RecordRead(pos_, r);
    pos_ += r;
    *result = Slice(scratch, r);
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    if (std::fseek(file_, static_cast<long>(n), SEEK_CUR) != 0) {
      return PosixError(fname_, errno);
    }
    pos_ += n;
    return Status::OK();
  }

 private:
  std::string fname_;
  FILE* file_;
  IoStats* stats_;
  uint64_t pos_ = 0;
};

class PosixEnv : public Env {
 public:
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDONLY);
    if (fd < 0) {
      return PosixError(fname, errno);
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      int err = errno;
      ::close(fd);
      return PosixError(fname, err);
    }
    *result = std::make_unique<PosixRandomAccessFile>(
        fname, fd, static_cast<uint64_t>(st.st_size), &io_stats_);
    return Status::OK();
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    FILE* f = std::fopen(fname.c_str(), "wb");
    if (f == nullptr) {
      return PosixError(fname, errno);
    }
    *result = std::make_unique<PosixWritableFile>(fname, f, &io_stats_);
    return Status::OK();
  }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    FILE* f = std::fopen(fname.c_str(), "rb");
    if (f == nullptr) {
      return PosixError(fname, errno);
    }
    *result = std::make_unique<PosixSequentialFile>(fname, f, &io_stats_);
    return Status::OK();
  }

  bool FileExists(const std::string& fname) override {
    return ::access(fname.c_str(), F_OK) == 0;
  }

  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    result->clear();
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      result->push_back(entry.path().filename().string());
    }
    if (ec) {
      return Status::IOError(dir, ec.message());
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& fname) override {
    if (::unlink(fname.c_str()) != 0) {
      return PosixError(fname, errno);
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& dirname) override {
    if (::mkdir(dirname.c_str(), 0755) != 0 && errno != EEXIST) {
      return PosixError(dirname, errno);
    }
    return Status::OK();
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    struct stat st;
    if (::stat(fname.c_str(), &st) != 0) {
      return PosixError(fname, errno);
    }
    *size = static_cast<uint64_t>(st.st_size);
    return Status::OK();
  }

  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    if (std::rename(src.c_str(), target.c_str()) != 0) {
      return PosixError(src, errno);
    }
    return Status::OK();
  }

  Status SyncFile(const std::string& fname) override {
    const int fd = ::open(fname.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return PosixError(fname, errno);
    }
    const int r = ::fsync(fd);
    const int err = errno;
    ::close(fd);
    if (r != 0) {
      return PosixError(fname, err);
    }
    io_stats_.RecordSync();
    return Status::OK();
  }
};

}  // namespace

Env* NewPosixEnv() { return new PosixEnv(); }

}  // namespace lsmlab
