#include "vlog/value_log.h"

#include <algorithm>
#include <cstdio>

#include "util/coding.h"
#include "util/crc32c.h"

namespace lsmlab {

ValueLog::ValueLog(Env* env, std::string dbname, size_t max_file_bytes)
    : env_(env), dbname_(std::move(dbname)), max_file_bytes_(max_file_bytes) {}

ValueLog::~ValueLog() {
  MutexLock lock(&mu_);
  if (current_file_ != nullptr) {
    // The next session's recovery flush makes pointers into this segment
    // durable, so its tail must be durable first: sync it at close.
    if (unsynced_) {
      // status-ok: a destructor cannot report; a failed sync leaves the
      // tail no less durable than not syncing it would.
      current_file_->Sync().IgnoreError();
    }
    // status-ok: best-effort close on teardown; the tail is synced above.
    current_file_->Close().IgnoreError();
  }
}

std::string ValueLog::FileName(const std::string& dbname, uint64_t number) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/%06llu.vlog",
                static_cast<unsigned long long>(number));
  return dbname + buf;
}

Status ValueLog::Open() {
  MutexLock lock(&mu_);
  // status-ok: dir may already exist; a real failure surfaces in
  // GetChildren below.
  env_->CreateDir(dbname_).IgnoreError();
  std::vector<std::string> children;
  Status s = env_->GetChildren(dbname_, &children);
  if (!s.ok()) {
    return s;
  }
  uint64_t max_number = 0;
  for (const std::string& child : children) {
    const size_t dot = child.find(".vlog");
    if (dot == std::string::npos || dot == 0 ||
        dot + 5 != child.size()) {
      continue;
    }
    char* end;
    const uint64_t number = strtoull(child.c_str(), &end, 10);
    if (end != child.c_str() + dot) {
      continue;
    }
    files_.insert(number);
    max_number = std::max(max_number, number);
  }
  // Seed the byte accounting once at open; afterwards Add/DeleteFiles
  // maintain it so TotalBytes() never stats files (it is called with the
  // DB mutex held).
  total_bytes_ = 0;
  file_bytes_.clear();
  for (uint64_t number : files_) {
    uint64_t size = 0;
    if (env_->GetFileSize(FileName(dbname_, number), &size).ok()) {
      file_bytes_[number] = size;
      total_bytes_ += size;
    }
  }
  current_number_ = max_number + 1;
  files_.insert(current_number_);
  current_offset_ = 0;
  return env_->NewWritableFile(FileName(dbname_, current_number_),
                               &current_file_);
}

Status ValueLog::RotateLocked() {
  if (current_file_ != nullptr) {
    // Sync before closing: Sync() only ever reaches the current segment,
    // so values left unsynced here would be lost to a crash even after a
    // later WAL fsync made their pointers durable.
    Status s = current_file_->Sync();
    if (s.ok()) {
      s = current_file_->Close();
    }
    if (!s.ok()) {
      return s;
    }
    unsynced_ = false;
  }
  current_number_++;
  files_.insert(current_number_);
  current_offset_ = 0;
  return env_->NewWritableFile(FileName(dbname_, current_number_),
                               &current_file_);
}

Status ValueLog::Add(const Slice& value, std::string* pointer) {
  MutexLock lock(&mu_);
  if (current_file_ == nullptr) {
    return Status::InvalidArgument("value log not opened");
  }
  if (current_offset_ >= max_file_bytes_) {
    Status s = RotateLocked();
    if (!s.ok()) {
      return s;
    }
  }

  std::string record;
  record.reserve(value.size() + 9);
  PutFixed32(&record, crc32c::Mask(crc32c::Value(value.data(), value.size())));
  PutVarint32(&record, static_cast<uint32_t>(value.size()));
  record.append(value.data(), value.size());

  const uint64_t offset = current_offset_;
  Status s = current_file_->Append(Slice(record));
  if (!s.ok()) {
    return s;
  }
  current_offset_ += record.size();
  unsynced_ = true;
  file_bytes_[current_number_] += record.size();
  total_bytes_ += record.size();

  pointer->clear();
  PutVarint64(pointer, current_number_);
  PutVarint64(pointer, offset);
  PutVarint32(pointer, static_cast<uint32_t>(record.size()));
  return current_file_->Flush();
}

Status ValueLog::DecodePointer(const Slice& pointer, Pointer* out) {
  Slice input = pointer;
  if (!GetVarint64(&input, &out->number) ||
      !GetVarint64(&input, &out->offset) ||
      !GetVarint32(&input, &out->size)) {
    return Status::Corruption("bad value-log pointer");
  }
  if (out->size < 5) {  // fixed32 crc + at least a 1-byte varint size
    return Status::Corruption("bad value-log pointer size");
  }
  return Status::OK();
}

Status ValueLog::GetReader(uint64_t number,
                           std::shared_ptr<RandomAccessFile>* reader) const {
  MutexLock lock(&readers_mu_);
  for (const auto& [n, r] : readers_) {
    if (n == number) {
      *reader = r;
      return Status::OK();
    }
  }
  std::unique_ptr<RandomAccessFile> file;
  Status s = env_->NewRandomAccessFile(FileName(dbname_, number), &file);
  if (!s.ok()) {
    return s;
  }
  *reader = std::shared_ptr<RandomAccessFile>(file.release());
  readers_.emplace_back(number, *reader);
  return Status::OK();
}

Status ValueLog::ReadRecord(RandomAccessFile* reader, const Pointer& ptr,
                            std::string* value) const {
  // The pointer was decoded from untrusted SSTable bytes: before sizing a
  // buffer from it, bound large claims by the log file itself so a corrupt
  // pointer cannot demand a multi-gigabyte allocation.
  if (ptr.size > (1u << 26)) {
    uint64_t log_size = 0;
    Status fs = env_->GetFileSize(FileName(dbname_, ptr.number), &log_size);
    if (!fs.ok()) {
      return fs;
    }
    if (ptr.size > log_size || ptr.offset > log_size - ptr.size) {
      return Status::Corruption("value-log pointer out of file bounds");
    }
  }
  std::string scratch(ptr.size, '\0');
  Slice record;
  Status s = reader->Read(ptr.offset, ptr.size, &record, scratch.data());
  if (!s.ok()) {
    return s;
  }
  if (record.size() != ptr.size) {
    return Status::Corruption("truncated value-log record");
  }
  // bounds: size >= 5 was checked at decode, record.size() == size.
  const uint32_t expected_crc = crc32c::Unmask(DecodeFixed32(record.data()));
  Slice body(record.data() + 4, record.size() - 4);
  uint32_t value_size;
  if (!GetVarint32(&body, &value_size) || body.size() != value_size) {
    return Status::Corruption("malformed value-log record");
  }
  if (crc32c::Value(body.data(), body.size()) != expected_crc) {
    return Status::Corruption("value-log checksum mismatch");
  }
  value->assign(body.data(), body.size());
  return Status::OK();
}

Status ValueLog::Get(const Slice& pointer, std::string* value) const {
  Pointer ptr;
  Status s = DecodePointer(pointer, &ptr);
  if (!s.ok()) {
    return s;
  }
  std::shared_ptr<RandomAccessFile> reader;
  s = GetReader(ptr.number, &reader);
  if (!s.ok()) {
    return s;
  }
  return ReadRecord(reader.get(), ptr, value);
}

void ValueLog::GetBatch(std::vector<BatchRead>* reads) const {
  struct Work {
    Pointer ptr;
    BatchRead* read;
  };
  std::vector<Work> work;
  work.reserve(reads->size());
  for (BatchRead& r : *reads) {
    Pointer ptr;
    Status s = DecodePointer(r.pointer, &ptr);
    if (!s.ok()) {
      *r.status = s;  // a bad pointer fails only its own slot
      continue;
    }
    work.push_back(Work{ptr, &r});
  }
  // Issue reads in (file, offset) order: values written together are read
  // together, turning the batch's log access pattern sequential and
  // resolving each file's read handle exactly once.
  std::sort(work.begin(), work.end(), [](const Work& a, const Work& b) {
    return a.ptr.number != b.ptr.number ? a.ptr.number < b.ptr.number
                                        : a.ptr.offset < b.ptr.offset;
  });
  std::shared_ptr<RandomAccessFile> reader;
  uint64_t reader_number = 0;
  for (const Work& w : work) {
    if (reader == nullptr || reader_number != w.ptr.number) {
      reader.reset();
      Status s = GetReader(w.ptr.number, &reader);
      if (!s.ok()) {
        *w.read->status = s;
        continue;
      }
      reader_number = w.ptr.number;
    }
    *w.read->status = ReadRecord(reader.get(), w.ptr, w.read->value);
  }
}

Status ValueLog::Sync(bool* synced) {
  MutexLock lock(&mu_);
  *synced = false;
  if (!unsynced_) {
    return Status::OK();
  }
  Status s = current_file_->Sync();
  if (s.ok()) {
    unsynced_ = false;
    *synced = true;
  }
  return s;
}

std::vector<uint64_t> ValueLog::ClosedFiles() const {
  MutexLock lock(&mu_);
  std::vector<uint64_t> result;
  for (uint64_t n : files_) {
    if (n != current_number_) {
      result.push_back(n);
    }
  }
  return result;
}

Status ValueLog::DeleteFiles(const std::vector<uint64_t>& numbers) {
  MutexLock lock(&mu_);
  Status result = Status::OK();
  for (uint64_t n : numbers) {
    if (n == current_number_) {
      continue;  // never delete the live tail
    }
    files_.erase(n);
    auto bytes_it = file_bytes_.find(n);
    if (bytes_it != file_bytes_.end()) {
      total_bytes_ -= bytes_it->second;
      file_bytes_.erase(bytes_it);
    }
    {
      MutexLock rlock(&readers_mu_);
      readers_.erase(
          std::remove_if(readers_.begin(), readers_.end(),
                         [n](const auto& p) { return p.first == n; }),
          readers_.end());
    }
    Status s = env_->RemoveFile(FileName(dbname_, n));
    if (!s.ok() && result.ok()) {
      result = s;
    }
  }
  return result;
}

bool ValueLog::PointsInto(const Slice& pointer,
                          const std::set<uint64_t>& files) {
  Slice input = pointer;
  uint64_t number;
  if (!GetVarint64(&input, &number)) {
    return false;
  }
  return files.count(number) > 0;
}

uint64_t ValueLog::TotalBytes() const {
  MutexLock lock(&mu_);
  return total_bytes_;
}

size_t ValueLog::NumFiles() const {
  MutexLock lock(&mu_);
  return files_.size();
}

}  // namespace lsmlab
