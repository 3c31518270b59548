#include "trace.h"

#include <chrono>
#include <utility>

namespace perfbench {

using lsmlab::Env;
using lsmlab::Slice;
using lsmlab::Status;

namespace {

thread_local void* tl_block = nullptr;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class FileKind { kTable, kWal, kManifest, kOther };

// The engine's file names: <n>.sst, <n>.wal, MANIFEST-<n>, CURRENT.
FileKind KindOf(const std::string& fname) {
  const size_t slash = fname.rfind('/');
  const std::string base =
      slash == std::string::npos ? fname : fname.substr(slash + 1);
  auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return base.size() > s.size() &&
           base.compare(base.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with(".sst")) {
    return FileKind::kTable;
  }
  if (ends_with(".wal")) {
    return FileKind::kWal;
  }
  if (base.rfind("MANIFEST-", 0) == 0) {
    return FileKind::kManifest;
  }
  return FileKind::kOther;
}

class TracedTableReader final : public lsmlab::RandomAccessFile {
 public:
  explicit TracedTableReader(std::unique_ptr<lsmlab::RandomAccessFile> base)
      : base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    const uint64_t start = NowNs();
    Status s = base_->Read(offset, n, result, scratch);
    Trace& t = Trace::Get();
    t.Add(kTableReadNs, NowNs() - start);
    t.Add(kTableReads, 1);
    t.Add(kTableReadBytes, result->size());
    return s;
  }

  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<lsmlab::RandomAccessFile> base_;
};

class TracedWritableFile final : public lsmlab::WritableFile {
 public:
  TracedWritableFile(std::unique_ptr<lsmlab::WritableFile> base,
                     FileKind kind)
      : base_(std::move(base)), kind_(kind) {}

  Status Append(const Slice& data) override {
    const uint64_t start = NowNs();
    Status s = base_->Append(data);
    const uint64_t ns = NowNs() - start;
    Trace& t = Trace::Get();
    switch (kind_) {
      case FileKind::kTable:
        t.Add(kTableWriteNs, ns);
        break;
      case FileKind::kWal:
        t.Add(kWalAppendNs, ns);
        t.Add(kWalAppends, 1);
        break;
      case FileKind::kManifest:
        t.Add(kManifestAppends, 1);
        break;
      case FileKind::kOther:
        break;
    }
    return s;
  }

  Status Flush() override { return Timed([&] { return base_->Flush(); }); }
  Status Close() override { return Timed([&] { return base_->Close(); }); }
  Status Sync() override {
    if (kind_ == FileKind::kWal) {
      Trace::Get().Add(kWalSyncs, 1);
    }
    return Timed([&] { return base_->Sync(); });
  }

 private:
  // Table files charge every call to table write time.
  template <typename Fn>
  Status Timed(Fn&& fn) {
    if (kind_ != FileKind::kTable) {
      return fn();
    }
    const uint64_t start = NowNs();
    Status s = fn();
    Trace::Get().Add(kTableWriteNs, NowNs() - start);
    return s;
  }

  std::unique_ptr<lsmlab::WritableFile> base_;
  const FileKind kind_;
};

class TracingEnv final : public Env {
 public:
  explicit TracingEnv(Env* base) : base_(base) {}

  // Only table files are wrapped: a positioned read of any other file then
  // shows up as a gap between the wrapper's count and the base IoStats.
  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<lsmlab::RandomAccessFile>* result) override {
    Status s = base_->NewRandomAccessFile(fname, result);
    if (s.ok() && KindOf(fname) == FileKind::kTable) {
      *result = std::make_unique<TracedTableReader>(std::move(*result));
    }
    return s;
  }
  Status NewWritableFile(
      const std::string& fname,
      std::unique_ptr<lsmlab::WritableFile>* result) override {
    Status s = base_->NewWritableFile(fname, result);
    if (s.ok()) {
      *result = std::make_unique<TracedWritableFile>(std::move(*result),
                                                     KindOf(fname));
    }
    return s;
  }
  Status NewSequentialFile(
      const std::string& fname,
      std::unique_ptr<lsmlab::SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }

 private:
  Env* const base_;
};

class CountingComparator final : public lsmlab::Comparator {
 public:
  int Compare(const Slice& a, const Slice& b) const override {
    Trace::Get().Add(kKeyCompares, 1);
    return base_->Compare(a, b);
  }
  // The wrapped name: tables record it and must read back as bytewise.
  const char* Name() const override { return base_->Name(); }
  void FindShortestSeparator(std::string* start,
                             const Slice& limit) const override {
    base_->FindShortestSeparator(start, limit);
  }
  void FindShortSuccessor(std::string* key) const override {
    base_->FindShortSuccessor(key);
  }

 private:
  const lsmlab::Comparator* const base_ = lsmlab::BytewiseComparator();
};

class TracingFilterPolicy final : public lsmlab::FilterPolicy {
 public:
  TracingFilterPolicy(const lsmlab::FilterPolicy* base, int level)
      : base_(base), level_(level) {}

  const char* Name() const override { return base_->Name(); }

  void CreateFilter(const Slice* keys, size_t n,
                    std::string* dst) const override {
    const size_t before = dst->size();
    const uint64_t start = NowNs();
    base_->CreateFilter(keys, n, dst);
    Trace& t = Trace::Get();
    t.Add(kFilterBuildNs, NowNs() - start);
    t.Add(kFilterKeys, n);
    t.Add(kFilterBytes, dst->size() - before);
  }

  bool KeyMayMatch(const Slice& key, const Slice& filter) const override {
    const uint64_t start = NowNs();
    const bool maybe = base_->KeyMayMatch(key, filter);
    Record(NowNs() - start, maybe);
    return maybe;
  }

  bool HashMayMatch(uint64_t hash, const Slice& filter) const override {
    const uint64_t start = NowNs();
    const bool maybe = base_->HashMayMatch(hash, filter);
    Record(NowNs() - start, maybe);
    return maybe;
  }

  bool SupportsHashProbe() const override {
    return base_->SupportsHashProbe();
  }

 private:
  void Record(uint64_t ns, bool maybe) const {
    Trace& t = Trace::Get();
    t.Add(kFilterProbeNs, ns);
    t.Add(kFilterProbes, 1);
    t.Add(static_cast<Counter>(kLevelProbes + level_), 1);
    if (!maybe) {
      t.Add(kFilterNegatives, 1);
      t.Add(static_cast<Counter>(kLevelNegatives + level_), 1);
    }
  }

  const std::unique_ptr<const lsmlab::FilterPolicy> base_;
  const int level_;
};

class TracingListener final : public lsmlab::EventListener {
 public:
  void OnFlushEnd(const lsmlab::FlushJobInfo& info) override {
    Trace::Get().Add(kFlushUs, info.micros);
  }
  void OnCompactionEnd(const lsmlab::CompactionJobInfo& info) override {
    Trace::Get().Add(kCompactionUs, info.micros);
  }
  void OnWriteStall(const lsmlab::WriteStallInfo& info) override {
    using Cause = lsmlab::WriteStallInfo::Cause;
    switch (info.cause) {
      case Cause::kSlowdown:
        Trace::Get().Add(kStallSlowdown, 1);
        break;
      case Cause::kMemtableFull:
        Trace::Get().Add(kStallMemtableFull, 1);
        break;
      case Cause::kL0Stop:
        Trace::Get().Add(kStallL0Stop, 1);
        break;
    }
  }
};

}  // namespace

Counts operator-(const Counts& a, const Counts& b) {
  Counts d{};
  for (size_t i = 0; i < d.size(); i++) {
    d[i] = a[i] - b[i];
  }
  return d;
}

Trace& Trace::Get() {
  static Trace trace;
  return trace;
}

Trace::Block* Trace::Mine() {
  if (tl_block == nullptr) {
    auto block = std::make_unique<Block>();
    std::lock_guard<std::mutex> lock(mu_);
    blocks_.push_back(std::move(block));
    tl_block = blocks_.back().get();
  }
  return static_cast<Block*>(tl_block);
}

void Trace::SetThreadRole(Role role) {
  Block* b = Mine();
  std::lock_guard<std::mutex> lock(mu_);
  b->role = role;
}

void Trace::Add(Counter c, uint64_t n) {
  std::atomic<uint64_t>& v = Mine()->c[c];
  v.store(v.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

Counts Trace::Local() {
  const Block* b = Mine();
  Counts out{};
  for (size_t i = 0; i < out.size(); i++) {
    out[i] = b->c[i].load(std::memory_order_relaxed);
  }
  return out;
}

Counts Trace::Sum(Role role) const {
  Counts out{};
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : blocks_) {
    if (b->role != role) {
      continue;
    }
    for (size_t i = 0; i < out.size(); i++) {
      out[i] += b->c[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

Counts Trace::SumAll() const {
  Counts out{};
  for (Role r : {Role::kBackground, Role::kMain, Role::kClient}) {
    const Counts part = Sum(r);
    for (size_t i = 0; i < out.size(); i++) {
      out[i] += part[i];
    }
  }
  return out;
}

std::unique_ptr<Env> NewTracingEnv(Env* base) {
  return std::make_unique<TracingEnv>(base);
}

const lsmlab::Comparator* CountingBytewiseComparator() {
  static const CountingComparator cmp;
  return &cmp;
}

const lsmlab::FilterPolicy* NewTracingBloomPolicy(double bits_per_key) {
  static std::atomic<int> calls{0};
  const int level = calls.fetch_add(1) % kTracedLevels;
  return new TracingFilterPolicy(lsmlab::NewBloomFilterPolicy(bits_per_key),
                                 level);
}

std::shared_ptr<lsmlab::EventListener> NewTracingListener() {
  return std::make_shared<TracingListener>();
}

}  // namespace perfbench
