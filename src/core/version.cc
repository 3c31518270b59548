#include "core/version.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "core/compaction/compaction_policy.h"
#include "core/filename.h"
#include "core/table_cache.h"
#include "util/coding.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"

namespace lsmlab {

// --------------------------------------------------------------- Version --

int Version::TotalRuns() const {
  int total = 0;
  for (const auto& level : levels_) {
    total += static_cast<int>(level.runs.size());
  }
  return total;
}

int Version::NumFiles() const {
  int total = 0;
  for (const auto& level : levels_) {
    for (const auto& run : level.runs) {
      total += static_cast<int>(run.files.size());
    }
  }
  return total;
}

std::span<const FileMetaPtr> FenceSearch(std::span<const FileMetaPtr> files,
                                         const Comparator& cmp,
                                         const Slice* lo, const Slice* hi,
                                         bool hi_open, bool internal_keys) {
  auto key = [internal_keys](const std::string& bound) {
    return internal_keys ? Slice(bound) : ExtractUserKey(Slice(bound));
  };
  auto first = files.begin();
  if (lo != nullptr) {
    first = std::partition_point(first, files.end(), [&](const FileMetaPtr& f) {
      return cmp.Compare(key(f->largest), *lo) < 0;
    });
  }
  auto last = files.end();
  if (hi != nullptr) {
    last = std::partition_point(first, last, [&](const FileMetaPtr& f) {
      const int c = cmp.Compare(key(f->smallest), *hi);
      return c < 0 || (c == 0 && !hi_open);
    });
  }
  return {first, last};
}

const FileMetaPtr* FindFileInRun(const Run& run, const Comparator* ucmp,
                                 const Slice& user_key) {
  // Run files are disjoint, so the first whose largest key is not below
  // user_key is the only candidate.
  const std::span<const FileMetaPtr> files =
      FenceSearch(run.files, *ucmp, &user_key, nullptr);
  if (files.empty() ||
      ucmp->Compare(user_key, ExtractUserKey(Slice(files[0]->smallest))) < 0) {
    return nullptr;
  }
  return &files[0];
}

size_t FirstOverlap(std::span<const FileMetaPtr> files,
                    const Comparator& ucmp) {
  for (size_t i = 1; i < files.size(); i++) {
    if (ucmp.Compare(ExtractUserKey(Slice(files[i - 1]->largest)),
                     ExtractUserKey(Slice(files[i]->smallest))) >= 0) {
      return i;
    }
  }
  return files.size();
}

int Version::MaxPopulatedLevel() const {
  for (int i = num_levels() - 1; i >= 0; i--) {
    if (!levels_[i].runs.empty()) {
      return i;
    }
  }
  return -1;
}

std::string Version::DebugString() const {
  std::ostringstream out;
  for (int i = 0; i < num_levels(); i++) {
    if (levels_[i].runs.empty()) {
      continue;
    }
    out << "level " << i << ": ";
    for (const auto& run : levels_[i].runs) {
      out << "[run " << run.run_seq << ": " << run.files.size() << " files, "
          << run.TotalBytes() << " bytes] ";
    }
    out << "\n";
  }
  return out.str();
}

Status Version::CheckConsistency(const Comparator* ucmp) const {
  std::set<uint64_t> numbers;
  for (int level = 0; level < num_levels(); level++) {
    const std::string where = "level " + std::to_string(level);
    for (const Run& run : levels_[level].runs) {
      for (const FileMetaPtr& f : run.files) {
        if (!numbers.insert(f->number).second) {
          return Status::Corruption(where + ": file " +
                                    std::to_string(f->number) + " twice");
        }
      }
      const size_t i = FirstOverlap(run.files, *ucmp);
      if (i < run.files.size()) {
        return Status::Corruption(
            where + " run " + std::to_string(run.run_seq) + ": file " +
            std::to_string(run.files[i]->number) + " overlaps its predecessor");
      }
    }
  }
  return Status::OK();
}

Status Version::CheckRunBound(const Version& base,
                              const CompactionPolicy& policy) const {
  for (int level = 0; level < num_levels(); level++) {
    const size_t runs = levels_[level].runs.size();
    if (runs > policy.MaxRuns(*this, level) &&
        runs > base.levels_[level].runs.size()) {
      return Status::Corruption("level " + std::to_string(level) +
                                " grows to " + std::to_string(runs) +
                                " runs");
    }
  }
  return Status::OK();
}

// ----------------------------------------------------------- VersionEdit --

namespace {

enum EditTag : uint32_t {
  kComparator = 1,
  kLogNumber = 2,
  kNextFileNumber = 3,
  kLastSequence = 4,
  kNextRunSeq = 5,
  kDeletedFile = 6,
  kNewFile = 7,
};

}  // namespace

void VersionEdit::EncodeTo(std::string* dst) const {
  if (has_comparator_) {
    PutVarint32(dst, kComparator);
    PutLengthPrefixedSlice(dst, Slice(comparator_));
  }
  if (has_log_number_) {
    PutVarint32(dst, kLogNumber);
    PutVarint64(dst, log_number_);
  }
  if (has_next_file_number_) {
    PutVarint32(dst, kNextFileNumber);
    PutVarint64(dst, next_file_number_);
  }
  if (has_last_sequence_) {
    PutVarint32(dst, kLastSequence);
    PutVarint64(dst, last_sequence_);
  }
  if (has_next_run_seq_) {
    PutVarint32(dst, kNextRunSeq);
    PutVarint64(dst, next_run_seq_);
  }
  for (const auto& [level, number] : deleted_files_) {
    PutVarint32(dst, kDeletedFile);
    PutVarint32(dst, static_cast<uint32_t>(level));
    PutVarint64(dst, number);
  }
  for (const NewFile& added : new_files_) {
    PutVarint32(dst, kNewFile);
    PutVarint32(dst, static_cast<uint32_t>(added.level));
    PutVarint64(dst, added.meta.number);
    PutVarint64(dst, added.meta.file_size);
    PutVarint64(dst, added.run_seq);
    PutLengthPrefixedSlice(dst, Slice(added.meta.smallest));
    PutLengthPrefixedSlice(dst, Slice(added.meta.largest));
  }
}

Status VersionEdit::DecodeFrom(const Slice& src) {
  *this = VersionEdit();
  Slice input = src;
  uint32_t tag;
  while (!input.empty()) {
    // A tag that ends mid-varint is a truncated edit, not a clean end.
    if (!GetVarint32(&input, &tag)) {
      return Status::Corruption("truncated version edit tag");
    }
    switch (tag) {
      case kComparator: {
        Slice name;
        if (!GetLengthPrefixedSlice(&input, &name)) {
          return Status::Corruption("bad comparator name in version edit");
        }
        has_comparator_ = true;
        comparator_ = name.ToString();
        break;
      }
      case kLogNumber:
        if (!GetVarint64(&input, &log_number_)) {
          return Status::Corruption("bad log number");
        }
        has_log_number_ = true;
        break;
      case kNextFileNumber:
        if (!GetVarint64(&input, &next_file_number_)) {
          return Status::Corruption("bad next file number");
        }
        has_next_file_number_ = true;
        break;
      case kLastSequence:
        if (!GetVarint64(&input, &last_sequence_)) {
          return Status::Corruption("bad last sequence");
        }
        has_last_sequence_ = true;
        break;
      case kNextRunSeq:
        if (!GetVarint64(&input, &next_run_seq_)) {
          return Status::Corruption("bad next run seq");
        }
        has_next_run_seq_ = true;
        break;
      case kDeletedFile: {
        uint32_t level;
        uint64_t number;
        if (!GetVarint32(&input, &level) || !GetVarint64(&input, &number)) {
          return Status::Corruption("bad deleted file");
        }
        deleted_files_.emplace_back(static_cast<int>(level), number);
        break;
      }
      case kNewFile: {
        uint32_t level;
        NewFile added;
        Slice smallest, largest;
        if (!GetVarint32(&input, &level) ||
            !GetVarint64(&input, &added.meta.number) ||
            !GetVarint64(&input, &added.meta.file_size) ||
            !GetVarint64(&input, &added.run_seq) ||
            !GetLengthPrefixedSlice(&input, &smallest) ||
            !GetLengthPrefixedSlice(&input, &largest)) {
          return Status::Corruption("bad new file");
        }
        added.level = static_cast<int>(level);
        added.meta.smallest = smallest.ToString();
        added.meta.largest = largest.ToString();
        new_files_.push_back(std::move(added));
        break;
      }
      default:
        return Status::Corruption("unknown version edit tag");
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------ VersionSet --

VersionSet::VersionSet(std::string dbname, const Options* options,
                       TableCache* table_cache,
                       const InternalKeyComparator* icmp,
                       const CompactionPolicy* policy)
    : dbname_(std::move(dbname)),
      options_(options),
      env_(options->env),
      table_cache_(table_cache),
      icmp_(icmp),
      policy_(policy),
      current_(std::make_shared<Version>(options->max_levels)) {}

VersionSet::~VersionSet() = default;

FileMetaPtr VersionSet::WrapFile(const FileMetaData& meta) {
  auto file = std::make_shared<FileMetaData>(meta);
  Env* env = env_;
  TableCache* cache = table_cache_;
  const std::string dbname = dbname_;
  // Reads deletion_observer_ at fire time (not capture time) so an observer
  // registered after recovery still sees recovery-era files; `this` outlives
  // every cleanup because ~VersionSet drops the last Version itself.
  file->cleanup = [this, env, cache, dbname](FileMetaData* f) {
    cache->Evict(f->number);
    // status-ok: best-effort; an undeleted table is swept as an orphan
    // on reopen.
    env->RemoveFile(TableFileName(dbname, f->number)).IgnoreError();
    if (deletion_observer_) {
      deletion_observer_(f->number);
    }
  };
  return file;
}

std::shared_ptr<Version> VersionSet::ApplyEdit(
    const Version& base, const VersionEdit& edit,
    std::vector<FileMetaPtr>* dropped) {
  auto v = std::make_shared<Version>(options_->max_levels);
  std::set<uint64_t> deleted;
  for (const auto& [level, number] : edit.deleted_files_) {
    deleted.insert(number);
  }
  // Files the edit removes, by number, until it adds them back.
  std::map<uint64_t, FileMetaPtr> removed;

  // Copy surviving files, preserving run structure.
  for (int level = 0; level < base.num_levels(); level++) {
    for (const Run& run : base.levels()[level].runs) {
      Run copy;
      copy.run_seq = run.run_seq;
      for (const FileMetaPtr& f : run.files) {
        if (deleted.count(f->number) == 0) {
          copy.files.push_back(f);
        } else {
          removed.emplace(f->number, f);
        }
      }
      if (!copy.files.empty()) {
        (*v->mutable_levels())[level].runs.push_back(std::move(copy));
      }
    }
  }

  // Insert new files, grouping by run_seq.
  for (const VersionEdit::NewFile& added : edit.new_files_) {
    if (added.level < 0 || added.level >= v->num_levels()) {
      // Levels come off the manifest; Recover rejects out-of-range ones
      // before this point, so this only defends internally-built edits.
      continue;
    }
    auto& runs = (*v->mutable_levels())[added.level].runs;
    Run* run = nullptr;
    for (Run& r : runs) {
      if (r.run_seq == added.run_seq) {
        run = &r;
        break;
      }
    }
    if (run == nullptr) {
      runs.emplace_back();
      run = &runs.back();
      run->run_seq = added.run_seq;
    }
    // A removed file added back moves: the same file in a new position.
    FileMetaPtr file;
    if (auto node = removed.extract(added.meta.number)) {
      file = std::move(node.mapped());
    } else {
      file = WrapFile(added.meta);
    }
    // Files within a run stay ordered by smallest key. A compaction adds
    // its outputs in key order, so each lands at the end in log time.
    auto pos = std::upper_bound(
        run->files.begin(), run->files.end(), file,
        [this](const FileMetaPtr& a, const FileMetaPtr& b) {
          return icmp_->Compare(Slice(a->smallest), Slice(b->smallest)) < 0;
        });
    run->files.insert(pos, std::move(file));
  }

  // Keep runs newest-first.
  for (int level = 0; level < v->num_levels(); level++) {
    auto& runs = (*v->mutable_levels())[level].runs;
    std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
      return a.run_seq > b.run_seq;
    });
  }
  if (dropped != nullptr) {
    for (auto& [number, f] : removed) {
      dropped->push_back(std::move(f));
    }
  }
  return v;
}

Status VersionSet::NewManifest() {
  manifest_number_ = NewFileNumber();
  const std::string name = ManifestFileName(dbname_, manifest_number_);
  Status s = env_->NewWritableFile(name, &manifest_file_);
  if (!s.ok()) {
    return s;
  }
  manifest_writer_ = std::make_unique<wal::Writer>(manifest_file_.get());
  VersionEdit edit;
  edit.SetComparatorName(icmp_->user_comparator()->Name());
  edit.SetNextFileNumber(next_file_number_);
  edit.SetLastSequence(last_sequence_);
  edit.SetNextRunSeq(next_run_seq_);
  edit.SetLogNumber(log_number_);
  for (int level = 0; level < current_->num_levels(); level++) {
    for (const Run& run : current_->levels()[level].runs) {
      for (const FileMetaPtr& f : run.files) {
        edit.AddFile(level, run.run_seq, *f);
      }
    }
  }
  std::string record;
  edit.EncodeTo(&record);
  s = manifest_writer_->AddRecord(Slice(record));
  if (s.ok()) {
    // The manifest must be durable before CURRENT points at it.
    s = manifest_file_->Sync();
  }
  if (!s.ok()) {
    return s;
  }
  // CURRENT is replaced, never rewritten in place, so a crash leaves the
  // old one or the new one. A temp file left behind is an orphan.
  const std::string temp = TempFileName(dbname_, manifest_number_);
  s = WriteStringToFile(env_, Slice(name.substr(dbname_.size() + 1) + "\n"),
                        temp);
  if (s.ok()) {
    s = env_->RenameFile(temp, CurrentFileName(dbname_));
  }
  return s;
}

Status VersionSet::CheckConsistency() const {
  return current_->CheckConsistency(icmp_->user_comparator());
}

Status VersionSet::LogAndApply(VersionEdit* edit) {
  if (edit->has_log_number_) {
    log_number_ = edit->log_number_;
  } else {
    edit->SetLogNumber(log_number_);
  }
  edit->SetNextFileNumber(next_file_number_);
  edit->SetLastSequence(last_sequence_);
  edit->SetNextRunSeq(next_run_seq_);

  std::vector<FileMetaPtr> dropped;
  auto v = ApplyEdit(*current_, *edit, &dropped);
#ifndef NDEBUG
  Status check = v->CheckConsistency(icmp_->user_comparator());
  if (check.ok()) {
    check = v->CheckRunBound(*current_, *policy_);
  }
  if (!check.ok()) {
    return check;
  }
#endif

  std::string record;
  edit->EncodeTo(&record);
  Status s = manifest_writer_->AddRecord(Slice(record));
  if (s.ok()) {
    s = manifest_file_->Sync();
  }
  if (!s.ok()) {
    return s;
  }
  // The edit is durable: the files it left in no run may be physically
  // deleted once the last reference (old versions, iterators) goes away.
  // Marking before the sync would let a failed install delete files a
  // crash-recovered manifest still references; files dropped on other
  // paths (recovery replay) are swept as orphans at reopen.
  for (const FileMetaPtr& f : dropped) {
    f->obsolete = true;
  }
  current_ = std::move(v);
  return Status::OK();
}

Status VersionSet::Recover() {
  // status-ok: dir may already exist; a real failure surfaces when
  // CURRENT is read.
  env_->CreateDir(dbname_).IgnoreError();
  const std::string current_name = CurrentFileName(dbname_);

  if (!env_->FileExists(current_name)) {
    if (!options_->create_if_missing) {
      return Status::InvalidArgument(dbname_, "does not exist");
    }
    // Tables without CURRENT are a database that lost it: a fresh one
    // would sweep them as orphans. A manifest alone names no data; a
    // first open that dies before its CURRENT leaves one.
    std::vector<std::string> children;
    if (env_->GetChildren(dbname_, &children).ok()) {
      for (const std::string& child : children) {
        uint64_t number;
        FileType type;
        if (ParseFileName(child, &number, &type) &&
            type == FileType::kTableFile) {
          return Status::Corruption(dbname_, "has tables but no CURRENT");
        }
      }
    }
    return NewManifest();
  }

  std::string current_contents;
  Status s = ReadFileToString(env_, current_name, &current_contents);
  if (!s.ok()) {
    return s;
  }
  if (current_contents.empty() || current_contents.back() != '\n') {
    return Status::Corruption("CURRENT file malformed");
  }
  current_contents.pop_back();
  const std::string manifest_name = dbname_ + "/" + current_contents;

  std::unique_ptr<SequentialFile> manifest;
  s = env_->NewSequentialFile(manifest_name, &manifest);
  if (!s.ok()) {
    return s;
  }
  wal::Reader reader(manifest.get());
  Slice record;
  std::string scratch;
  auto v = std::make_shared<Version>(options_->max_levels);
  while (reader.ReadRecord(&record, &scratch)) {
    VersionEdit edit;
    s = edit.DecodeFrom(record);
    if (!s.ok()) {
      return s;
    }
    // A manifest is untrusted input: levels index straight into the
    // version's level vector, so reject out-of-range ones here instead of
    // corrupting memory in ApplyEdit on a release build.
    for (const VersionEdit::NewFile& added : edit.new_files_) {
      if (added.level < 0 || added.level >= options_->max_levels) {
        return Status::Corruption("version edit level out of range");
      }
    }
    for (const auto& [level, number] : edit.deleted_files_) {
      if (level < 0 || level >= options_->max_levels) {
        return Status::Corruption("version edit level out of range");
      }
    }
    if (edit.has_comparator_ &&
        edit.comparator_ != icmp_->user_comparator()->Name()) {
      return Status::InvalidArgument("comparator mismatch: ",
                                     edit.comparator_);
    }
    if (edit.has_next_file_number_) {
      next_file_number_ = edit.next_file_number_;
    }
    if (edit.has_last_sequence_) {
      last_sequence_ = edit.last_sequence_;
    }
    if (edit.has_next_run_seq_) {
      next_run_seq_ = edit.next_run_seq_;
    }
    if (edit.has_log_number_) {
      log_number_ = edit.log_number_;
    }
    v = ApplyEdit(*v, edit, /*dropped=*/nullptr);
  }
  if (!reader.status().ok()) {
    return reader.status();
  }
  current_ = std::move(v);
#ifndef NDEBUG
  s = CheckConsistency();
  if (!s.ok()) {
    return s;
  }
#endif

  // Continue in a fresh manifest (simplest correct form of manifest
  // rollover).
  s = NewManifest();
  if (s.ok()) {
    // status-ok: best-effort; a stale manifest is ignored once CURRENT
    // moved on.
    env_->RemoveFile(manifest_name).IgnoreError();
  }
  return s;
}

void VersionSet::RemoveOrphanedFiles() {
  std::vector<std::string> children;
  if (!env_->GetChildren(dbname_, &children).ok()) {
    return;
  }
  std::set<uint64_t> live;
  for (const auto& level : current_->levels()) {
    for (const auto& run : level.runs) {
      for (const auto& f : run.files) {
        live.insert(f->number);
      }
    }
  }
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type)) {
      continue;
    }
    bool keep = true;
    switch (type) {
      case FileType::kTableFile:
        keep = live.count(number) > 0;
        break;
      case FileType::kWalFile:
        keep = number >= log_number_;
        break;
      case FileType::kManifestFile:
        keep = number >= manifest_number_;
        break;
      case FileType::kTempFile:
        keep = false;
        break;
      default:
        keep = true;
    }
    if (!keep) {
      table_cache_->Evict(number);
      // status-ok: best-effort; an unremovable orphan is retried on the
      // next reopen.
      env_->RemoveFile(dbname_ + "/" + child).IgnoreError();
    }
  }
}

}  // namespace lsmlab
