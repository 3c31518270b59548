#include "core/compaction/compaction_job.h"

#include <algorithm>
#include <map>
#include <memory>
#include <ranges>
#include <set>
#include <thread>

#include "cache/block_cache.h"
#include "core/filename.h"
#include "core/merging_iterator.h"
#include "format/sstable_builder.h"
#include "obs/perf_scope.h"
#include "util/mutex.h"

namespace lsmlab {

Status BuildTables(TableCache* tables, VersionSet* versions, Iterator* iter,
                   int output_level, bool drop_tombstones,
                   SequenceNumber smallest_snapshot,
                   std::vector<FileMetaData>* outputs,
                   uint64_t* bytes_written, Subrange range) {
  outputs->clear();
  *bytes_written = 0;
  const Options& options = tables->options();
  const Comparator* ucmp = tables->icmp().user_comparator();
  const TableOptions topts = tables->TableOptionsForLevel(output_level);

  std::unique_ptr<WritableFile> file;
  std::unique_ptr<SSTableBuilder> builder;
  FileMetaData meta;
  Status s;

  auto finish_output = [&]() -> Status {
    if (builder == nullptr || builder->NumEntries() == 0) {
      if (builder != nullptr) {
        builder->Abandon();
        builder.reset();
        file.reset();
        // status-ok: empty output; the orphan sweep catches leftovers.
        options.env->RemoveFile(TableFileName(tables->dbname(), meta.number))
            .IgnoreError();
      }
      return Status::OK();
    }
    Status fs = builder->Finish();
    if (fs.ok()) {
      meta.file_size = builder->FileSize();
      *bytes_written += meta.file_size;
      outputs->push_back(meta);
      fs = file->Close();
    }
    builder.reset();
    file.reset();
    return fs;
  };

  std::string last_user_key;
  bool has_last_user_key = false;
  SequenceNumber last_sequence_for_key = 0;

  if (range.begin != nullptr) {
    iter->Seek(LookupKey(*range.begin, kMaxSequenceNumber).internal_key());
  } else {
    iter->SeekToFirst();
  }
  for (; iter->Valid() && s.ok(); iter->Next()) {
    const Slice key = iter->key();
    const Slice user_key = ExtractUserKey(key);
    if (range.end != nullptr && ucmp->Compare(user_key, *range.end) >= 0) {
      break;
    }
    const SequenceNumber seq = ExtractSequence(key);
    const ValueType type = ExtractValueType(key);

    const bool same_key = has_last_user_key &&
                          ucmp->Compare(user_key, Slice(last_user_key)) == 0;
    if (!same_key) {
      last_user_key.assign(user_key.data(), user_key.size());
      has_last_user_key = true;
    }
    const SequenceNumber newer = last_sequence_for_key;
    last_sequence_for_key = seq;
    if (same_key && seq == newer) {
      // The previous entry again: a tree left between two installs of one
      // compaction (by a crash or a failed subrange) holds the installed
      // source-level entries in two levels. A snapshot older than them
      // keeps both copies from being shadowed.
      continue;
    }
    if (same_key && newer <= smallest_snapshot) {
      // A newer version visible to every snapshot shadows this entry.
      continue;
    }
    if (drop_tombstones && type == ValueType::kTypeDeletion &&
        seq <= smallest_snapshot) {
      // Bottom-most data: the tombstone has nothing left to delete.
      continue;
    }

    // Cut the output only at user-key boundaries: all versions of a user
    // key must live in one file, or a partial compaction could consume a
    // key's tombstone without its older versions (and vice versa),
    // breaking the bottommost-drop reasoning and run-overlap pruning.
    if (builder != nullptr && builder->FileSize() >= options.max_file_size &&
        ucmp->Compare(user_key, ExtractUserKey(Slice(meta.largest))) != 0) {
      s = finish_output();
      if (!s.ok()) {
        break;
      }
    }

    if (builder == nullptr) {
      meta = FileMetaData();
      if (range.numbers > 0) {
        meta.number = range.first_number++;
        range.numbers--;
      } else {
        meta.number = versions->NewFileNumber();
      }
      s = options.env->NewWritableFile(
          TableFileName(tables->dbname(), meta.number), &file);
      if (!s.ok()) {
        break;
      }
      builder = std::make_unique<SSTableBuilder>(topts, file.get());
      meta.smallest = key.ToString();
    }
    builder->Add(key, iter->value());
    // In place: a fresh string per entry would allocate, as internal keys
    // outgrow the small-string buffer.
    meta.largest.assign(key.data(), key.size());
  }
  if (s.ok()) {
    s = iter->status();
  }
  if (s.ok()) {
    s = finish_output();
  } else if (builder != nullptr) {
    builder->Abandon();
    builder.reset();
    file.reset();
    // status-ok: already failing; the orphan sweep catches leftovers.
    options.env->RemoveFile(TableFileName(tables->dbname(), meta.number))
        .IgnoreError();
  }
  return s;
}

namespace {

/// Input bytes per subcompaction, in units of Options::max_file_size.
/// perfbench read_cold set-up on a 4-core host, by unit: 2 → 1.19-1.32 s,
/// 4 → 1.19-1.46 s, 8 → 1.43-1.52 s, 16 → 1.98-2.23 s. 4 is about as fast
/// as 2 with half the subranges, so half the short last files.
constexpr uint64_t kSubcompactionFiles = 4;

/// Appends `files` to *runs as maximal chains whose key ranges strictly
/// increase: one merge child per sorted run, not per file, so the merge
/// costs O(entries x runs), not O(entries x files). The rule holds for any
/// file list; overlapping L0 runs just form separate chains.
void AppendRuns(const InternalKeyComparator& icmp,
                std::span<const FileMetaPtr> files,
                std::vector<std::span<const FileMetaPtr>>* runs) {
  size_t begin = 0;
  for (size_t i = 0; i < files.size(); i++) {
    const bool last = i + 1 == files.size();
    if (last || icmp.Compare(Slice(files[i]->largest),
                             Slice(files[i + 1]->smallest)) >= 0) {
      runs->push_back(files.subspan(begin, i + 1 - begin));
      begin = i + 1;
    }
  }
}

/// True when `files` can form one run (FirstOverlap, once ordered).
bool FormOneRun(const InternalKeyComparator& icmp,
                std::vector<FileMetaPtr> files) {
  std::sort(files.begin(), files.end(),
            [&icmp](const FileMetaPtr& a, const FileMetaPtr& b) {
              return icmp.Compare(Slice(a->smallest), Slice(b->smallest)) < 0;
            });
  return FirstOverlap(files, *icmp.user_comparator()) == files.size();
}

}  // namespace

std::vector<SubcompactionCut> SubcompactionCuts(
    const Comparator& ucmp,
    const std::vector<std::span<const FileMetaPtr>>& runs,
    std::optional<size_t> along, uint64_t file_bytes) {
  uint64_t total = 0;
  std::vector<uint64_t> bytes(runs.size(), 0);
  size_t largest = 0;
  for (size_t r = 0; r < runs.size(); r++) {
    for (const FileMetaPtr& f : runs[r]) {
      bytes[r] += f->file_size;
    }
    total += bytes[r];
    if (bytes[r] > bytes[largest]) {
      largest = r;
    }
  }
  const uint64_t subranges = total / (kSubcompactionFiles * file_bytes);
  auto less = [&ucmp](const std::string& a, const std::string& b) {
    return ucmp.Compare(Slice(a), Slice(b)) < 0;
  };
  std::map<std::string, bool, decltype(less)> cuts(less);
  for (const size_t r : {largest, along.value_or(largest)}) {
    const uint64_t share = bytes[r] / std::max<uint64_t>(subranges, 1);
    uint64_t seen = 0;
    uint64_t next = 1;  // the cut ending subrange `next - 1`
    for (size_t i = 1; i < runs[r].size() && next < subranges; i++) {
      seen += runs[r][i - 1]->file_size;
      if (seen < next * share) {
        continue;
      }
      cuts[ExtractUserKey(Slice(runs[r][i]->smallest)).ToString()] |=
          !along.has_value() || r == *along;
      while (next < subranges && seen >= next * share) {
        next++;
      }
    }
  }
  return {cuts.begin(), cuts.end()};
}

CompactionJob::CompactionJob(CompactionPick pick, const Version& base,
                             TableCache* tables, VersionSet* versions,
                             SequenceNumber smallest_snapshot,
                             uint64_t run_seq, int helpers,
                             InstallHook install)
    : pick_(std::move(pick)),
      tables_(tables),
      versions_(versions),
      smallest_snapshot_(smallest_snapshot),
      run_seq_(run_seq),
      helpers_(helpers),
      install_(std::move(install)) {
  const CompactionPick& p = pick_;
  if (p.drop_only) {
    return;
  }
  // A pick whose inputs can form one run below, where they overlap
  // nothing, moves them instead of merging. A moved table keeps the filter
  // it was built with, so the move needs the output level to get the same
  // filter bits: always under uniform bits, rarely under Monkey.
  move_ = p.output_level != p.level && p.output_overlaps.empty() &&
          tables_->FilterBitsPerKey(p.level) ==
              tables_->FilterBitsPerKey(p.output_level) &&
          FormOneRun(tables_->icmp(), p.inputs);
  if (move_) {
    return;
  }
  // Tombstones can be dropped only when nothing deeper can hold the key:
  // no data below the output level, and every *other* run of the output
  // level is either the run we merge into (its remaining files cannot
  // overlap the compaction key range, or they would be in output_overlaps)
  // or fully consumed by this compaction.
  bottommost_ = base.MaxPopulatedLevel() <= p.output_level;
  std::set<uint64_t> consumed;
  for (const auto* files : {&p.inputs, &p.output_overlaps}) {
    for (const FileMetaPtr& f : *files) {
      consumed.insert(f->number);
    }
  }
  for (const auto& run : base.levels()[p.output_level].runs) {
    if (!bottommost_) {
      break;
    }
    if (p.output_run_seq != 0 && run.run_seq == p.output_run_seq) {
      continue;
    }
    for (const FileMetaPtr& f : run.files) {
      if (consumed.count(f->number) == 0) {
        bottommost_ = false;
        break;
      }
    }
  }
}

Status CompactionJob::Run() {
  if (pick_.drop_only) {
    return Install({}, /*end=*/nullptr);
  }
  if (move_) {
    // The moved files keep what a merge into the bottom level would drop
    // (shadowed versions, tombstones) until a merge rewrites them.
    std::vector<FileMetaData> moved;
    for (const FileMetaPtr& f : pick_.inputs) {
      moved.push_back(*f);
    }
    return Install(moved, /*end=*/nullptr);
  }
  // Leaper-style re-warm (tutorial §II-1): if the compaction consumes hot
  // files, each install first loads its outputs' blocks, so readers do
  // not take a burst of cold misses.
  const Options& options = tables_->options();
  if (options.prefetch_after_compaction && options.block_cache != nullptr) {
    uint64_t input_accesses = 0;
    for (const auto* files : {&pick_.inputs, &pick_.output_overlaps}) {
      for (const FileMetaPtr& f : *files) {
        input_accesses += options.block_cache->FileAccesses(f->number);
      }
    }
    if (input_accesses >= options.prefetch_hotness_threshold) {
      prefetch_budget_ = options.prefetch_budget_bytes;
    }
  }
  return MergeRuns();
}

Status CompactionJob::Install(std::span<const FileMetaData> outputs,
                              const Slice* end) {
  const bool final = end == nullptr;
  // The output-level inputs lying wholly below the installed prefix's end;
  // null entries were removed by an earlier install.
  const Comparator* ucmp = tables_->icmp().user_comparator();
  auto removes = [&](const FileMetaPtr& f) {
    return f != nullptr &&
           (final ||
            ucmp->Compare(ExtractUserKey(Slice(f->largest)), *end) < 0);
  };
  VersionEdit edit;
  if (final) {
    for (const FileMetaPtr& f : pick_.inputs) {
      edit.RemoveFile(pick_.level, f->number);
    }
  }
  for (const FileMetaPtr& f : pick_.output_overlaps) {
    if (removes(f)) {
      edit.RemoveFile(pick_.output_level, f->number);
    }
  }
  for (const FileMetaData& meta : outputs) {
    edit.AddFile(pick_.output_level, run_seq_, meta);
  }
  Status s = install_(&edit);
  if (!s.ok()) {
    // Outputs of a failed merge install never became live: drop any
    // reader the re-warm opened. A move's files are live either way.
    if (!move_) {
      for (const FileMetaData& meta : outputs) {
        tables_->Evict(meta.number);
      }
    }
    return s;
  }
  // The last reference to an input that left the tree deletes its file.
  for (FileMetaPtr& f : pick_.output_overlaps) {
    if (removes(f)) {
      f.reset();
    }
  }
  if (final) {
    for (FileMetaPtr& f : pick_.inputs) {
      if (move_) {
        // The read trigger counts wasted probes at the file's level.
        f->wasted_probes.store(0, std::memory_order_relaxed);
      }
      f.reset();
    }
  }
  if (!move_) {
    installed_.insert(installed_.end(), outputs.begin(), outputs.end());
  }
  return Status::OK();
}

Status CompactionJob::MergeRuns() {
  const int output_level = pick_.output_level;
  const InternalKeyComparator& icmp = tables_->icmp();
  const Comparator* ucmp = icmp.user_comparator();
  // Views of the pick's vectors. An install nulls the entries it removes
  // but never resizes them, and no subrange that starts later reads a
  // removed file (its largest key lies below the subrange).
  std::vector<std::span<const FileMetaPtr>> runs;
  AppendRuns(icmp, pick_.inputs, &runs);
  const size_t source_runs = runs.size();  // the rest are output-level runs
  AppendRuns(icmp, pick_.output_overlaps, &runs);
  const uint64_t file_bytes =
      std::max<size_t>(1, tables_->options().max_file_size);
  // A merge that joins a run and rewrites part of it (its output-level
  // inputs are one chain) installs only where no file the run keeps
  // straddles the end.
  std::optional<size_t> along;
  if (pick_.output_run_seq != 0 && runs.size() > source_runs) {
    along = source_runs;
  }
  const std::vector<SubcompactionCut> cuts =
      pick_.subcompactions ? SubcompactionCuts(*ucmp, runs, along, file_bytes)
                          : std::vector<SubcompactionCut>();
  const auto keys = cuts | std::views::keys;
  const std::vector<Slice> bounds(keys.begin(), keys.end());
  const bool removes = !pick_.output_overlaps.empty();
  struct Subcompaction {
    std::vector<std::pair<std::span<const FileMetaPtr>, int>> runs;  // level
    Subrange range;
    bool ends_install = false;  // an install may end after it
    // With subs[0, i) installed, subranges below subs[i].reach may start:
    // the window, stretched to the end of the next install, or the
    // builders would wait for an install that waits for them.
    size_t reach = 0;
    std::vector<FileMetaData> outputs;
    uint64_t bytes_written = 0;
    Status status;
  };
  // Subrange i holds user keys [cuts[i-1], cuts[i]); the first and last
  // are open. Fence pointers narrow each run to the files overlapping it.
  std::vector<Subcompaction> subs(cuts.size() + 1);
  uint64_t numbers = 0;
  for (size_t i = 0; i < subs.size(); i++) {
    Subcompaction& sub = subs[i];
    sub.range.begin = i > 0 ? &bounds[i - 1] : nullptr;
    sub.range.end = i < bounds.size() ? &bounds[i] : nullptr;
    sub.ends_install = i == cuts.size() || (removes && cuts[i].second);
    uint64_t input_bytes = 0;
    for (size_t r = 0; r < runs.size(); r++) {
      const std::span<const FileMetaPtr> files =
          FenceSearch(runs[r], *ucmp, sub.range.begin, sub.range.end,
                      /*hi_open=*/true);
      if (!files.empty()) {
        sub.runs.emplace_back(files,
                              r < source_runs ? pick_.level : output_level);
        for (const FileMetaPtr& f : files) {
          input_bytes += f->file_size;
        }
      }
    }
    // Output numbers follow key order whoever builds first, as in a
    // serial merge; a subrange that outgrows its share draws fresh ones.
    sub.range.numbers = subs.size() > 1 ? input_bytes / file_bytes + 2 : 0;
    numbers += sub.range.numbers;
  }
  if (numbers > 0) {
    uint64_t next_number = versions_->NewFileNumber(numbers);
    for (Subcompaction& sub : subs) {
      sub.range.first_number = next_number;
      next_number += sub.range.numbers;
    }
  }

  // The calling thread works too; helpers are short-lived threads, not the
  // DB's background pool, which runs this compaction and, when shared,
  // other shards' work. Shards compacting together may ask for more
  // threads than there are cores; EXPERIMENTS.md E22 measured no loss.
  size_t helpers = static_cast<size_t>(std::max(helpers_, 0));
  if (helpers_ < 0 && std::thread::hardware_concurrency() > 1) {
    helpers = std::thread::hardware_concurrency() - 1;
  }
  helpers = std::min(helpers, subs.size() - 1);
  // Each time the finished prefix of subranges grows to an end an install
  // may take, it is installed, and no subrange starts 2 x threads or more
  // ahead of the installed prefix unless the next install ends further
  // on: uninstalled outputs stay about two per thread. A merge that
  // removes no output-level input frees nothing early; it installs once,
  // at the end, and runs ahead freely.
  const size_t window = removes ? 2 * (helpers + 1) : subs.size();
  for (size_t i = subs.size(), end = subs.size(); i-- > 0;) {
    end = subs[i].ends_install ? i + 1 : end;
    subs[i].reach = std::max(i + window, end);
  }

  // Subranges start in key order; subs[0, finished) are built and end
  // where an install may end, and subs[0, installed) are installed.
  Mutex progress_mu;
  CondVar progress_cv(&progress_mu);
  size_t next = 0;
  size_t finished = 0;
  size_t installed = 0;
  bool installing = false;
  std::vector<bool> done(subs.size(), false);
  bool failed = false;
  Status s;  // the failed install's status

  auto build = [&](Subcompaction& sub) {
    std::vector<Iterator*> children;
    for (const auto& [files, level] : sub.runs) {
      children.push_back(tables_->NewRunIterator(files, level,
                                                 /*range=*/nullptr,
                                                 /*fill_cache=*/false));
    }
    std::unique_ptr<Iterator> merged(NewMergingIterator(
        &icmp, children.data(), static_cast<int>(children.size())));
    sub.status = BuildTables(tables_, versions_, merged.get(),
                             output_level, /*drop_tombstones=*/bottommost_,
                             smallest_snapshot_, &sub.outputs,
                             &sub.bytes_written, sub.range);
  };
  auto install = [&](size_t begin, size_t end) {
    std::vector<FileMetaData> batch;
    for (size_t i = begin; i < end; i++) {
      batch.insert(batch.end(), subs[i].outputs.begin(),
                   subs[i].outputs.end());
    }
    PrefetchOutputs(batch);
    return Install(batch, subs[end - 1].range.end);
  };
  // Every thread runs one loop until all is installed or a step failed:
  // install the finished prefix if no install is running, else build the
  // next subrange the window allows, else wait.
  auto work = [&] {
    progress_mu.Lock();
    while (!failed && installed < subs.size()) {
      if (finished > installed && !installing) {
        const size_t begin = installed;
        const size_t end = finished;
        installing = true;
        progress_mu.Unlock();
        Status is = install(begin, end);
        progress_mu.Lock();
        installing = false;
        if (is.ok()) {
          installed = end;
        } else {
          failed = true;
          s = std::move(is);
        }
      } else if (next < subs.size() && next < subs[installed].reach) {
        const size_t i = next++;
        progress_mu.Unlock();
        build(subs[i]);
        progress_mu.Lock();
        done[i] = true;
        failed = failed || !subs[i].status.ok();
        for (size_t j = finished; j < subs.size() && done[j]; j++) {
          finished = subs[j].ends_install ? j + 1 : finished;
        }
      } else {
        progress_cv.Wait();
        continue;
      }
      progress_cv.SignalAll();
    }
    progress_mu.Unlock();
  };
  {
    std::vector<std::jthread> threads;  // joined on every path out
    threads.reserve(helpers);
    for (size_t t = 0; t < helpers; t++) {
      threads.emplace_back([&] {
        // A helper's block reads and merge steps count in the DB's
        // tickers, as the caller's do when its operation ends.
        PerfScope scope(tables_->stats());
        work();
      });
    }
    work();
  }

  // A subrange skipped after a failure has no outputs and an OK status,
  // so the failure still surfaces.
  bytes_written_ = 0;
  for (const Subcompaction& sub : subs) {
    if (s.ok()) {
      s = sub.status;
    }
    bytes_written_ += sub.bytes_written;
  }
  return s;
}

void CompactionJob::PrefetchOutputs(std::span<const FileMetaData> outputs) {
  for (const FileMetaData& meta : outputs) {
    if (prefetch_budget_ == 0) {
      break;
    }
    std::shared_ptr<SSTable> table;
    if (!tables_->FindTable(meta, pick_.output_level, &table).ok()) {
      continue;
    }
    const size_t loaded = table->PrefetchBlocks(prefetch_budget_);
    prefetch_budget_ = loaded >= prefetch_budget_ ? 0
                                                  : prefetch_budget_ - loaded;
  }
}

}  // namespace lsmlab
