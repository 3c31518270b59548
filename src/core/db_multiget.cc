/// DB::Get and DB::MultiGet — the point-lookup core.
///
/// Both APIs run one function, LookupKeys; Get is a batch of one. A lookup
/// pins the read view (memtables, version, sequence) exactly once, probes
/// the memtables for every key, then walks the tree run by run. The keys
/// still unresolved are sorted once by user key, so the keys one file
/// serves form a contiguous subspan (one FindFileInRun per key per run),
/// and inside the table the keys one data block serves do too: every
/// distinct block is fetched at most once no matter how many keys land in
/// it (TableCache::GetBatch -> SSTable::MultiGet). Separated values resolve
/// through one ValueLog::GetBatch sorted by (file, offset).
///
/// Lock discipline: mu_ is held only for the initial pin; all lookup I/O
/// runs unlocked against immutable state (the pinned version and its
/// files). Per-key statuses observe the corruption contract — a corrupt
/// block or value-log record fails only the keys it serves.

#include <algorithm>
#include <vector>

#include "core/db_impl.h"
#include "obs/perf_context.h"
#include "util/hash.h"

namespace lsmlab {

namespace {

/// One key's state across the whole lookup.
struct KeyState {
  KeyState(const Slice& user_key, SequenceNumber sequence, std::string* value,
           Status* status)
      : lkey(user_key, sequence), value(value), status(status) {}

  LookupKey lkey;        // owns the encoded key bytes the Slices point into
  BatchGetContext ctx;
  std::string* value;    // the caller's slot; holds the raw stored value
  Status* status;        // the caller's slot
  const Comparator* ucmp = nullptr;
  enum : uint8_t { kNotFound, kFound, kDeleted } state = kNotFound;
  bool failed = false;   // an I/O/corruption error is this key's answer
  std::string pointer;   // a separated value's vlog pointer, once resolved
};

/// BatchGetContext handler: plain function pointer, `arg` is the KeyState.
void SaveValue(void* arg, const Slice& ikey, const Slice& v) {
  auto* ks = static_cast<KeyState*>(arg);
  if (ks->state != KeyState::kNotFound) {
    return;  // already answered by a newer run
  }
  if (ks->ucmp->Compare(ExtractUserKey(ikey), ks->ctx.searchable) != 0) {
    return;  // seek overshot into the next user key: not present here
  }
  if (ExtractValueType(ikey) == ValueType::kTypeDeletion) {
    ks->state = KeyState::kDeleted;
  } else {
    ks->value->assign(v.data(), v.size());
    ks->state = KeyState::kFound;
  }
}

}  // namespace

Status DBImpl::Get(const ReadOptions& options, const Slice& key,
                   std::string* value) {
  // Measure the lookup with thread-local counters, folded into the
  // DB-wide registry when the scope ends — one snapshot/subtract per
  // operation, no atomics on the per-probe hot path.
  OpScope op(this, &PerfContext::get_micros, PhaseHistogram::kGetMicros);
  stats_.Add(Ticker::kGets);
  Status s;
  LookupKeys(options, std::span<const Slice>(&key, 1),
             std::span<std::string>(value, 1), std::span<Status>(&s, 1));
  if (s.ok()) {
    stats_.Add(Ticker::kGetsFound);
  }
  return s;
}

void DBImpl::MultiGet(const ReadOptions& options, std::span<const Slice> keys,
                      std::vector<std::string>* values,
                      std::vector<Status>* statuses) {
  OpScope op(this, &PerfContext::multiget_micros,
             PhaseHistogram::kMultiGetMicros);
  stats_.Add(Ticker::kMultiGets);
  PerfContext* perf = GetPerfContext();
  perf->multiget_keys += keys.size();
  values->clear();
  values->resize(keys.size());
  statuses->resize(keys.size());
  perf->multiget_filter_pruned += LookupKeys(options, keys, *values, *statuses);
}

size_t DBImpl::LookupKeys(const ReadOptions& options,
                          std::span<const Slice> keys,
                          std::span<std::string> values,
                          std::span<Status> statuses) {
  if (keys.empty()) {
    return 0;
  }
  // Pin one consistent view for the whole lookup: every key resolves at
  // the same sequence against the same memtables and tree shape, regardless
  // of concurrent writes and flushes.
  MemTable* mem;
  MemTable* imm = nullptr;
  VersionPtr version;
  SequenceNumber sequence;
  {
    const ReadView view = PinReadView(options);
    mem = view.mem;
    imm = view.imm;
    version = view.version;
    sequence = view.sequence;
  }

  const Comparator* ucmp = icmp_.user_comparator();
  std::vector<KeyState> states;
  // reserve() is load-bearing: ctx.target/searchable are Slices into each
  // LookupKey's internal buffer, so the vector must never reallocate after
  // the Slices are taken.
  states.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    states.emplace_back(keys[i], sequence, &values[i], &statuses[i]);
  }
  for (KeyState& ks : states) {
    ks.ucmp = ucmp;
    ks.ctx.target = ks.lkey.internal_key();
    ks.ctx.searchable = ks.lkey.user_key();
    ks.ctx.handler = &SaveValue;
    ks.ctx.arg = &ks;
  }

  // Phase 1: newest data first — the live memtable, then the frozen one.
  std::vector<BatchGetContext*> pending;
  pending.reserve(states.size());
  for (KeyState& ks : states) {
    Status mem_status;
    if (mem->Get(ks.lkey, ks.value, &mem_status) ||
        (imm != nullptr && imm->Get(ks.lkey, ks.value, &mem_status))) {
      GetPerfContext()->memtable_hit_count++;
      ks.state = mem_status.ok() ? KeyState::kFound : KeyState::kDeleted;
    } else {
      // Hash each user key once; every filter probe across every run
      // reuses it (shared hashing, tutorial §II-2 [95]).
      ks.ctx.hash = Hash64(ks.ctx.searchable);
      pending.push_back(&ks.ctx);
    }
  }
  mem->Unref();
  if (imm != nullptr) {
    imm->Unref();
  }

  // Phase 2: the tree, newest run first. Sorted by user key, the keys one
  // file (and, inside it, one block) serves are contiguous. After each run,
  // keys that got an answer (or a confined error) leave the pending set;
  // the erase keeps the order, so the set narrows as it descends and stays
  // sorted.
  std::sort(pending.begin(), pending.end(),
            [ucmp](const BatchGetContext* a, const BatchGetContext* b) {
              return ucmp->Compare(a->searchable, b->searchable) < 0;
            });
  size_t filter_pruned = 0;
  auto probe_file = [&](const FileMetaPtr& file, int level,
                        std::span<BatchGetContext* const> ctxs) {
    table_cache_->GetBatch(*file, level, ctxs, options.use_filter);
    for (BatchGetContext* ctx : ctxs) {
      KeyState* ks = static_cast<KeyState*>(ctx->arg);
      if (ctx->filter_pruned) {
        stats_.Add(Ticker::kFilterSkips);
        filter_pruned++;
        continue;
      }
      if (!ctx->status.ok()) {
        // Confined failure: the error is this key's final answer; the rest
        // of the lookup keeps probing.
        *ks->status = ctx->status;
        ks->failed = true;
        continue;
      }
      stats_.Add(Ticker::kRunsProbed);
      if (ks->state == KeyState::kNotFound) {
        // The probe paid an I/O and found nothing: read-trigger signal.
        const uint64_t wasted =
            file->wasted_probes.fetch_add(1, std::memory_order_relaxed) + 1;
        if (options_.seek_compaction_threshold > 0 &&
            wasted >= options_.seek_compaction_threshold) {
          pending_seek_compaction_.store(true, std::memory_order_relaxed);
        }
      }
    }
  };
  for (int level = 0; level < version->num_levels() && !pending.empty();
       level++) {
    for (const Run& run : version->levels()[level].runs) {
      if (pending.empty()) {
        break;
      }
      // pending[begin, i) are the keys `file` covers (none when null).
      const FileMetaPtr* file = nullptr;
      size_t begin = 0;
      for (size_t i = 0; i <= pending.size(); i++) {
        const FileMetaPtr* next =
            i < pending.size()
                ? FindFileInRun(run, ucmp, pending[i]->searchable)
                : nullptr;
        if (i < pending.size() && next == file) {
          continue;
        }
        if (file != nullptr) {
          probe_file(*file, level,
                     std::span<BatchGetContext* const>(pending).subspan(
                         begin, i - begin));
        }
        file = next;
        begin = i;
      }
      pending.erase(
          std::remove_if(pending.begin(), pending.end(),
                         [](const BatchGetContext* ctx) {
                           const auto* ks = static_cast<KeyState*>(ctx->arg);
                           return ks->state != KeyState::kNotFound ||
                                  ks->failed;
                         }),
          pending.end());
    }
  }

  // Phase 3: per-key outcomes. Separated values are collected and resolved
  // in one (file, offset)-sorted pass over the value log.
  std::vector<ValueLog::BatchRead> vlog_reads;
  for (KeyState& ks : states) {
    if (ks.failed) {
      continue;  // the confined error is already in the slot
    }
    if (ks.state != KeyState::kFound) {
      *ks.status = Status::NotFound("");
      continue;
    }
    *ks.status = Status::OK();
    if (vlog_ == nullptr) {
      continue;
    }
    std::string& stored = *ks.value;
    Slice payload(stored);
    bool pointer = false;
    *ks.status = DecodeValueTag(&payload, &pointer);
    if (!pointer) {
      stored.erase(0, stored.size() - payload.size());
    } else {
      stats_.Add(Ticker::kSeparatedReads);
      // The slot receives the value; the pointer moves out of it.
      ks.pointer.assign(payload.data(), payload.size());
      vlog_reads.push_back(
          ValueLog::BatchRead{Slice(ks.pointer), ks.value, ks.status});
    }
  }
  if (!vlog_reads.empty()) {
    vlog_->GetBatch(&vlog_reads);
  }
  return filter_pruned;
}

}  // namespace lsmlab
