#include "core/sharded_db.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "core/merging_iterator.h"
#include "storage/env.h"
#include "util/hash.h"

namespace lsmlab {

// ------------------------------------------------------------- Routing --

uint32_t ShardOfKey(const Slice& key, uint32_t num_shards) {
  assert(num_shards > 0);
  return static_cast<uint32_t>(Hash64(key, kShardRouteSeed) % num_shards);
}

std::string ShardPath(const std::string& dbname, int shard) {
  return dbname + "/shard-" + std::to_string(shard);
}

namespace {

/// Consumes the decimal number at the front of *in into *n. False when
/// *in starts with no digit or the number passes kMaxShards, so no digit
/// run can overflow an int. The one parse of a shard count or index:
/// ReadShardMarker and GetProperty's "lsmlab.shard.<k>.".
bool ConsumeShardNumber(Slice* in, int* n) {
  *n = 0;
  size_t digits = 0;
  for (; digits < in->size() && (*in)[digits] >= '0' && (*in)[digits] <= '9';
       digits++) {
    *n = *n * 10 + ((*in)[digits] - '0');
    if (*n > kMaxShards) {
      return false;
    }
  }
  in->remove_prefix(digits);
  return digits > 0;
}

}  // namespace

Status ReadShardMarker(Env* env, const std::string& name, int* shards) {
  *shards = 0;
  const std::string marker = name + "/" + kShardMarkerFile;
  if (!env->FileExists(marker)) {
    return Status::OK();
  }
  std::string contents;
  Status s = ReadFileToString(env, marker, &contents);
  if (!s.ok()) {
    return s;
  }
  Slice in(contents);  // a trailing newline is tolerated
  int count = 0;
  if (!ConsumeShardNumber(&in, &count) || count < 1) {
    return Status::Corruption(marker, "shard count not in [1, kMaxShards]");
  }
  *shards = count;
  return Status::OK();
}

Status CheckShardMarker(const Options& options, const std::string& name) {
  int recorded = 0;
  Status s = ReadShardMarker(options.env, name, &recorded);
  if (!s.ok()) {
    return s;
  }
  if (recorded > 0 && recorded != options.num_shards) {
    return Status::InvalidArgument(
        name, "created with " + std::to_string(recorded) +
                  " shards; reopen with Options::num_shards = " +
                  std::to_string(recorded));
  }
  if (recorded > 0 || options.num_shards <= 1) {
    return Status::OK();  // a matching marker, or a plain layout
  }
  // First sharded open: record the count before any shard writes data, so
  // a crash mid-create cannot leave shard directories with no marker.
  s = options.env->CreateDir(name);
  if (!s.ok()) {
    return s;
  }
  return WriteStringToFile(options.env,
                           std::to_string(options.num_shards) + "\n",
                           name + "/" + kShardMarkerFile);
}

// ------------------------------------------------------------ Snapshots --

/// One Snapshot handle per shard, all taken at the same GetSnapshot call.
/// There is no global sequence across shards; consistency is the vector
/// itself (each reader of the snapshot sees each shard at its member
/// snapshot). sequence() reports the max member sequence, for display.
class ShardedDB::ShardedSnapshot : public Snapshot {
 public:
  explicit ShardedSnapshot(std::vector<const Snapshot*> members)
      : members_(std::move(members)) {}

  SequenceNumber sequence() const override {
    SequenceNumber max_seq = 0;
    for (const Snapshot* s : members_) {
      max_seq = std::max(max_seq, s->sequence());
    }
    return max_seq;
  }

  const Snapshot* member(int shard) const { return members_[shard]; }

 private:
  std::vector<const Snapshot*> members_;
};

const Snapshot* ShardedDB::GetSnapshot() {
  std::vector<const Snapshot*> members;
  members.reserve(num_shards_);
  for (const auto& shard : shards_) {
    members.push_back(shard->GetSnapshot());
  }
  return new ShardedSnapshot(std::move(members));
}

void ShardedDB::ReleaseSnapshot(const Snapshot* snapshot) {
  if (snapshot == nullptr) {
    return;
  }
  const auto* sharded = static_cast<const ShardedSnapshot*>(snapshot);
  for (int k = 0; k < num_shards_; k++) {
    shards_[k]->ReleaseSnapshot(sharded->member(k));
  }
  delete sharded;
}

ReadOptions ShardedDB::ShardReadOptions(const ReadOptions& options,
                                        int shard) const {
  ReadOptions ro = options;
  if (options.snapshot != nullptr) {
    ro.snapshot =
        static_cast<const ShardedSnapshot*>(options.snapshot)->member(shard);
  }
  return ro;
}

// ------------------------------------------------------------ Lifecycle --

ShardedDB::ShardedDB(const Options& options, std::string dbname)
    : options_(options),
      dbname_(std::move(dbname)),
      num_shards_(options.num_shards) {
  assert(num_shards_ > 1);
  if (options_.background_compaction) {
    bg_pool_ = std::make_unique<ThreadPool>(num_shards_);
  }
  dispatch_pool_ = std::make_unique<ThreadPool>(num_shards_);
  shards_.reserve(num_shards_);
  for (int k = 0; k < num_shards_; k++) {
    shards_.push_back(std::make_unique<DBImpl>(
        options_, ShardPath(dbname_, k), bg_pool_.get()));
  }
}

ShardedDB::~ShardedDB() {
  // Stop the shared pools before the shards. Shutdown drains: background
  // work already queued (e.g. a flush of a frozen memtable) still runs,
  // while any MaybeScheduleBackgroundWork racing with the drain takes the
  // Schedule()==false path and resets its flag — the kDraining contract.
  // Unflushed memtables the drain leaves behind are recovered from each
  // shard's WAL on the next open.
  if (bg_pool_ != nullptr) {
    bg_pool_->Shutdown();
  }
  dispatch_pool_->Shutdown();
  shards_.clear();
}

Status ShardedDB::Init() {
  // The root must exist before each shard creates its subdirectory (the
  // marker write normally creates it, but be safe on handmade layouts).
  Status s = options_.env->CreateDir(dbname_);
  if (!s.ok()) {
    return s;
  }
  for (const auto& shard : shards_) {
    s = shard->Init();
    if (!s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

// -------------------------------------------------------------- Fan-out --

void ShardedDB::FanOut(const std::vector<int>& targets,
                       const std::function<void(int)>& fn) {
  if (targets.empty()) {
    return;
  }
  if (targets.size() == 1) {
    fn(targets[0]);
    return;
  }
  // Dispatch all but the first target; this thread works too instead of
  // just blocking. `remaining` lives on this frame — safe because we do
  // not return until it reaches zero.
  int remaining = 0;
  {
    MutexLock lock(&mu_);
    remaining = static_cast<int>(targets.size()) - 1;
  }
  std::vector<int> inline_targets;
  inline_targets.push_back(targets[0]);
  for (size_t i = 1; i < targets.size(); i++) {
    const int target = targets[i];
    const bool queued = dispatch_pool_->Schedule([this, target, &fn,
                                                  &remaining] {
      fn(target);
      MutexLock lock(&mu_);
      remaining--;
      fanout_cv_.SignalAll();
    });
    if (!queued) {
      // Pool draining (teardown); honor the rejection by running inline.
      inline_targets.push_back(target);
      MutexLock lock(&mu_);
      remaining--;
    }
  }
  for (int target : inline_targets) {
    fn(target);
  }
  MutexLock lock(&mu_);
  while (remaining > 0) {
    fanout_cv_.Wait();
  }
}

// ------------------------------------------------------------ Write path --

Status ShardedDB::Put(const WriteOptions& options, const Slice& key,
                      const Slice& value) {
  return shards_[ShardOf(key)]->Put(options, key, value);
}

Status ShardedDB::Delete(const WriteOptions& options, const Slice& key) {
  return shards_[ShardOf(key)]->Delete(options, key);
}

namespace {

/// Routes a batch's entries into one sub-batch per shard.
class ShardSplitter : public WriteBatch::Handler {
 public:
  explicit ShardSplitter(int num_shards) : subs_(num_shards) {}

  void Put(const Slice& key, const Slice& value) override {
    subs_[ShardOfKey(key, static_cast<uint32_t>(subs_.size()))].Put(key,
                                                                    value);
  }
  void Delete(const Slice& key) override {
    subs_[ShardOfKey(key, static_cast<uint32_t>(subs_.size()))].Delete(key);
  }

  std::vector<WriteBatch>& subs() { return subs_; }

 private:
  std::vector<WriteBatch> subs_;
};

void MergeStatus(Status* dst, const Status& src) {
  if (dst->ok() && !src.ok()) {
    *dst = src;
  }
}

}  // namespace

Status ShardedDB::Write(const WriteOptions& options, WriteBatch* updates) {
  if (updates == nullptr || updates->Count() == 0) {
    return shards_[0]->Write(options, updates);
  }
  ShardSplitter splitter(num_shards_);
  Status s = updates->Iterate(&splitter);
  if (!s.ok()) {
    return s;
  }
  std::vector<int> targets;
  for (int k = 0; k < num_shards_; k++) {
    if (splitter.subs()[k].Count() > 0) {
      targets.push_back(k);
    }
  }
  if (targets.size() == 1) {
    // Single-shard batch: full batch atomicity on that shard.
    return shards_[targets[0]]->Write(options, &splitter.subs()[targets[0]]);
  }
  // Cross-shard batch: each sub-batch commits atomically on its shard
  // (in parallel), but there is no cross-shard commit point — a reader
  // may observe shard A's sub-batch before shard B's lands.
  std::vector<Status> statuses(num_shards_);
  FanOut(targets, [&](int k) {
    statuses[k] = shards_[k]->Write(options, &splitter.subs()[k]);
  });
  for (int k : targets) {
    MergeStatus(&s, statuses[k]);
  }
  return s;
}

// ------------------------------------------------------------- Read path --

Status ShardedDB::Get(const ReadOptions& options, const Slice& key,
                      std::string* value) {
  const int k = static_cast<int>(ShardOf(key));
  return shards_[k]->Get(ShardReadOptions(options, k), key, value);
}

void ShardedDB::MultiGet(const ReadOptions& options,
                         std::span<const Slice> keys,
                         std::vector<std::string>* values,
                         std::vector<Status>* statuses) {
  values->assign(keys.size(), std::string());
  statuses->assign(keys.size(), Status::OK());
  if (keys.empty()) {
    return;
  }
  // Partition the key list by shard, remembering original slots so the
  // scattered answers land back in caller order.
  std::vector<std::vector<size_t>> slots(num_shards_);
  for (size_t i = 0; i < keys.size(); i++) {
    slots[ShardOf(keys[i])].push_back(i);
  }
  std::vector<int> targets;
  for (int k = 0; k < num_shards_; k++) {
    if (!slots[k].empty()) {
      targets.push_back(k);
    }
  }
  FanOut(targets, [&](int k) {
    std::vector<Slice> sub_keys;
    sub_keys.reserve(slots[k].size());
    for (size_t slot : slots[k]) {
      sub_keys.push_back(keys[slot]);
    }
    std::vector<std::string> sub_values;
    std::vector<Status> sub_statuses;
    shards_[k]->MultiGet(ShardReadOptions(options, k), sub_keys, &sub_values,
                         &sub_statuses);
    for (size_t j = 0; j < slots[k].size(); j++) {
      (*values)[slots[k][j]] = std::move(sub_values[j]);
      (*statuses)[slots[k][j]] = sub_statuses[j];
    }
  });
}

Iterator* ShardedDB::NewIterator(const ReadOptions& options) {
  return NewMergedIterator(options, nullptr);
}

Iterator* ShardedDB::NewMergedIterator(const ReadOptions& options,
                                       const DBImpl::KeyRange* range) {
  // Each shard's iterator pins that shard's view (its member of a sharded
  // snapshot, else its latest state) as it is built. User keys are
  // disjoint across shards (a key hashes to exactly one), so the merge
  // needs no cross-shard dedup.
  std::vector<Iterator*> children(num_shards_);
  for (int k = 0; k < num_shards_; k++) {
    children[k] = shards_[k]->NewReadIterator(ShardReadOptions(options, k),
                                              range, /*resolve_values=*/true);
  }
  return NewMergingIterator(options_.comparator, children.data(),
                            num_shards_);
}

Status ShardedDB::Scan(
    const ReadOptions& options, const Slice& start, const Slice& end,
    size_t limit,
    std::vector<std::pair<std::string, std::string>>* results) {
  // One loop over the merged shard iterators: every shard is sought once,
  // and only the rows the merge emits are stepped, so the scan reads about
  // `limit` rows in total. Shard 0 takes the scan's tickers, as it answers
  // lsmlab.perf-context for the whole DB.
  const DBImpl::KeyRange range{start, end};
  return shards_[0]->CollectRange(
      [&] { return NewMergedIterator(options, &range); }, range, limit,
      results);
}

// ---------------------------------------------------------- Maintenance --

Status ShardedDB::OnEveryShard(Status (DBImpl::*op)()) {
  std::vector<Status> statuses(num_shards_);
  std::vector<int> targets(num_shards_);
  std::iota(targets.begin(), targets.end(), 0);
  FanOut(targets, [&](int k) { statuses[k] = (*shards_[k].*op)(); });
  Status s;
  for (const Status& st : statuses) {
    MergeStatus(&s, st);
  }
  return s;
}

Status ShardedDB::CompactAll() { return OnEveryShard(&DBImpl::CompactAll); }

Status ShardedDB::Flush() { return OnEveryShard(&DBImpl::Flush); }

Status ShardedDB::GarbageCollectValues() {
  // Sequential: vlog GC is rare, heavy, and per-shard independent.
  Status s;
  for (const auto& shard : shards_) {
    MergeStatus(&s, shard->GarbageCollectValues());
  }
  return s;
}

// -------------------------------------------------------- Observability --

StatsSnapshot ShardedDB::MergedStats() const {
  // Each shard copies its histograms under its own hist_mu_; the merge
  // runs with no lock held (all hist_mu_ share one rank).
  StatsSnapshot merged;
  for (const auto& shard : shards_) {
    merged += shard->SnapshotStats();
  }
  return merged;
}

DBStats ShardedDB::GetStats() {
  DBStats stats = TickerStats(MergedStats());
  for (const auto& shard : shards_) {
    shard->AddShapeAndGauges(&stats);
  }
  return stats;
}

bool ShardedDB::GetProperty(const Slice& property, std::string* value) {
  value->clear();
  if (property == Slice("lsmlab.num-shards")) {
    *value = std::to_string(num_shards_);
    return true;
  }
  if (property == Slice("lsmlab.bg-jobs-high-water")) {
    *value = std::to_string(TEST_BgJobsHighWater());
    return true;
  }
  const Slice shard_prefix("lsmlab.shard.");
  if (property.starts_with(shard_prefix)) {
    Slice rest = property;
    rest.remove_prefix(shard_prefix.size());
    int shard = 0;
    if (!ConsumeShardNumber(&rest, &shard) || shard >= num_shards_ ||
        !rest.starts_with(".")) {
      return false;
    }
    rest.remove_prefix(1);
    return shards_[shard]->GetProperty("lsmlab." + rest.ToString(), value);
  }
  if (property == Slice("lsmlab.stats")) {
    *value = MergedStats().ToString();
    return true;
  }
  // Thread-local (perf-context) and Env-global (io-stats) properties are
  // shard-independent; any shard reports the same numbers.
  if (property == Slice("lsmlab.perf-context") ||
      property == Slice("lsmlab.io-stats")) {
    return shards_[0]->GetProperty(property, value);
  }
  return false;
}

std::string ShardedDB::DebugShape() {
  std::string shape;
  for (int k = 0; k < num_shards_; k++) {
    shape += "--- shard " + std::to_string(k) + " ---\n";
    shape += shards_[k]->DebugShape();
  }
  return shape;
}

}  // namespace lsmlab
