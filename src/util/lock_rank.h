#ifndef LSMLAB_UTIL_LOCK_RANK_H_
#define LSMLAB_UTIL_LOCK_RANK_H_

/// Lock-rank table for the debug-build lock-order validator in
/// util/mutex.h.
///
/// Every long-lived engine mutex registers a rank at construction. A
/// thread may only acquire a mutex whose rank is strictly greater than
/// every ranked mutex it already holds, so any acquisition order that
/// could deadlock aborts deterministically in debug builds instead of
/// deadlocking rarely in production. Ranks encode the documented
/// acquisition order (DESIGN.md "Lock ordering"); the machine-readable
/// mirror of this table is tools/lock_ranks.tsv, and
/// tools/check_lock_io.py --check-ranks fails CI when the two drift.
///
/// The `allows_io` flag marks mutexes that intentionally serialize
/// blocking file I/O (the value-log writer lock, the in-memory /
/// fault-injection Env bookkeeping locks). Holding any mutex with
/// allows_io == false when a blocking Env call starts trips
/// AssertBlockingIoAllowed() in the storage layer -- the runtime half of
/// the static no-I/O-under-lock analysis in tools/check_lock_io.py.
///
/// X-macro row format: X(enumerator, rank, "Qualified::name", allows_io)
#define LSMLAB_LOCK_RANKS(X)                                   \
  X(kShardedDbMu, 5, "ShardedDB::mu_", false)                  \
  X(kDbMu, 10, "DBImpl::mu_", false)                           \
  X(kThreadPoolMu, 20, "ThreadPool::mu_", false)               \
  X(kValueLogMu, 30, "ValueLog::mu_", true)                    \
  X(kValueLogReadersMu, 40, "ValueLog::readers_mu_", true)     \
  X(kTableCacheMu, 50, "TableCache::mu_", false)               \
  X(kBlockCacheAccessMu, 60, "BlockCache::access_mu_", false)  \
  X(kLruShardMu, 70, "LruCache::Shard::mu", false)             \
  X(kDeletionsMu, 80, "DBImpl::deletions_mu_", false)          \
  X(kStatsHistMu, 90, "StatsRegistry::hist_mu_", false)        \
  X(kFaultStateMu, 95, "FaultInjectionEnv::State::mu", true)   \
  X(kMemEnvMu, 100, "MemEnv::mu_", true)                       \
  X(kMemFileMu, 105, "MemFile::mu_", true)                     \
  X(kPinTrackerMu, 110, "PinTracker::mu_", false)                \
  X(kArenaMu, 115, "Arena::blocks_mu_", false)                 \
  X(kMemTableMu, 120, "MemTable::mu_", false)

namespace lsmlab {

/// Acquisition order: lower rank first. kUnranked mutexes (the default
/// for test scaffolding and short-lived scratch locks) are exempt from
/// both the ordering check and the blocking-I/O guard.
enum class LockRank : int {
  kUnranked = 0,
#define LSMLAB_LOCK_RANK_ENUM(name, rank, str, io) name = (rank),
  LSMLAB_LOCK_RANKS(LSMLAB_LOCK_RANK_ENUM)
#undef LSMLAB_LOCK_RANK_ENUM
};

constexpr const char* LockRankName(LockRank r) {
  switch (r) {
    case LockRank::kUnranked:
      return "<unranked>";
#define LSMLAB_LOCK_RANK_NAME(name, rank, str, io) \
  case LockRank::name:                             \
    return str;
      LSMLAB_LOCK_RANKS(LSMLAB_LOCK_RANK_NAME)
#undef LSMLAB_LOCK_RANK_NAME
  }
  return "<invalid>";
}

/// True when the mutex is allowed to be held across blocking Env calls.
constexpr bool LockRankAllowsIo(LockRank r) {
  switch (r) {
    case LockRank::kUnranked:
      return true;
#define LSMLAB_LOCK_RANK_IO(name, rank, str, io) \
  case LockRank::name:                           \
    return (io);
      LSMLAB_LOCK_RANKS(LSMLAB_LOCK_RANK_IO)
#undef LSMLAB_LOCK_RANK_IO
  }
  return true;
}

}  // namespace lsmlab

#endif  // LSMLAB_UTIL_LOCK_RANK_H_
