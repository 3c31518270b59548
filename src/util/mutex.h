#ifndef LSMLAB_UTIL_MUTEX_H_
#define LSMLAB_UTIL_MUTEX_H_

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <mutex>
#include <thread>
#include <vector>

#include "util/lock_rank.h"
#include "util/thread_annotations.h"

namespace lsmlab {

class CondVar;

#ifndef NDEBUG
namespace lock_debug {

/// Per-thread stack of ranked mutexes currently held, newest last.
/// Unranked mutexes never appear here. Drives the rank-inversion abort
/// in Mutex::Lock() and the blocking-I/O guard below.
struct HeldLock {
  const void* mu;
  LockRank rank;
};

inline std::vector<HeldLock>& HeldLockStack() {
  static thread_local std::vector<HeldLock> stack;
  return stack;
}

/// Depth of active ScopedBlockingIoAllowed scopes on this thread.
inline int& BlockingIoAllowedDepth() {
  static thread_local int depth = 0;
  return depth;
}

}  // namespace lock_debug

/// Number of ranked mutexes the calling thread currently holds (debug
/// bookkeeping introspection for tests).
inline size_t HeldRankedLockCount() {
  return lock_debug::HeldLockStack().size();
}
#else
inline size_t HeldRankedLockCount() { return 0; }
#endif

/// Aborts (debug builds) when the calling thread holds any ranked
/// no-I/O engine mutex while a blocking storage call starts. Called from
/// the IoStats chokepoints every Env implementation reports through, so
/// each ctest run dynamically validates the invariant that
/// tools/check_lock_io.py proves statically. `what` names the blocking
/// operation for the abort message.
inline void AssertBlockingIoAllowed(const char* what) {
#ifndef NDEBUG
  if (lock_debug::BlockingIoAllowedDepth() > 0) {
    return;
  }
  for (const lock_debug::HeldLock& held : lock_debug::HeldLockStack()) {
    if (!LockRankAllowsIo(held.rank)) {
      std::fprintf(stderr,
                   "lsmlab: blocking I/O (%s) while holding engine mutex %s; "
                   "audited exceptions must use ScopedBlockingIoAllowed\n",
                   what, LockRankName(held.rank));
      std::abort();
    }
  }
#else
  (void)what;
#endif
}

/// RAII exemption for the audited call sites where blocking I/O under an
/// engine mutex is by design (recovery, the memtable freeze's WAL
/// rotation, manifest install under mu_). Every use must match an entry in
/// tools/lock_io_audit.list so the static and dynamic audit lists stay
/// one list.
class ScopedBlockingIoAllowed {
 public:
#ifndef NDEBUG
  explicit ScopedBlockingIoAllowed(const char* why) {
    (void)why;  // documentation at the call site
    lock_debug::BlockingIoAllowedDepth()++;
  }
  ~ScopedBlockingIoAllowed() { lock_debug::BlockingIoAllowedDepth()--; }
#else
  explicit ScopedBlockingIoAllowed(const char* why) { (void)why; }
  ~ScopedBlockingIoAllowed() = default;
#endif

  ScopedBlockingIoAllowed(const ScopedBlockingIoAllowed&) = delete;
  ScopedBlockingIoAllowed& operator=(const ScopedBlockingIoAllowed&) = delete;
};

/// The engine's only mutex. Wraps std::mutex with the clang
/// thread-safety-analysis capability attributes so that `GUARDED_BY(mu_)`
/// members and `REQUIRES(mu_)` helpers are checked at compile time under
/// `clang++ -Wthread-safety` (tools/check_thread_safety.sh). Raw
/// std::mutex / std::lock_guard / std::unique_lock are banned outside this
/// header (tools/lint.sh): unannotated locks are invisible to the analysis.
///
/// Every build tracks the holding thread, and debug builds check it, so
/// AssertHeld() aborts at runtime when the discipline is violated on a
/// compiler without the static analysis. The member exists in every build:
/// a class that holds a Mutex has one layout whether or not a translation
/// unit defines NDEBUG.
///
/// Mutexes constructed with a LockRank additionally participate in the
/// debug-build lock-order validator: Lock() aborts when the calling
/// thread already holds a ranked mutex of equal or greater rank, with
/// both lock names in the message. TryLock() and CondVar reacquisition
/// are exempt from the ordering check (neither can deadlock) but still
/// maintain the held-lock stack.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(LockRank rank) : rank_(rank) {}
  ~Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    DebugCheckRank();
    mu_.lock();
    MarkHeld();
  }

  void Unlock() RELEASE() {
    MarkReleased();
    mu_.unlock();
  }

  bool TryLock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) {
      return false;
    }
    MarkHeld();
    return true;
  }

  /// Runtime check (debug builds) + static-analysis assertion that the
  /// calling thread holds this mutex. Use at the top of a helper whose
  /// REQUIRES contract cannot be expressed to the analysis (e.g. callbacks).
  void AssertHeld() ASSERT_CAPABILITY(this) { assert(HeldByCurrentThread()); }

  bool HeldByCurrentThread() const {
    return holder_.load(std::memory_order_relaxed) ==
           std::this_thread::get_id();
  }

 private:
  friend class CondVar;

  void MarkHeld() {
    holder_.store(std::this_thread::get_id(), std::memory_order_relaxed);
#ifndef NDEBUG
    if (rank_ != LockRank::kUnranked) {
      lock_debug::HeldLockStack().push_back({this, rank_});
    }
#endif
  }
  void MarkReleased() {
    holder_.store(std::thread::id(), std::memory_order_relaxed);
#ifndef NDEBUG
    if (rank_ != LockRank::kUnranked) {
      // Engine locks are usually released LIFO, but hand-over-hand
      // sequences may release out of order; remove the newest entry for
      // this mutex wherever it sits.
      auto& stack = lock_debug::HeldLockStack();
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (it->mu == this) {
          stack.erase(std::next(it).base());
          return;
        }
      }
      assert(false && "released a ranked mutex not on the held stack");
    }
#endif
  }
#ifndef NDEBUG
  /// Abort (before blocking on the lock) when acquiring this mutex would
  /// invert the documented lock order.
  void DebugCheckRank() const {
    if (rank_ == LockRank::kUnranked) {
      return;
    }
    for (const lock_debug::HeldLock& held : lock_debug::HeldLockStack()) {
      if (held.rank >= rank_) {
        std::fprintf(
            stderr,
            "lsmlab: lock rank inversion: acquiring %s (rank %d) while "
            "holding %s (rank %d); see tools/lock_ranks.tsv\n",
            LockRankName(rank_), static_cast<int>(rank_),
            LockRankName(held.rank), static_cast<int>(held.rank));
        std::abort();
      }
    }
  }
#else
  void DebugCheckRank() const {}
#endif

  std::mutex mu_;
  const LockRank rank_ = LockRank::kUnranked;
  std::atomic<std::thread::id> holder_{};
};

/// Condition variable bound to one Mutex for its lifetime. Callers must
/// hold the mutex around Wait()/TimedWait(); the analysis cannot express
/// "requires the mutex passed at construction", so the requirement is
/// enforced by the caller's own REQUIRES annotation plus the debug-build
/// holder check.
class CondVar {
 public:
  explicit CondVar(Mutex* mu) : mu_(mu) { assert(mu != nullptr); }

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases the mutex, blocks until signalled, reacquires.
  void Wait() NO_THREAD_SAFETY_ANALYSIS {
    assert(mu_->HeldByCurrentThread());
    mu_->MarkReleased();
    std::unique_lock<std::mutex> lock(mu_->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership returns to the caller's discipline
    mu_->MarkHeld();
  }

  /// Like Wait() but gives up after `timeout`. Returns true if the wait
  /// timed out, false if it was signalled (spurious wakeups report false,
  /// as with std::condition_variable).
  bool TimedWait(std::chrono::microseconds timeout)
      NO_THREAD_SAFETY_ANALYSIS {
    assert(mu_->HeldByCurrentThread());
    mu_->MarkReleased();
    std::unique_lock<std::mutex> lock(mu_->mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();
    mu_->MarkHeld();
    return status == std::cv_status::timeout;
  }

  void Signal() { cv_.notify_one(); }
  void SignalAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
  Mutex* const mu_;
};

/// RAII scope lock, visible to the static analysis.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

}  // namespace lsmlab

#endif  // LSMLAB_UTIL_MUTEX_H_
