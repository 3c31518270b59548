#include "util/mutex.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "util/thread_pool.h"

namespace lsmlab {
namespace {

TEST(MutexTest, LockUnlock) {
  Mutex mu;
  mu.Lock();
  EXPECT_TRUE(mu.HeldByCurrentThread());
  mu.Unlock();
}

TEST(MutexTest, ScopedLock) {
  Mutex mu;
  {
    MutexLock lock(&mu);
    EXPECT_TRUE(mu.HeldByCurrentThread());
  }
  // Released on scope exit: an uncontended TryLock must succeed.
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexTest, TryLockFailsWhenContended) {
  Mutex mu;
  mu.Lock();
  std::atomic<bool> acquired{true};
  std::thread other([&] { acquired = mu.TryLock(); });
  other.join();
  EXPECT_FALSE(acquired);
  mu.Unlock();
}

TEST(MutexTest, HeldByCurrentThreadTracksHolder) {
  Mutex mu;
  EXPECT_FALSE(mu.HeldByCurrentThread());
  mu.Lock();
  EXPECT_TRUE(mu.HeldByCurrentThread());
  // Another thread holding nothing must not appear as the holder.
  std::atomic<bool> other_saw_held{true};
  std::thread other([&] { other_saw_held = mu.HeldByCurrentThread(); });
  other.join();
  EXPECT_FALSE(other_saw_held);
  mu.Unlock();
  EXPECT_FALSE(mu.HeldByCurrentThread());
}

#ifndef NDEBUG
TEST(MutexDeathTest, AssertHeldAbortsWhenNotHeld) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu;
  EXPECT_DEATH(mu.AssertHeld(), "");
}

// ------------------------------------------------- Lock-rank validator --

TEST(LockRankTest, InOrderNestingIsClean) {
  Mutex db(LockRank::kDbMu);
  Mutex cache(LockRank::kTableCacheMu);
  MutexLock outer(&db);
  MutexLock inner(&cache);  // 10 -> 50: documented order, no abort
  EXPECT_EQ(HeldRankedLockCount(), 2u);
}

TEST(LockRankTest, HeldLockCountBookkeeping) {
  Mutex db(LockRank::kDbMu);
  Mutex unranked;
  EXPECT_EQ(HeldRankedLockCount(), 0u);
  db.Lock();
  EXPECT_EQ(HeldRankedLockCount(), 1u);
  unranked.Lock();  // unranked locks never enter the stack
  EXPECT_EQ(HeldRankedLockCount(), 1u);
  unranked.Unlock();
  db.Unlock();
  EXPECT_EQ(HeldRankedLockCount(), 0u);
}

TEST(LockRankTest, ReacquisitionAfterReleaseIsClean) {
  Mutex db(LockRank::kDbMu);
  Mutex cache(LockRank::kTableCacheMu);
  // Release-then-acquire in rank-violating textual order is fine: only
  // simultaneous holding counts.
  cache.Lock();
  cache.Unlock();
  db.Lock();
  db.Unlock();
  cache.Lock();
  cache.Unlock();
  EXPECT_EQ(HeldRankedLockCount(), 0u);
}

TEST(LockRankTest, CondVarWaitPreservesRankState) {
  // Wait() releases and reacquires its mutex; the reacquisition must not
  // trip the rank check against locks acquired by other threads meanwhile,
  // and the held stack must be intact afterwards.
  Mutex db(LockRank::kDbMu);
  CondVar cv(&db);
  bool ready = false;
  std::thread signaller([&] {
    MutexLock lock(&db);
    ready = true;
    cv.Signal();
  });
  {
    MutexLock lock(&db);
    while (!ready) {
      cv.Wait();
    }
    EXPECT_EQ(HeldRankedLockCount(), 1u);
    // Deeper-ranked acquisition still works after the reacquire.
    Mutex cache(LockRank::kTableCacheMu);
    MutexLock inner(&cache);
    EXPECT_EQ(HeldRankedLockCount(), 2u);
  }
  signaller.join();
  EXPECT_EQ(HeldRankedLockCount(), 0u);
}

TEST(LockRankDeathTest, InversionAbortsWithBothLockNames) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex db(LockRank::kDbMu);
  Mutex cache(LockRank::kTableCacheMu);
  EXPECT_DEATH(
      {
        MutexLock outer(&cache);  // rank 50 first...
        MutexLock inner(&db);     // ...then rank 10: inversion
      },
      "lock rank inversion.*DBImpl::mu_.*TableCache::mu_");
}

TEST(LockRankDeathTest, EqualRankAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Two same-rank locks can deadlock against a thread nesting them the
  // other way round, so equal rank is an inversion too.
  Mutex a(LockRank::kDbMu);
  Mutex b(LockRank::kDbMu);
  EXPECT_DEATH(
      {
        MutexLock outer(&a);
        MutexLock inner(&b);
      },
      "lock rank inversion.*DBImpl::mu_.*DBImpl::mu_");
}

TEST(LockRankTest, TryLockSkipsTheRankCheck) {
  // TryLock cannot deadlock, so out-of-rank try-acquisition is permitted
  // but still tracked.
  Mutex db(LockRank::kDbMu);
  Mutex cache(LockRank::kTableCacheMu);
  MutexLock outer(&cache);
  ASSERT_TRUE(db.TryLock());
  EXPECT_EQ(HeldRankedLockCount(), 2u);
  db.Unlock();
}
#else
TEST(MutexTest, AssertHeldIsNoOpInRelease) {
  // Release builds track the holder but do not check it: AssertHeld on a
  // mutex nobody holds must not fire.
  Mutex mu;
  mu.AssertHeld();
  EXPECT_FALSE(mu.HeldByCurrentThread());
}
#endif

TEST(CondVarTest, SignalWakesWaiter) {
  Mutex mu;
  CondVar cv(&mu);
  bool ready = false;
  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (!ready) {
      cv.Wait();
    }
  });
  {
    MutexLock lock(&mu);
    ready = true;
  }
  cv.Signal();
  waiter.join();
}

TEST(CondVarTest, TimedWaitTimesOut) {
  Mutex mu;
  CondVar cv(&mu);
  MutexLock lock(&mu);
  const auto start = std::chrono::steady_clock::now();
  // Nobody signals: the wait must report a timeout, and the mutex must be
  // held again afterwards.
  bool timed_out = cv.TimedWait(std::chrono::microseconds(2000));
  while (!timed_out &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(5)) {
    timed_out = cv.TimedWait(std::chrono::microseconds(2000));  // spurious
  }
  EXPECT_TRUE(timed_out);
  EXPECT_TRUE(mu.HeldByCurrentThread());
}

TEST(CondVarTest, TimedWaitSeesSignal) {
  Mutex mu;
  CondVar cv(&mu);
  bool ready = false;
  std::thread signaller([&] {
    MutexLock lock(&mu);
    ready = true;
    cv.Signal();
  });
  {
    MutexLock lock(&mu);
    while (!ready) {
      // Generous timeout: the signaller should beat it by orders of
      // magnitude; looping also absorbs spurious wakeups.
      if (cv.TimedWait(std::chrono::microseconds(10'000'000))) {
        break;
      }
    }
    EXPECT_TRUE(ready);
  }
  signaller.join();
}

TEST(ThreadPoolTest, RunsScheduledWork) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(pool.Schedule([&] { ran++; }));
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedWork) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(pool.Schedule([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ran++;
    }));
  }
  // Work accepted before Shutdown() must complete, never be dropped.
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPoolTest, ScheduleRejectedAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::atomic<bool> ran{false};
  EXPECT_FALSE(pool.Schedule([&] { ran = true; }));
  EXPECT_FALSE(ran.load());
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.Schedule([&] { ran++; }));
  pool.Shutdown();
  pool.Shutdown();  // second call must be a harmless no-op
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentShutdownBlocksUntilStopped) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(pool.Schedule([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ran++;
    }));
  }
  // Every caller of Shutdown() — not just the first — must observe the
  // pool fully stopped when the call returns.
  std::vector<std::thread> shutters;
  for (int i = 0; i < 4; i++) {
    shutters.emplace_back([&] {
      pool.Shutdown();
      EXPECT_EQ(ran.load(), 20);
    });
  }
  for (auto& t : shutters) {
    t.join();
  }
}

TEST(ThreadPoolTest, RacingProducersDuringShutdown) {
  ThreadPool pool(2);
  std::atomic<int> accepted{0};
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; p++) {
    producers.emplace_back([&] {
      for (int i = 0; i < 200; i++) {
        if (pool.Schedule([&] { ran++; })) {
          accepted++;
        }
      }
    });
  }
  pool.Shutdown();
  for (auto& t : producers) {
    t.join();
  }
  // The invariant under race: everything accepted ran, everything rejected
  // did not. (Late Schedule() calls return false instead of enqueueing
  // work no worker will drain.)
  EXPECT_EQ(ran.load(), accepted.load());
}

TEST(ThreadPoolTest, DestructorShutsDown) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; i++) {
      ASSERT_TRUE(pool.Schedule([&] { ran++; }));
    }
  }
  EXPECT_EQ(ran.load(), 10);
}

}  // namespace
}  // namespace lsmlab
