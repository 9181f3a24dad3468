#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace anacin {
namespace {

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllRun) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](std::size_t i) { ++hits[i]; }, 7);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ParallelForPropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForLargeGrain) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  pool.parallel_for(0, 1000, [&](std::size_t i) { sum += static_cast<long>(i); },
                    250);
  EXPECT_EQ(sum.load(), 999L * 1000L / 2);
}

TEST(ThreadPool, SizeReportsWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&counter] { ++counter; });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&global_pool(), &global_pool());
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // A worker calling parallel_for on its own pool used to block on chunks
  // that could never be scheduled (every worker waiting, queue full). A
  // one-thread pool makes the old deadlock deterministic.
  ThreadPool pool(1);
  std::atomic<long> sum{0};
  pool.parallel_for(0, 4, [&](std::size_t i) {
    pool.parallel_for(0, 8, [&](std::size_t j) {
      sum += static_cast<long>(i * 8 + j);
    });
  });
  EXPECT_EQ(sum.load(), 31L * 32L / 2);
}

TEST(ThreadPool, NestedParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 4,
                                 [&](std::size_t i) {
                                   pool.parallel_for(0, 4, [&](std::size_t j) {
                                     if (i == 1 && j == 2) {
                                       throw std::runtime_error("nested");
                                     }
                                   });
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, NestedParallelForFromSubmittedTask) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  auto done = pool.submit([&] {
    pool.parallel_for(0, 16, [&](std::size_t) { ++count; });
  });
  done.get();
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, NestedParallelForUnderSaturation) {
  // Every worker runs a nested parallel_for at once, so all of them must
  // help-drain (and steal from each other) simultaneously — the shape
  // that deadlocked the pre-work-stealing pool under load.
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  pool.parallel_for(0, 32, [&](std::size_t i) {
    pool.parallel_for(0, 16, [&](std::size_t j) {
      sum += static_cast<long>(i * 16 + j);
    });
  });
  EXPECT_EQ(sum.load(), 511L * 512L / 2);
}

TEST(ThreadPool, DeeplyNestedParallelFor) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(0, 3, [&](std::size_t) {
    pool.parallel_for(0, 3, [&](std::size_t) {
      pool.parallel_for(0, 3, [&](std::size_t) { ++count; });
    });
  });
  EXPECT_EQ(count.load(), 27);
}

TEST(ThreadPool, StealingBalancesExternalBurst) {
  // External submits round-robin across worker deques; idle workers must
  // steal to finish a burst even when the round-robin lands unevenly.
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  futures.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, CancelDuringSaturatedNestedWork) {
  // Cancellation must drain cleanly while every worker is busy stealing
  // nested chunks; in-flight items finish, unstarted ones are skipped.
  ThreadPool pool(8);
  CancelToken token;
  std::atomic<int> executed{0};
  pool.parallel_for(
      0, 64,
      [&](std::size_t i) {
        pool.parallel_for(0, 8, [&](std::size_t) { ++executed; });
        if (i == 0) token.cancel();
      },
      1, &token);
  EXPECT_TRUE(token.cancelled());
  EXPECT_GE(executed.load(), 8);
  EXPECT_LE(executed.load(), 64 * 8);
}

TEST(CancelToken, StartsClearAndSticksUntilReset) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  token.cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
  token.reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(ThreadPool, PreCancelledTokenSkipsAllItems) {
  ThreadPool pool(2);
  CancelToken token;
  token.cancel();
  std::atomic<int> executed{0};
  // Cancellation is not an error: parallel_for returns normally and the
  // caller inspects the token.
  pool.parallel_for(0, 64, [&](std::size_t) { ++executed; }, 1, &token);
  EXPECT_EQ(executed.load(), 0);
}

TEST(ThreadPool, CancelMidFlightSkipsUnstartedItems) {
  // Whichever item runs first cancels. Workers pop their own deque newest
  // first, so that is not item 0; with one worker, every later chunk sees
  // the token before it starts.
  ThreadPool pool(1);
  CancelToken token;
  std::atomic<int> executed{0};
  pool.parallel_for(
      0, 256,
      [&](std::size_t) {
        if (++executed == 1) token.cancel();
      },
      1, &token);
  EXPECT_EQ(executed.load(), 1);
}

TEST(ThreadPool, ExceptionCancelsUnstartedItems) {
  // As above, with a throw in place of the token.
  ThreadPool pool(1);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      pool.parallel_for(0, 256,
                        [&](std::size_t) {
                          if (++executed == 1) {
                            throw std::runtime_error("boom");
                          }
                        }),
      std::runtime_error);
  EXPECT_EQ(executed.load(), 1);
}

TEST(ThreadPool, NullTokenBehavesAsBefore) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(0, 32, [&](std::size_t) { ++count; }, 4, nullptr);
  EXPECT_EQ(count.load(), 32);
}

}  // namespace
}  // namespace anacin
