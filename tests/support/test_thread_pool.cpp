#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace anacin {
namespace {

/// Spin until `count` reaches `target` or a generous deadline passes, so a
/// scheduling stall cannot hang the suite.
void await_at_least(const std::atomic<int>& count, int target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (count.load() < target && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](std::size_t i) { ++hits[i]; });
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

TEST(ThreadPool, SizeReportsWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroSelectsHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
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

TEST(ThreadPool, NestedParallelForUnderSaturation) {
  // Every worker runs a nested parallel_for at once; a worker that waited
  // on the pool here would wait on workers that are all waiting too.
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

TEST(ThreadPool, CancelDuringSaturatedNestedWork) {
  // Cancellation must drain cleanly while every worker is busy in a
  // nested loop; in-flight items finish, unstarted ones are skipped.
  ThreadPool pool(8);
  CancelToken token;
  std::atomic<int> executed{0};
  pool.parallel_for(
      0, 64,
      [&](std::size_t i) {
        pool.parallel_for(0, 8, [&](std::size_t) { ++executed; });
        if (i == 0) token.cancel();
      },
      &token);
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
  pool.parallel_for(0, 64, [&](std::size_t) { ++executed; }, &token);
  EXPECT_EQ(executed.load(), 0);
}

TEST(ThreadPool, CancelMidFlightSkipsUnstartedItems) {
  // Whichever item runs first cancels; with one worker, every later index
  // sees the token before it starts.
  ThreadPool pool(1);
  CancelToken token;
  std::atomic<int> executed{0};
  pool.parallel_for(
      0, 256,
      [&](std::size_t) {
        if (++executed == 1) token.cancel();
      },
      &token);
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
  pool.parallel_for(0, 32, [&](std::size_t) { ++count; }, nullptr);
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, ExternalCallerRunsAtMostSizeItemsAtOnce) {
  // The pool's width is the number of worker children --isolate=process
  // spawns and of units serve dispatches, so the waiting caller must not
  // run items on top of the workers.
  ThreadPool pool(2);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  pool.parallel_for(0, 64, [&](std::size_t) {
    const int now = ++running;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    --running;
  });
  EXPECT_GE(peak.load(), 1);
  EXPECT_LE(peak.load(), 2);
}

TEST(ThreadPool, ExceptionWaitsForInFlightItems) {
  // Campaign and bisect items write into the caller's stack frame, so
  // parallel_for must not rethrow while a started item is still running.
  // Item 0 throws only once other items are in flight.
  ThreadPool pool(4);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.parallel_for(0, 64,
                                 [&](std::size_t i) {
                                   ++started;
                                   if (i == 0) {
                                     await_at_least(started, 2);
                                     throw std::runtime_error("boom");
                                   }
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(20));
                                   ++finished;
                                 }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), started.load() - 1);
}

TEST(ThreadPool, CancelWaitsForInFlightItems) {
  // As above, with the token in place of the throw.
  ThreadPool pool(4);
  CancelToken token;
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  pool.parallel_for(
      0, 64,
      [&](std::size_t i) {
        ++started;
        if (i == 0) {
          await_at_least(started, 2);
          token.cancel();
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        ++finished;
      },
      &token);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(finished.load(), started.load());
}

TEST(ThreadPool, ConcurrentExternalCallersEachCoverTheirRange) {
  ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> mine(200);
    std::vector<std::atomic<int>> theirs(300);
    std::thread other([&] {
      pool.parallel_for(0, theirs.size(), [&](std::size_t i) { ++theirs[i]; });
    });
    pool.parallel_for(0, mine.size(), [&](std::size_t i) { ++mine[i]; });
    other.join();
    for (const auto& h : mine) EXPECT_EQ(h.load(), 1);
    for (const auto& h : theirs) EXPECT_EQ(h.load(), 1);
  }
}

}  // namespace
}  // namespace anacin
