#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace anacin {

/// Cooperative cancellation flag shared between a controller (the
/// SIGINT/SIGTERM handler) and workers. `cancel()` is a single lock-free
/// atomic store, so it is safe to call from a signal handler. Workers
/// poll `cancelled()` between work items; in-flight items always run to
/// completion — cancellation skips *unstarted* work only.
class CancelToken {
public:
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void reset() { cancelled_.store(false, std::memory_order_relaxed); }

private:
  std::atomic<bool> cancelled_{false};
};

/// Worker pool that runs `parallel_for` loops over independent items:
/// simulation runs, feature extractions, pairwise kernel distances and
/// bisect candidates. Every item writes only its own slot, so which
/// worker runs which index is never observable in the results.
///
/// Each call is one job on a short list with an atomic cursor; workers
/// claim the next index with one `fetch_add`. The pool is non-copyable
/// and joins its workers on destruction.
class ThreadPool {
public:
  /// `num_threads == 0` selects std::thread::hardware_concurrency()
  /// (minimum 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run fn(i) for i in [begin, end) across the pool and wait for
  /// completion. An external caller only waits, so at most size() items
  /// run at once — the width at which `--isolate=process` spawns worker
  /// children and `serve` dispatches units. Any number of external
  /// threads may call concurrently; their jobs queue on the pool.
  ///
  /// Fail-fast: the first exception thrown by any item skips the
  /// remaining *unstarted* items, and is rethrown once every in-flight
  /// item has finished. An optional external CancelToken skips unstarted
  /// items the same way without being an error — parallel_for returns
  /// normally (again after in-flight items finish) and the caller
  /// inspects the token (used for SIGINT draining).
  ///
  /// Safe to call from inside an item: a worker runs the nested loop
  /// itself instead of waiting on workers that may all be waiting too.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn,
                    CancelToken* cancel = nullptr);

private:
  struct Job;

  void worker_loop();
  /// Claim and run `job`'s indices until none is left or it is stopped.
  void run(Job& job);

  std::mutex mutex_;
  std::condition_variable work_cv_;  // a job was posted, or stopping_
  std::condition_variable done_cv_;  // a worker left a job
  /// Jobs with unclaimed indices, oldest first. Guarded by mutex_.
  std::vector<Job*> jobs_;
  bool stopping_ = false;  // guarded by mutex_
  /// Last, so the members the workers use outlive them.
  std::vector<std::thread> workers_;
};

}  // namespace anacin
