#include "support/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace anacin {

namespace {

/// The pool whose worker_loop is executing on this thread, if any. Lets
/// parallel_for detect re-entrant calls from its own workers.
thread_local ThreadPool* t_worker_pool = nullptr;

}  // namespace

/// One parallel_for call. Lives on the caller's stack until the caller
/// has seen it closed and empty.
struct ThreadPool::Job {
  std::atomic<std::size_t> next;  // the cursor: next unclaimed index
  std::size_t end;
  const std::function<void(std::size_t)>& fn;
  CancelToken* cancel;
  /// Set by the first failing item so every unstarted one is skipped.
  std::atomic<bool> failed{false};
  std::exception_ptr error{};  // the first failure; guarded by mutex_
  /// Guarded by mutex_: whether the job is still on jobs_, and how many
  /// workers are inside run() for it.
  bool open = true;
  std::size_t active = 0;
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::run(Job& job) {
  while (!job.failed.load(std::memory_order_relaxed) &&
         !(job.cancel != nullptr && job.cancel->cancelled())) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.end) return;
    try {
      job.fn(i);
    } catch (...) {
      job.failed.store(true, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!job.error) job.error = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
    if (jobs_.empty()) return;  // stopping, and no caller is waiting
    Job& job = *jobs_.front();
    ++job.active;
    lock.unlock();
    run(job);
    lock.lock();
    --job.active;
    // run() returned, so every index is claimed or the job is stopped:
    // take it off the list so no other worker enters it.
    if (job.open) {
      job.open = false;
      jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    }
    if (job.active == 0) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn,
                              CancelToken* cancel) {
  if (begin >= end) return;
  Job job{.next{begin}, .end = end, .fn = fn, .cancel = cancel};
  if (t_worker_pool == this) {
    // Re-entrant call from one of our own workers. Waiting here could
    // deadlock a pool whose every worker waits on a nested job, so this
    // worker claims every index itself.
    run(job);
  } else {
    std::unique_lock<std::mutex> lock(mutex_);
    jobs_.push_back(&job);
    work_cv_.notify_all();
    // Closed means no worker can enter; active == 0 means none is
    // inside, so no item of this job is still running.
    done_cv_.wait(lock, [&job] { return !job.open && job.active == 0; });
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace anacin
