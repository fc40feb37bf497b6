#include "util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <sstream>
#include <utility>

namespace agsc::util {

namespace {
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 0) num_threads = 0;
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting_down_ and nothing left.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // Exceptions land in the task's future, never escape here.
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  if (threads_.empty()) {
    packaged();  // Inline mode: run on the caller's thread.
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    futures.push_back(Submit([&fn, i] { fn(i); }));
  }
  // Wait for everything first so no task can still be touching caller state
  // when we unwind, then rethrow from the lowest failing index.
  std::exception_ptr first_error;
  for (int i = 0; i < n; ++i) {
    try {
      futures[static_cast<size_t>(i)].get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::ParallelForStriped(int n,
                                    const std::function<void(int)>& fn) {
  if (n <= 0) return;
  const int lanes = num_threads() + 1;
  std::vector<std::exception_ptr> errors(static_cast<size_t>(n));
  auto run_lane = [&](int lane) {
    for (int i = lane; i < n; i += lanes) {
      try {
        fn(i);
      } catch (...) {
        errors[static_cast<size_t>(i)] = std::current_exception();
      }
    }
  };
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<size_t>(std::min(n, lanes)));
  try {
    for (int lane = 1; lane < std::min(n, lanes); ++lane) {
      futures.push_back(Submit([&run_lane, lane] { run_lane(lane); }));
    }
  } catch (...) {
    // The lanes already handed out reference this frame: let them finish.
    for (std::future<void>& f : futures) f.wait();
    throw;
  }
  run_lane(0);
  for (std::future<void>& f : futures) f.get();  // run_lane never throws.
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn,
                             long deadline_ms) {
  if (deadline_ms <= 0) {
    ParallelFor(n, fn);
    return;
  }
  if (n <= 0) return;

  // Everything a task touches after a timeout throw must outlive this
  // frame: the callable and the heartbeat slots live behind a shared_ptr
  // that every task co-owns.
  struct Batch {
    std::function<void(int)> fn;
    std::vector<std::atomic<int64_t>> start_ns;  ///< 0 = not started yet.
    std::vector<std::atomic<uint8_t>> done;
    Batch(const std::function<void(int)>& f, int count)
        : fn(f),
          start_ns(static_cast<size_t>(count)),
          done(static_cast<size_t>(count)) {}
  };
  auto batch = std::make_shared<Batch>(fn, n);

  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    futures.push_back(Submit([batch, i] {
      const size_t s = static_cast<size_t>(i);
      batch->start_ns[s].store(NowNs(), std::memory_order_relaxed);
      try {
        batch->fn(i);
      } catch (...) {
        batch->done[s].store(1, std::memory_order_release);
        throw;  // Lands in the future; rethrown below on the normal path.
      }
      batch->done[s].store(1, std::memory_order_release);
    }));
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  bool timed_out = false;
  for (int i = 0; i < n && !timed_out; ++i) {
    if (futures[static_cast<size_t>(i)].wait_until(deadline) !=
        std::future_status::ready) {
      timed_out = true;
    }
  }

  if (timed_out) {
    // Re-scan the heartbeat flags: a future can become ready between the
    // timed wait and here, so only a task still marked unfinished counts.
    for (int i = 0; i < n; ++i) {
      const size_t s = static_cast<size_t>(i);
      if (batch->done[s].load(std::memory_order_acquire) != 0) continue;
      const int64_t started = batch->start_ns[s].load(
          std::memory_order_relaxed);
      const long elapsed_ms =
          started > 0 ? static_cast<long>((NowNs() - started) / 1000000)
                      : 0;
      std::ostringstream msg;
      msg << "watchdog: task " << i << " of " << n << " missed the "
          << deadline_ms << " ms deadline (";
      if (started > 0) {
        msg << "running for " << elapsed_ms << " ms";
      } else {
        msg << "never started";
      }
      msg << ")";
      throw WatchdogTimeoutError(msg.str(), i, started > 0, elapsed_ms,
                                 deadline_ms);
    }
    // Every task finished in the race window after all: fall through.
  }

  std::exception_ptr first_error;
  for (int i = 0; i < n; ++i) {
    try {
      futures[static_cast<size_t>(i)].get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  return std::max(1, CPU_COUNT(&set));
}

}  // namespace agsc::util
