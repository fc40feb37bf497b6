#ifndef AGSC_UTIL_THREAD_POOL_H_
#define AGSC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace agsc::util {

/// Structured error thrown when a ParallelFor deadline expires: identifies
/// the first unfinished task, whether it ever started, and how long it has
/// been running. Callers at higher layers (VecSampler, the trainer, the
/// CLI) re-wrap it with domain context (worker id, env step) and map it to
/// the watchdog-timeout exit code.
class WatchdogTimeoutError : public std::runtime_error {
 public:
  WatchdogTimeoutError(const std::string& what, int task_index,
                       bool task_started, long elapsed_ms, long deadline_ms)
      : std::runtime_error(what),
        task_index_(task_index),
        task_started_(task_started),
        elapsed_ms_(elapsed_ms),
        deadline_ms_(deadline_ms) {}

  /// Index (0-based) of the first task that missed the deadline.
  int task_index() const { return task_index_; }
  /// False if the task was still queued (never heartbeat) at expiry.
  bool task_started() const { return task_started_; }
  /// Milliseconds since the task's start heartbeat (0 if never started).
  long elapsed_ms() const { return elapsed_ms_; }
  long deadline_ms() const { return deadline_ms_; }

 private:
  int task_index_;
  bool task_started_;
  long elapsed_ms_;
  long deadline_ms_;
};

/// A small fixed-size thread pool for deterministic fork/join parallelism.
///
/// Tasks are plain `void()` callables; Submit returns a future that either
/// becomes ready when the task finishes or carries the exception the task
/// threw. The pool itself imposes no ordering beyond FIFO dispatch — callers
/// that need deterministic *results* must hand each task its own private
/// state (the VecSampler gives every rollout worker its own environment,
/// RNG stream, and output buffer, so the merged result is independent of
/// which thread ran what when).
///
/// With `num_threads == 0` the pool degrades to inline execution: Submit
/// runs the task on the calling thread. This keeps single-worker code paths
/// free of thread handoff overhead and makes the pool safe to use
/// unconditionally.
class ThreadPool {
 public:
  /// Spawns `num_threads` worker threads (0 = inline execution).
  explicit ThreadPool(int num_threads);

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task`; the future becomes ready on completion and rethrows
  /// any exception the task threw when `.get()` is called.
  std::future<void> Submit(std::function<void()> task);

  /// Runs fn(0), fn(1), ..., fn(n-1) across the pool and blocks until all
  /// complete. If any invocation throws, the exception from the *lowest*
  /// index is rethrown (a deterministic choice) after every task finished.
  void ParallelFor(int n, const std::function<void(int)>& fn);

  /// ParallelFor with a per-batch watchdog: every task records a start
  /// heartbeat, and a deadline monitor on the calling thread waits at most
  /// `deadline_ms` (0 = forever, i.e. the plain overload) for the whole
  /// batch. On expiry it throws WatchdogTimeoutError naming the first
  /// unfinished task instead of blocking forever on a hung worker.
  ///
  /// Safety contract on timeout: the hung task may still be running. `fn`
  /// is copied into shared storage that outlives the throw, so the caller's
  /// callable must only touch state that also outlives the call (heap state
  /// held by shared_ptr, or members of a long-lived object) — never stack
  /// locals of the calling frame. A watchdog timeout is a fail-fast event:
  /// the expected reaction is to flush what is safe and exit the process,
  /// not to reuse the pool.
  void ParallelFor(int n, const std::function<void(int)>& fn,
                   long deadline_ms);

  /// Runs fn(0), ..., fn(n-1) on the calling thread and the workers
  /// together: unlike ParallelFor, the caller runs tasks instead of only
  /// waiting. Task i belongs to lane i % (num_threads() + 1), and each lane
  /// runs its tasks in ascending order on one thread: lane 0 on the calling
  /// thread, every other lane on whichever worker takes it. Blocks until
  /// every task finished (a task that throws does not stop its lane); if
  /// any threw, rethrows the exception of the lowest index.
  void ParallelForStriped(int n, const std::function<void(int)>& fn);

  int num_threads() const { return static_cast<int>(threads_.size()); }

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::deque<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool shutting_down_ = false;
};

/// CPUs in the calling thread's affinity mask (at least 1). Threads it
/// creates inherit the mask, so this is how many of them can run at once.
int AvailableCpus();

}  // namespace agsc::util

#endif  // AGSC_UTIL_THREAD_POOL_H_
