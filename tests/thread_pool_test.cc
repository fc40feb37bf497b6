// Tests for the fixed-size thread pool behind the vectorized rollout
// sampler: inline (0-thread) mode, future semantics, exception
// propagation, ParallelFor's deterministic lowest-index rethrow, and
// contended submit/drain stress. The stress cases are the primary
// ThreadSanitizer targets (build with -DAGSC_SANITIZE="thread").

#include <atomic>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace agsc {
namespace {

TEST(ThreadPoolTest, SubmitRunsTaskAndFutureBecomesReady) {
  util::ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::future<void> fut = pool.Submit([&] { ran.fetch_add(1); });
  fut.get();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, InlineModeRunsOnCallingThread) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id observed;
  std::future<void> fut =
      pool.Submit([&] { observed = std::this_thread::get_id(); });
  // Inline execution: the task already ran, on our thread.
  EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  fut.get();
  EXPECT_EQ(observed, caller);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  util::ThreadPool pool(1);
  std::future<void> fut =
      pool.Submit([] { throw std::runtime_error("task boom"); });
  EXPECT_THROW(
      {
        try {
          fut.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "task boom");
          throw;
        }
      },
      std::runtime_error);
}

TEST(ThreadPoolTest, InlineSubmitPropagatesException) {
  util::ThreadPool pool(0);
  std::future<void> fut =
      pool.Submit([] { throw std::runtime_error("inline boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroIterationsIsNoOp) {
  util::ThreadPool pool(2);
  pool.ParallelFor(0, [](int) { FAIL() << "body must not run"; });
}

TEST(ThreadPoolTest, ParallelForRethrowsLowestFailingIndex) {
  util::ThreadPool pool(4);
  // Several indices throw; the contract is that the exception of the
  // LOWEST failing index is rethrown, independent of scheduling, and
  // every non-throwing body still runs.
  std::vector<std::atomic<int>> hits(64);
  auto body = [&](int i) {
    hits[i].fetch_add(1);
    if (i == 7 || i == 31 || i == 50) {
      throw std::runtime_error("fail " + std::to_string(i));
    }
  };
  for (int repeat = 0; repeat < 20; ++repeat) {
    for (auto& h : hits) h.store(0);
    try {
      pool.ParallelFor(64, body);
      FAIL() << "expected ParallelFor to throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "fail 7");
    }
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForStripedRunsFixedLanes) {
  for (int threads : {0, 1, 3}) {
    util::ThreadPool pool(threads);
    const int lanes = threads + 1;
    constexpr int kTasks = 11;
    std::vector<std::thread::id> ran_on(kTasks);
    std::vector<int> order;
    std::mutex mu;
    pool.ParallelForStriped(kTasks, [&](int i) {
      ran_on[static_cast<size_t>(i)] = std::this_thread::get_id();
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
    ASSERT_EQ(order.size(), static_cast<size_t>(kTasks));
    for (int i = 0; i < kTasks; ++i) {
      // Lane 0 is the calling thread; each lane is one thread, and a task
      // shares its thread exactly with the tasks of its own lane.
      EXPECT_EQ(ran_on[i] == std::this_thread::get_id(), i % lanes == 0);
      for (int j = 0; j < kTasks; ++j) {
        if (i % lanes == j % lanes) {
          EXPECT_EQ(ran_on[i], ran_on[j]);
        }
      }
    }
    // Within a lane, tasks run in ascending order.
    std::vector<int> last(static_cast<size_t>(lanes), -1);
    for (int i : order) {
      EXPECT_GT(i, last[static_cast<size_t>(i % lanes)]);
      last[static_cast<size_t>(i % lanes)] = i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForStripedRethrowsLowestFailingIndex) {
  util::ThreadPool pool(2);
  std::atomic<int> ran{0};
  try {
    pool.ParallelForStriped(9, [&](int i) {
      ran.fetch_add(1);
      if (i == 4 || i == 7) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "4");
  }
  EXPECT_EQ(ran.load(), 9);  // A failing task does not stop its lane.
}

TEST(ThreadPoolTest, DestructorDrainsPendingQueue) {
  std::atomic<int> done{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&] { done.fetch_add(1); });
    }
    // Destructor must finish every queued task before joining.
  }
  EXPECT_EQ(done.load(), 200);
}

TEST(ThreadPoolStressTest, ContendedSubmitAndDrain) {
  // Many producer threads hammer Submit while pool workers drain; the sum
  // of all task effects must be exact. Run under TSan to check the
  // queue/cv synchronization.
  util::ThreadPool pool(4);
  constexpr int kProducers = 4;
  constexpr int kTasksPerProducer = 500;
  std::atomic<long> sum{0};
  std::vector<std::vector<std::future<void>>> futures(kProducers);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      futures[p].reserve(kTasksPerProducer);
      for (int t = 0; t < kTasksPerProducer; ++t) {
        const long v = static_cast<long>(p) * kTasksPerProducer + t;
        futures[p].push_back(pool.Submit([&sum, v] { sum.fetch_add(v); }));
      }
    });
  }
  for (auto& thread : producers) thread.join();
  for (auto& per_producer : futures) {
    for (auto& fut : per_producer) fut.get();
  }
  constexpr long kTotal =
      static_cast<long>(kProducers) * kTasksPerProducer;
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
}

TEST(ThreadPoolStressTest, RepeatedParallelForReusesPool) {
  util::ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(37, [&](int i) { total.fetch_add(i + 1); });
  }
  EXPECT_EQ(total.load(), 50L * (37L * 38L / 2L));
}

// ---------------------------------------------------------------------------
// RunningStats::Merge under real pool parallelism (satellite: parallel
// merge must equal sequential accumulation). The pure single-threaded
// property tests live in util_test.cc; this one exercises the combine
// across threads over disjoint ranges.
// ---------------------------------------------------------------------------

TEST(ThreadPoolStressTest, RunningStatsParallelMergeMatchesSequential) {
  util::Rng rng(2024);
  constexpr int kN = 10000;
  std::vector<double> xs(kN);
  for (auto& x : xs) x = rng.Uniform() * 20.0 - 10.0;

  util::RunningStats sequential;
  sequential.AddAll(xs);

  constexpr int kShards = 8;
  std::vector<util::RunningStats> shards(kShards);
  util::ThreadPool pool(4);
  pool.ParallelFor(kShards, [&](int s) {
    // Disjoint contiguous ranges: shard s owns [s*kN/kShards, ...).
    const int lo = s * kN / kShards;
    const int hi = (s + 1) * kN / kShards;
    for (int i = lo; i < hi; ++i) shards[s].Add(xs[i]);
  });
  util::RunningStats merged;
  for (const auto& shard : shards) merged.Merge(shard);

  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_DOUBLE_EQ(merged.Min(), sequential.Min());
  EXPECT_DOUBLE_EQ(merged.Max(), sequential.Max());
  EXPECT_NEAR(merged.Mean(), sequential.Mean(), 1e-12);
  EXPECT_NEAR(merged.Variance(), sequential.Variance(), 1e-9);
}

}  // namespace
}  // namespace agsc
