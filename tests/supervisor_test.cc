// Tests for the long-run training supervisor layer: the cooperative
// shutdown flag, the exit-code taxonomy, bounded retry with exponential
// backoff (including the retrying atomic file write), the thread-safe
// fault injector, the ParallelFor watchdog, the VecSampler stop/deadline
// hooks, the oracle self-checks, and the trainer-level stop/divergence
// supervision.

#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/hi_madrl.h"
#include "core/oracle_guard.h"
#include "core/rollout.h"
#include "core/vec_sampler.h"
#include "env/config.h"
#include "env/sc_env.h"
#include "map/campus.h"
#include "nn/serialize.h"
#include "nn/tensor.h"
#include "util/exit_codes.h"
#include "util/fault_inject.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/shutdown.h"
#include "util/thread_pool.h"

namespace agsc {
namespace {

namespace fs = std::filesystem;

const map::Dataset& SmallDataset() {
  static const map::Dataset* dataset =
      new map::Dataset(map::BuildDataset(map::CampusId::kPurdue, 10));
  return *dataset;
}

env::EnvConfig SmallEnvConfig() {
  env::EnvConfig config;
  config.num_timeslots = 6;
  config.num_pois = 10;
  config.num_uavs = 1;
  config.num_ugvs = 1;
  return config;
}

core::TrainConfig SmallTrainConfig() {
  core::TrainConfig train;
  train.iterations = 2;
  train.episodes_per_iteration = 1;
  train.policy_epochs = 1;
  train.lcf_epochs = 1;
  train.minibatch = 64;
  train.net.hidden = {16};
  train.eoi.hidden = {12};
  train.seed = 11;
  train.verbose = false;
  return train;
}

std::string TempPath(const std::string& name) {
  // pid-scoped: gtest's TempDir is shared across concurrently running test
  // processes (ctest -j), and fixed names collide.
  return ::testing::TempDir() + "/p" + std::to_string(::getpid()) + "_" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Clears injected faults on scope entry and exit so tests never leak
/// injector state into each other.
struct FaultInjectorGuard {
  FaultInjectorGuard() { util::FaultInjector::Instance().Reset(); }
  ~FaultInjectorGuard() { util::FaultInjector::Instance().Reset(); }
};

/// Clears the cooperative-shutdown flag on scope entry and exit.
struct ShutdownGuard {
  ShutdownGuard() { util::ResetShutdownForTest(); }
  ~ShutdownGuard() { util::ResetShutdownForTest(); }
};

/// Restores the process-wide GEMM kernel selection on scope exit.
struct KernelConfigGuard {
  nn::KernelConfig saved = nn::GetKernelConfig();
  ~KernelConfigGuard() { nn::SetKernelConfig(saved); }
};

/// A policy-free BatchActFn (same shape as the sampler tests): each row's
/// action is a pure function of that row's private stream.
void DummyAct(
    const std::vector<const std::vector<std::vector<float>>*>& rows,
    const std::vector<util::Rng*>& rngs,
    std::vector<std::vector<std::array<float, 2>>>& actions_out,
    std::vector<std::vector<float>>& logps_out) {
  ASSERT_EQ(rows.size(), rngs.size());
  for (size_t k = 0; k < actions_out.size(); ++k) {
    for (size_t i = 0; i < rows.size(); ++i) {
      actions_out[k][i] = {static_cast<float>(rngs[i]->Gaussian()),
                           static_cast<float>(rngs[i]->Gaussian())};
      logps_out[k][i] = 0.0f;
    }
  }
}

// ---------------------------------------------------------------------------
// Exit-code taxonomy.
// ---------------------------------------------------------------------------

TEST(ExitCodeTest, StableValues) {
  // The taxonomy is a CLI contract; renumbering breaks supervisors.
  EXPECT_EQ(util::kExitOk, 0);
  EXPECT_EQ(util::kExitUsage, 2);
  EXPECT_EQ(util::kExitConfig, 3);
  EXPECT_EQ(util::kExitIoError, 4);
  EXPECT_EQ(util::kExitResumeMismatch, 5);
  EXPECT_EQ(util::kExitDiverged, 6);
  EXPECT_EQ(util::kExitWatchdogTimeout, 7);
  EXPECT_EQ(util::kExitSignalStop, 8);
  EXPECT_EQ(util::kExitInterruptedAbort, 9);
}

TEST(ExitCodeTest, Names) {
  EXPECT_STREQ(util::ExitCodeName(util::kExitOk), "ok");
  EXPECT_STREQ(util::ExitCodeName(util::kExitUsage), "usage-error");
  EXPECT_STREQ(util::ExitCodeName(util::kExitConfig), "config-error");
  EXPECT_STREQ(util::ExitCodeName(util::kExitIoError), "io-error");
  EXPECT_STREQ(util::ExitCodeName(util::kExitResumeMismatch),
               "resume-mismatch");
  EXPECT_STREQ(util::ExitCodeName(util::kExitDiverged), "diverged");
  EXPECT_STREQ(util::ExitCodeName(util::kExitWatchdogTimeout),
               "watchdog-timeout");
  EXPECT_STREQ(util::ExitCodeName(util::kExitSignalStop), "signal-stop");
  EXPECT_STREQ(util::ExitCodeName(util::kExitInterruptedAbort),
               "interrupted-abort");
  EXPECT_STREQ(util::ExitCodeName(42), "unknown");
  EXPECT_STREQ(util::ExitCodeName(-1), "unknown");
}

// ---------------------------------------------------------------------------
// Cooperative shutdown flag.
// ---------------------------------------------------------------------------

TEST(ShutdownTest, FlagLifecycle) {
  ShutdownGuard guard;
  EXPECT_FALSE(util::ShutdownRequested());
  EXPECT_EQ(util::ShutdownSignal(), 0);
  util::RequestShutdown();
  EXPECT_TRUE(util::ShutdownRequested());
  EXPECT_NE(util::ShutdownSignal(), 0);
  util::ResetShutdownForTest();
  EXPECT_FALSE(util::ShutdownRequested());
  EXPECT_EQ(util::ShutdownSignal(), 0);
}

// ---------------------------------------------------------------------------
// Retry with exponential backoff.
// ---------------------------------------------------------------------------

TEST(RetryTest, BackoffSequenceIsExponentialAndCapped) {
  util::RetryPolicy policy;
  policy.initial_backoff_ms = 10;
  policy.backoff_multiplier = 4;
  policy.max_backoff_ms = 100;
  EXPECT_DOUBLE_EQ(policy.BackoffMs(1), 0.0);  // First attempt never sleeps.
  EXPECT_DOUBLE_EQ(policy.BackoffMs(2), 10.0);
  EXPECT_DOUBLE_EQ(policy.BackoffMs(3), 40.0);
  EXPECT_DOUBLE_EQ(policy.BackoffMs(4), 100.0);  // 160 capped to 100.
  EXPECT_DOUBLE_EQ(policy.BackoffMs(5), 100.0);
}

TEST(RetryTest, FirstAttemptSuccessDoesNotSleep) {
  util::RetryPolicy policy;
  std::vector<double> sleeps;
  int attempts = 0;
  const bool ok = util::RetryWithBackoff(
      policy, [] { return true; },
      [&](double ms) { sleeps.push_back(ms); }, &attempts);
  EXPECT_TRUE(ok);
  EXPECT_EQ(attempts, 1);
  EXPECT_TRUE(sleeps.empty());
}

TEST(RetryTest, TransientFailureRecoversWithBackoff) {
  util::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 5;
  policy.backoff_multiplier = 2;
  std::vector<double> sleeps;
  int attempts = 0;
  int calls = 0;
  const bool ok = util::RetryWithBackoff(
      policy, [&] { return ++calls >= 3; },
      [&](double ms) { sleeps.push_back(ms); }, &attempts);
  EXPECT_TRUE(ok);
  EXPECT_EQ(attempts, 3);
  ASSERT_EQ(sleeps.size(), 2u);  // Before attempts 2 and 3.
  EXPECT_DOUBLE_EQ(sleeps[0], 5.0);
  EXPECT_DOUBLE_EQ(sleeps[1], 10.0);
}

TEST(RetryTest, GivesUpAfterMaxAttempts) {
  util::RetryPolicy policy;
  policy.max_attempts = 3;
  int attempts = 0;
  int calls = 0;
  const bool ok = util::RetryWithBackoff(
      policy,
      [&] {
        ++calls;
        return false;
      },
      [](double) {}, &attempts);
  EXPECT_FALSE(ok);
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, AtomicWriteRetryAbsorbsTransientFault) {
  FaultInjectorGuard guard;
  const std::string path = TempPath("retry_transient.bin");
  util::FaultInjector::Config config;
  config.fail_write = 1;  // Only the first write attempt fails.
  config.fail_write_count = 1;
  util::FaultInjector::Instance().set_config(config);

  util::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 0;  // Keep the test instant.
  EXPECT_TRUE(util::AtomicWriteFileRetry(path, "payload", policy));
  EXPECT_EQ(ReadFileBytes(path), "payload");
  std::remove(path.c_str());
}

TEST(RetryTest, AtomicWriteRetryGivesUpOnPersistentFault) {
  FaultInjectorGuard guard;
  const std::string path = TempPath("retry_persistent.bin");
  ASSERT_TRUE(util::AtomicWriteFile(path, "old"));

  util::FaultInjector::Config config;
  config.fail_write = 1;  // set_config resets counters: every write fails.
  config.fail_write_count = 100;  // Outlasts any sane retry budget.
  util::FaultInjector::Instance().set_config(config);

  util::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 0;
  EXPECT_FALSE(util::AtomicWriteFileRetry(path, "new", policy));
  util::FaultInjector::Instance().Reset();
  // The destination is untouched by the failed attempts.
  EXPECT_EQ(ReadFileBytes(path), "old");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Thread-safe fault injector.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, ConcurrentEntryPointsCountExactly) {
  FaultInjectorGuard guard;
  util::FaultInjector::Config config;
  config.fail_write = 5;  // Exactly one of the concurrent writes fails.
  config.fail_write_count = 1;
  config.nan_loss = 7;  // Exactly one of the concurrent losses is poisoned.
  config.stall_task = 3;  // Exactly one task is told to stall.
  config.stall_ms = 1;
  util::FaultInjector::Instance().set_config(config);

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 4;
  std::atomic<int> failed_writes{0};
  std::atomic<int> poisoned{0};
  std::atomic<long> stall_total{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        std::string bytes = "x";
        if (!util::FaultInjector::Instance().OnWrite(bytes)) {
          failed_writes.fetch_add(1);
        }
        if (util::FaultInjector::Instance().PoisonLossNow()) {
          poisoned.fetch_add(1);
        }
        stall_total.fetch_add(util::FaultInjector::Instance().NextStallMs());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Each counter advanced exactly kThreads * kCallsPerThread times and each
  // armed fault fired exactly once — no lost or duplicated updates.
  EXPECT_EQ(util::FaultInjector::Instance().write_count(),
            kThreads * kCallsPerThread);
  EXPECT_EQ(failed_writes.load(), 1);
  EXPECT_EQ(poisoned.load(), 1);
  EXPECT_EQ(stall_total.load(), 1);
}

// ---------------------------------------------------------------------------
// ParallelFor watchdog.
// ---------------------------------------------------------------------------

TEST(WatchdogTest, FastBatchMeetsDeadline) {
  std::atomic<int> ran{0};
  util::ThreadPool pool(2);
  pool.ParallelFor(
      8, [&](int) { ran.fetch_add(1); }, /*deadline_ms=*/5000);
  EXPECT_EQ(ran.load(), 8);
}

TEST(WatchdogTest, ZeroDeadlineMeansNoWatchdog) {
  std::atomic<int> ran{0};
  util::ThreadPool pool(2);
  pool.ParallelFor(
      4,
      [&](int) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ran.fetch_add(1);
      },
      /*deadline_ms=*/0);
  EXPECT_EQ(ran.load(), 4);
}

TEST(WatchdogTest, HungTaskThrowsStructuredTimeout) {
  // Declared before the pool so they outlive the pool-destructor join that
  // waits for the still-sleeping task (the documented safety contract).
  std::atomic<int> ran{0};
  util::ThreadPool pool(2);
  try {
    pool.ParallelFor(
        2,
        [&](int i) {
          if (i == 1) {
            std::this_thread::sleep_for(std::chrono::milliseconds(400));
          }
          ran.fetch_add(1);
        },
        /*deadline_ms=*/50);
    FAIL() << "expected WatchdogTimeoutError";
  } catch (const util::WatchdogTimeoutError& e) {
    EXPECT_EQ(e.task_index(), 1);
    EXPECT_EQ(e.deadline_ms(), 50);
    if (e.task_started()) {
      EXPECT_GE(e.elapsed_ms(), 0);
    }
    EXPECT_NE(std::string(e.what()).find("task 1"), std::string::npos);
  }
}

TEST(WatchdogTest, TaskExceptionStillPropagatesUnderDeadline) {
  util::ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(
          4,
          [&](int i) {
            if (i == 2) throw std::runtime_error("task boom");
          },
          /*deadline_ms=*/5000),
      std::runtime_error);
}

// ---------------------------------------------------------------------------
// VecSampler stop check and step deadline.
// ---------------------------------------------------------------------------

TEST(SamplerSupervisionTest, StopCheckInterruptsCollect) {
  env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng rng(11);
  core::VecSampler sampler(env, rng, 2, 11);
  // Let the first timeslot run, then request a stop: Collect must throw at
  // the next boundary and discard the partial experience.
  int polls = 0;
  sampler.set_stop_check([&] { return ++polls > 1; });
  core::MultiAgentBuffer buffer(env.num_agents());
  std::vector<env::Metrics> metrics;
  EXPECT_THROW(sampler.Collect(2, DummyAct, buffer, metrics),
               util::InterruptedError);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_TRUE(metrics.empty());
}

TEST(SamplerSupervisionTest, StalledWorkerTripsStepDeadline) {
  FaultInjectorGuard guard;
  env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng rng(11);
  core::VecSampler sampler(env, rng, 2, 11);
  sampler.set_step_deadline_ms(100);
  util::FaultInjector::Config config;
  config.stall_task = 1;  // First guarded worker step hangs...
  config.stall_ms = 1500;  // ...well past the 100 ms deadline.
  util::FaultInjector::Instance().set_config(config);

  core::MultiAgentBuffer buffer(env.num_agents());
  std::vector<env::Metrics> metrics;
  try {
    sampler.Collect(2, DummyAct, buffer, metrics);
    FAIL() << "expected WatchdogTimeoutError";
  } catch (const util::WatchdogTimeoutError& e) {
    // The sampler annotates the pool's error with rollout context.
    const std::string what = e.what();
    EXPECT_NE(what.find("worker"), std::string::npos) << what;
    EXPECT_EQ(e.deadline_ms(), 100);
  }
  // Destruction is safe: the pool (declared last in VecSampler) joins the
  // straggler before the worker environments are destroyed.
}

// ---------------------------------------------------------------------------
// Oracle self-checks.
// ---------------------------------------------------------------------------

TEST(OracleGuardTest, NnKernelSelfCheckPassesOnHealthyKernels) {
  const core::OracleCheckResult result = core::NnKernelSelfCheck();
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(OracleGuardTest, EnvSelfCheckPassesOnHealthyIndex) {
  env::EnvConfig config = SmallEnvConfig();
  config.use_spatial_index = true;
  env::ScEnv env(config, SmallDataset(), 11);
  const core::OracleCheckResult result =
      core::LockStepEnvCheck(env, core::kFallbackSpatialIndex, 6);
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(OracleGuardTest, EnvSelfCheckTriviallyPassesOnNaivePath) {
  env::EnvConfig config = SmallEnvConfig();
  config.use_spatial_index = false;
  env::ScEnv env(config, SmallDataset(), 11);
  EXPECT_TRUE(core::LockStepEnvCheck(env, core::kFallbackSpatialIndex, 6).ok);
}

TEST(OracleGuardTest, EnvSelfCheckDoesNotMutateTheEnv) {
  env::EnvConfig config = SmallEnvConfig();
  config.use_spatial_index = true;
  env::ScEnv env(config, SmallDataset(), 11);
  env::StepResult before, after;
  {
    env::ScEnv probe(env);
    probe.Reset(before);
  }
  ASSERT_TRUE(core::LockStepEnvCheck(env, core::kFallbackSpatialIndex, 4).ok);
  {
    env::ScEnv probe(env);
    probe.Reset(after);
  }
  // The check ran on copies; env's own RNG state never advanced.
  EXPECT_EQ(before.state, after.state);
  EXPECT_EQ(before.observations, after.observations);
}

// ---------------------------------------------------------------------------
// Trainer-level supervision.
// ---------------------------------------------------------------------------

TEST(TrainerSupervisionTest, StopCheckFlushesFinalCheckpointAndThrows) {
  ShutdownGuard shutdown_guard;
  const std::string dir = TempPath("stop_flush_ckpt");
  fs::remove_all(dir);
  env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
  core::TrainConfig train = SmallTrainConfig();
  train.iterations = 8;
  train.checkpoint_dir = dir;
  train.checkpoint_every = 100;  // Periodic checkpoints never fire on their own.
  // The stop check is polled at iteration boundaries and at every sampling
  // timeslot; 20 polls lands mid-training (past iteration 0, well before
  // iteration 8 finishes).
  int polls = 0;
  train.stop_check = [&] { return ++polls > 20; };
  core::HiMadrlTrainer trainer(env, train);
  EXPECT_THROW(trainer.Train(), util::InterruptedError);
  EXPECT_GE(trainer.iteration(), 1);
  EXPECT_FALSE(trainer.stats_history().empty());

  // The final flush left a loadable checkpoint at the stop boundary.
  env::ScEnv env2(SmallEnvConfig(), SmallDataset(), 11);
  core::TrainConfig train2 = SmallTrainConfig();
  core::HiMadrlTrainer resumed(env2, train2);
  EXPECT_TRUE(resumed.LoadLatestCheckpoint(dir));
  EXPECT_EQ(resumed.iteration(), trainer.iteration());
  fs::remove_all(dir);
}

TEST(TrainerSupervisionTest, PersistentNanLossExhaustsBackoffBudget) {
  FaultInjectorGuard guard;
  const std::string dir = TempPath("diverged_ckpt");
  fs::remove_all(dir);
  env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
  core::TrainConfig train = SmallTrainConfig();
  train.iterations = 32;  // Upper bound; divergence aborts far earlier.
  train.anomaly_backoff_after = 2;
  train.max_lr_backoffs = 1;
  train.checkpoint_dir = dir;
  train.checkpoint_every = 100;
  core::HiMadrlTrainer trainer(env, train);

  util::FaultInjector::Config config;
  config.nan_loss_every = 1;  // Every guarded loss is NaN: unrecoverable.
  util::FaultInjector::Instance().set_config(config);
  EXPECT_THROW(trainer.Train(), core::TrainingDiverged);
  util::FaultInjector::Instance().Reset();
  EXPECT_EQ(trainer.lr_backoff_count(), 1);

  // The give-up path still flushed an inspectable/resumable checkpoint.
  env::ScEnv env2(SmallEnvConfig(), SmallDataset(), 11);
  core::TrainConfig train2 = SmallTrainConfig();
  core::HiMadrlTrainer resumed(env2, train2);
  EXPECT_TRUE(resumed.LoadLatestCheckpoint(dir));
  EXPECT_EQ(resumed.lr_backoff_count(), 1);
  fs::remove_all(dir);
}

TEST(TrainerSupervisionTest, OracleChecksRunCleanAndLeaveFastPathsOn) {
  env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
  core::TrainConfig train = SmallTrainConfig();
  train.iterations = 2;
  train.oracle_check_every = 1;
  core::HiMadrlTrainer trainer(env, train);
  const std::vector<core::IterationStats> stats = trainer.Train();
  ASSERT_EQ(stats.size(), 2u);
  for (const core::IterationStats& s : stats) {
    // Healthy kernels, index and channel: no downgrade recorded.
    EXPECT_EQ(s.oracle_fallbacks, 0u);
  }
  EXPECT_EQ(trainer.oracle_fallbacks(), 0u);
}

/// Counters word 5 of a decoded checkpoint: the supervisor word.
uint64_t& SupervisorWord(nn::Checkpoint& ckpt) {
  for (nn::CheckpointSection& section : ckpt.sections) {
    if (section.name == "counters") return section.words.at(5);
  }
  throw std::runtime_error("checkpoint has no counters section");
}

TEST(TrainerSupervisionTest, PersistedFallbacksReloadAndSaveTheSameWord) {
  // Every non-empty subset of the fallback bits (spatial index 1, GEMM 2,
  // channel 4), persisted next to a nonzero backoff count, must come back
  // from a checkpoint: downgraded paths, stats and the same word on save.
  KernelConfigGuard kernels;
  const std::string base = TempPath("fallback_base.agsc");
  const std::string edited = TempPath("fallback_edited.agsc");
  const std::string resaved = TempPath("fallback_resaved.agsc");
  {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer trainer(env, SmallTrainConfig());
    ASSERT_TRUE(trainer.SaveCheckpoint(base));
  }
  nn::Checkpoint ckpt;
  ASSERT_EQ(nn::DecodeCheckpoint(ReadFileBytes(base), ckpt),
            nn::CheckpointError::kOk);
  constexpr uint64_t kBackoffs = 3;
  for (uint64_t bits = 1; bits < 8; ++bits) {
    SCOPED_TRACE("fallback bits " + std::to_string(bits));
    const uint64_t word = bits | (kBackoffs << 8);
    SupervisorWord(ckpt) = word;
    ASSERT_TRUE(util::AtomicWriteFile(edited, nn::EncodeCheckpoint(ckpt)));

    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer trainer(env, SmallTrainConfig());
    ASSERT_TRUE(trainer.LoadCheckpoint(edited));
    EXPECT_EQ(trainer.oracle_fallbacks(), bits);
    EXPECT_EQ(trainer.lr_backoff_count(), static_cast<int>(kBackoffs));
    EXPECT_EQ(env.config().use_spatial_index, (bits & 1) == 0);
    EXPECT_EQ(env.config().use_channel_batch, (bits & 4) == 0);
    EXPECT_EQ(nn::GetKernelConfig().gemm, (bits & 2) != 0
                                              ? nn::GemmKernel::kNaive
                                              : nn::GemmKernel::kBlocked);

    const core::IterationStats stats = trainer.TrainIteration();
    EXPECT_EQ(stats.oracle_fallbacks, bits);

    ASSERT_TRUE(trainer.SaveCheckpoint(resaved));
    nn::Checkpoint saved;
    ASSERT_EQ(nn::DecodeCheckpoint(ReadFileBytes(resaved), saved),
              nn::CheckpointError::kOk);
    EXPECT_EQ(SupervisorWord(saved), word);
  }
  for (const std::string& path : {base, edited, resaved}) fs::remove(path);
}

}  // namespace
}  // namespace agsc
