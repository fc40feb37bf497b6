// Core-count invariance of the optimize phase. The trainer runs its M1 and
// M2 updates as one task per agent (plus one for V_all) on as many threads
// as the calling thread's affinity mask allows, up to the task count. These
// tests restrict that mask to 1, 2, 3 and all allowed CPUs, train the same
// small stack at each count, and require the saved checkpoint bytes and the
// per-iteration statistics to match the 1-CPU run exactly: in every
// TrainConfig variant that changes what the tasks share, and with a
// divergence-guard fault armed, which must poison the same minibatch at
// every count.

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hi_madrl.h"
#include "map/campus.h"
#include "util/fault_inject.h"
#include "util/thread_pool.h"

namespace agsc::core {
namespace {

const map::Dataset& SmallDataset() {
  static const map::Dataset* dataset =
      new map::Dataset(map::BuildDataset(map::CampusId::kPurdue, 20));
  return *dataset;
}

/// Four agents: five M1 tasks, so 1, 2, 3 and 4 CPUs each run a different
/// number of lanes.
env::EnvConfig SmallEnvConfig() {
  env::EnvConfig config;
  config.num_timeslots = 8;
  config.num_pois = 20;
  config.num_uavs = 2;
  config.num_ugvs = 2;
  return config;
}

/// Two minibatches per agent and epoch, so guarded loss #3 is agent 1's
/// first minibatch: a task that runs off the calling thread from 2 CPUs up.
TrainConfig SmallTrainConfig() {
  TrainConfig config;
  config.iterations = 2;
  config.episodes_per_iteration = 2;
  config.policy_epochs = 2;
  config.lcf_epochs = 2;
  config.minibatch = 8;
  config.net.hidden = {16};
  config.eoi.hidden = {8};
  config.eoi.epochs = 1;
  config.seed = 17;
  return config;
}

struct Variant {
  const char* name;
  TrainConfig config;
  int nan_loss = 0;  ///< FaultInjector::Config::nan_loss for the run.
};

void PrintTo(const Variant& variant, std::ostream* os) { *os << variant.name; }

std::vector<Variant> Variants() {
  std::vector<Variant> variants;
  variants.push_back({"Default", SmallTrainConfig()});
  variants.push_back({"Mappo", SmallTrainConfig()});
  variants.back().config.base = BaseAlgo::kMappo;
  variants.push_back({"ShareParams", SmallTrainConfig()});
  variants.back().config.share_params = true;
  variants.push_back({"CentralizedCritic", SmallTrainConfig()});
  variants.back().config.centralized_critic = true;
  variants.push_back({"Gae", SmallTrainConfig()});
  variants.back().config.gae_lambda = 0.95f;
  variants.push_back({"NanLoss3", SmallTrainConfig(), 3});
  return variants;
}

/// Restricts the calling thread to the first `count` CPUs of its current
/// affinity mask until the scope ends. Threads created meanwhile inherit
/// the restricted mask.
class ScopedCpuLimit {
 public:
  explicit ScopedCpuLimit(int count) {
    sched_getaffinity(0, sizeof(saved_), &saved_);
    cpu_set_t limited;
    CPU_ZERO(&limited);
    for (int cpu = 0, taken = 0; cpu < CPU_SETSIZE && taken < count; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &limited);
        ++taken;
      }
    }
    ok_ = sched_setaffinity(0, sizeof(limited), &limited) == 0;
  }
  ~ScopedCpuLimit() { sched_setaffinity(0, sizeof(saved_), &saved_); }
  ScopedCpuLimit(const ScopedCpuLimit&) = delete;
  ScopedCpuLimit& operator=(const ScopedCpuLimit&) = delete;
  bool ok() const { return ok_; }

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

struct RunResult {
  std::string checkpoint;
  std::vector<IterationStats> stats;
};

RunResult TrainOn(int cpus, const Variant& variant) {
  RunResult result;
  ScopedCpuLimit limit(cpus);
  EXPECT_TRUE(limit.ok()) << "sched_setaffinity to " << cpus << " CPUs";
  EXPECT_EQ(util::AvailableCpus(), cpus);
  util::FaultInjector::Config faults;
  faults.nan_loss = variant.nan_loss;
  util::FaultInjector::Instance().set_config(faults);
  {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 5);
    HiMadrlTrainer trainer(env, variant.config);
    result.stats = trainer.Train();
    const std::string path = ::testing::TempDir() + "/p" +
                             std::to_string(::getpid()) + "_cores_" +
                             variant.name + ".agsc";
    EXPECT_TRUE(trainer.SaveCheckpoint(path));
    std::ifstream in(path, std::ios::binary);
    result.checkpoint.assign(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
    std::remove(path.c_str());
  }  // The trainer joins its optimize threads before the mask is restored.
  util::FaultInjector::Instance().Reset();
  return result;
}

class CoreCountInvarianceTest : public ::testing::TestWithParam<Variant> {};

TEST_P(CoreCountInvarianceTest, CheckpointAndStatsMatchOneCpu) {
  const Variant& variant = GetParam();
  const int available = util::AvailableCpus();
  if (available < 2) {
    GTEST_SKIP() << "the affinity mask allows 1 CPU: no other count to "
                    "compare against";
  }
  std::vector<int> counts;
  for (int count : {2, 3}) {
    if (count < available) {
      counts.push_back(count);
    } else if (count > available) {
      std::cout << "[   SKIP   ] " << count << " CPUs: the affinity mask "
                << "allows only " << available << "\n";
    }
  }
  counts.push_back(available);

  const RunResult one = TrainOn(1, variant);
  ASSERT_FALSE(one.checkpoint.empty());
  ASSERT_EQ(one.stats.size(), 2u);
  if (variant.nan_loss > 0) {
    EXPECT_EQ(one.stats[0].anomalies, 1) << "the armed fault must fire once";
  }
  for (int cpus : counts) {
    SCOPED_TRACE(std::to_string(cpus) + " CPUs");
    const RunResult run = TrainOn(cpus, variant);
    EXPECT_TRUE(run.checkpoint == one.checkpoint)
        << "checkpoint bytes differ from the 1-CPU run";
    ASSERT_EQ(run.stats.size(), one.stats.size());
    for (size_t i = 0; i < run.stats.size(); ++i) {
      SCOPED_TRACE("iteration " + std::to_string(i));
      EXPECT_EQ(run.stats[i].actor_grad_norm, one.stats[i].actor_grad_norm);
      EXPECT_EQ(run.stats[i].value_loss, one.stats[i].value_loss);
      EXPECT_EQ(run.stats[i].anomalies, one.stats[i].anomalies);
      EXPECT_EQ(run.stats[i].eoi_loss, one.stats[i].eoi_loss);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, CoreCountInvarianceTest, ::testing::ValuesIn(Variants()),
    [](const ::testing::TestParamInfo<Variant>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace agsc::core
