// Determinism tests for the in-process rollout sampler: bit-identical
// collection for a fixed (seed, num_workers) pair, exact equivalence of
// the single-worker batched path with a sequential Algorithm-1 reference
// loop, stable worker-order merging, and bit-exact checkpoint resume with
// worker RNG streams (the "vrng" checkpoint section).

#include <unistd.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hi_madrl.h"
#include "core/policy.h"
#include "core/rollout.h"
#include "core/vec_sampler.h"
#include "env/config.h"
#include "env/sc_env.h"
#include "map/campus.h"
#include "nn/distributions.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace agsc {
namespace {

const map::Dataset& SmallDataset() {
  static const map::Dataset* dataset =
      new map::Dataset(map::BuildDataset(map::CampusId::kPurdue, 10));
  return *dataset;
}

constexpr int kTimeslots = 6;

env::EnvConfig SmallEnvConfig() {
  env::EnvConfig config;
  config.num_timeslots = kTimeslots;
  config.num_pois = 10;
  config.num_uavs = 1;
  config.num_ugvs = 1;
  return config;
}

core::TrainConfig SmallTrainConfig(int num_workers, int episodes = 3) {
  core::TrainConfig train;
  train.iterations = 2;
  train.episodes_per_iteration = episodes;
  train.policy_epochs = 1;
  train.lcf_epochs = 1;
  train.minibatch = 64;
  train.net.hidden = {16};
  train.eoi.hidden = {12};
  train.num_workers = num_workers;
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

/// Bitwise equality of two buffers across every stream (EXPECT_EQ on
/// floats is exact — the determinism contract is bit-identity, not
/// approximate agreement).
void ExpectBuffersBitEqual(const core::MultiAgentBuffer& a,
                           const core::MultiAgentBuffer& b) {
  ASSERT_EQ(a.agents.size(), b.agents.size());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.reward_all, b.reward_all);
  EXPECT_EQ(a.done, b.done);
  for (size_t k = 0; k < a.agents.size(); ++k) {
    const core::AgentRollout& x = a.agents[k];
    const core::AgentRollout& y = b.agents[k];
    ASSERT_EQ(x.size(), y.size()) << "agent " << k;
    EXPECT_EQ(x.obs, y.obs) << "agent " << k;
    EXPECT_EQ(x.action_dir, y.action_dir) << "agent " << k;
    EXPECT_EQ(x.action_speed, y.action_speed) << "agent " << k;
    EXPECT_EQ(x.logp_old, y.logp_old) << "agent " << k;
    EXPECT_EQ(x.reward_ext, y.reward_ext) << "agent " << k;
    EXPECT_EQ(x.he_neighbors, y.he_neighbors) << "agent " << k;
    EXPECT_EQ(x.ho_neighbors, y.ho_neighbors) << "agent " << k;
    EXPECT_EQ(x.done, y.done) << "agent " << k;
  }
}

void ExpectMetricsBitEqual(const std::vector<env::Metrics>& a,
                           const std::vector<env::Metrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ToVector(), b[i].ToVector()) << "episode " << i;
  }
}

// ---------------------------------------------------------------------------
// Rng::Split.
// ---------------------------------------------------------------------------

TEST(RngSplitTest, DoesNotAdvanceParent) {
  util::Rng rng(42);
  const auto before = rng.SaveState();
  (void)rng.Split(0);
  (void)rng.Split(7);
  EXPECT_EQ(rng.SaveState(), before);
}

TEST(RngSplitTest, SameIdSameStreamDistinctIdsDiverge) {
  const util::Rng base(42);
  util::Rng a = base.Split(3);
  util::Rng b = base.Split(3);
  util::Rng c = base.Split(4);
  EXPECT_EQ(a.SaveState(), b.SaveState());
  bool diverged = false;
  for (int i = 0; i < 8; ++i) {
    const uint64_t av = a.NextU64();
    if (av != c.NextU64()) diverged = true;
    EXPECT_EQ(av, b.NextU64());
  }
  EXPECT_TRUE(diverged);
}

TEST(RngSplitTest, ChildDiffersFromParentStream) {
  util::Rng parent(42);
  util::Rng child = parent.Split(0);
  bool diverged = false;
  for (int i = 0; i < 8; ++i) {
    if (parent.NextU64() != child.NextU64()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

// ---------------------------------------------------------------------------
// Direct VecSampler collection with a deterministic dummy actor.
// ---------------------------------------------------------------------------

/// A policy-free BatchActFn: each row's action is a pure function of that
/// row's private stream (one Gaussian per action dim, drawn agent by agent
/// in row order, exactly like the real sampler).
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
      logps_out[k][i] = static_cast<float>(i);
    }
  }
}

TEST(VecSamplerTest, RejectsNonPositiveWorkerCount) {
  env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng rng(11);
  EXPECT_THROW(core::VecSampler(env, rng, 0, 11), std::invalid_argument);
}

TEST(VecSamplerTest, MergedBufferHasEpisodeShapeAndStableOrder) {
  env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng rng(11);
  core::VecSampler sampler(env, rng, 2, 11);

  core::MultiAgentBuffer buffer(env.num_agents());
  std::vector<env::Metrics> metrics;
  constexpr int kEpisodes = 3;
  sampler.Collect(kEpisodes, DummyAct, buffer, metrics);

  // Fixed-length episodes: every episode contributes exactly kTimeslots
  // steps, and the merge is episode-contiguous, so done flags sit exactly
  // at the episode boundaries.
  ASSERT_EQ(buffer.size(), static_cast<size_t>(kEpisodes * kTimeslots));
  EXPECT_EQ(metrics.size(), static_cast<size_t>(kEpisodes));
  for (int e = 0; e < kEpisodes; ++e) {
    for (int t = 0; t < kTimeslots; ++t) {
      const size_t i = static_cast<size_t>(e * kTimeslots + t);
      EXPECT_EQ(buffer.done[i], t == kTimeslots - 1 ? 1 : 0) << "row " << i;
    }
  }
  for (const core::AgentRollout& agent : buffer.agents) {
    EXPECT_EQ(agent.size(), buffer.size());
  }
}

TEST(VecSamplerTest, CollectionIsBitIdenticalAcrossRuns) {
  auto collect = [](int num_workers, int episodes) {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    util::Rng rng(11);
    core::VecSampler sampler(env, rng, num_workers, 11);
    core::MultiAgentBuffer buffer(env.num_agents());
    std::vector<env::Metrics> metrics;
    sampler.Collect(episodes, DummyAct, buffer, metrics);
    return buffer;
  };
  for (const int workers : {1, 2, 4}) {
    const core::MultiAgentBuffer a = collect(workers, 5);
    const core::MultiAgentBuffer b = collect(workers, 5);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExpectBuffersBitEqual(a, b);
  }
}

TEST(VecSamplerTest, MoreWorkersThanEpisodesStillDeterministic) {
  auto collect = [] {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    util::Rng rng(11);
    core::VecSampler sampler(env, rng, 8, 11);
    core::MultiAgentBuffer buffer(env.num_agents());
    std::vector<env::Metrics> metrics;
    sampler.Collect(3, DummyAct, buffer, metrics);
    EXPECT_EQ(metrics.size(), 3u);
    return buffer;
  };
  const core::MultiAgentBuffer a = collect();
  const core::MultiAgentBuffer b = collect();
  ASSERT_EQ(a.size(), static_cast<size_t>(3 * kTimeslots));
  ExpectBuffersBitEqual(a, b);
}

// ---------------------------------------------------------------------------
// One worker against a sequential reference: Algorithm 1, Lines 5-11.
// ---------------------------------------------------------------------------

/// One small actor per agent, with fixed weights.
std::vector<std::unique_ptr<core::GaussianActor>> MakeActors(
    const env::ScEnv& env) {
  core::NetConfig net;
  net.hidden = {16};
  util::Rng init(5);
  std::vector<std::unique_ptr<core::GaussianActor>> actors;
  for (int k = 0; k < env.num_agents(); ++k) {
    actors.push_back(std::make_unique<core::GaussianActor>(
        env.obs_dim(), env::ScEnv::kActionDim, net, init));
  }
  return actors;
}

/// The sequential sampling loop: reset, one graph-path draw per agent in
/// agent order from the single stream `rng` (Dist on the agent's one-row
/// batch, Sample, LogProb), step, append, and the episode metrics once the
/// episode is done.
void SequentialCollect(
    env::ScEnv& env,
    const std::vector<std::unique_ptr<core::GaussianActor>>& actors,
    util::Rng& rng, int episodes, core::MultiAgentBuffer& buffer,
    std::vector<env::Metrics>& metrics) {
  const int num_agents = env.num_agents();
  for (int e = 0; e < episodes; ++e) {
    env::StepResult cur = env.Reset();
    bool done = false;
    while (!done) {
      std::vector<std::vector<float>> raw(static_cast<size_t>(num_agents));
      std::vector<float> logps(static_cast<size_t>(num_agents));
      std::vector<env::UvAction> actions(static_cast<size_t>(num_agents));
      for (int k = 0; k < num_agents; ++k) {
        const nn::DiagGaussian dist =
            actors[k]->Dist(core::PackBatch(cur.observations, {k}));
        const nn::Tensor action = dist.Sample(rng);
        logps[k] = dist.LogProb(action).value()(0, 0);
        raw[k] = {action(0, 0), action(0, 1)};
        actions[k] = {raw[k][0], raw[k][1]};
      }
      env::StepResult next = env.Step(actions);
      done = next.done;
      for (int k = 0; k < num_agents; ++k) {
        core::AgentRollout& r = buffer.agents[k];
        r.obs.push_back(cur.observations[k]);
        r.action_dir.push_back(raw[k][0]);
        r.action_speed.push_back(raw[k][1]);
        r.logp_old.push_back(logps[k]);
        r.reward_ext.push_back(static_cast<float>(next.rewards[k]));
        r.he_neighbors.push_back(env.HeterogeneousNeighbors(k));
        r.ho_neighbors.push_back(env.HomogeneousNeighbors(k));
        r.done.push_back(done ? 1 : 0);
      }
      buffer.states.push_back(cur.state);
      buffer.done.push_back(done ? 1 : 0);
      cur = std::move(next);
    }
    metrics.push_back(env.EpisodeMetrics());
  }
}

TEST(VecSamplerTest, SingleWorkerMatchesSequentialReferenceBitExactly) {
  // The sampler's side is the trainer's BatchAct path: one tape-free
  // Mlp::Infer per agent over the stacked rows, then, agent by agent, each
  // row's sample from its stream and its log-probability without a graph.
  // With one worker every batch has one row, so it must reproduce the
  // per-agent graph-path draws bit-for-bit: same draw order, same row
  // math.
  env::ScEnv ref_env(SmallEnvConfig(), SmallDataset(), 11);
  const auto actors = MakeActors(ref_env);
  util::Rng ref_rng(11);
  core::MultiAgentBuffer ref_buffer(ref_env.num_agents());
  std::vector<env::Metrics> ref_metrics;
  SequentialCollect(ref_env, actors, ref_rng, 3, ref_buffer, ref_metrics);

  const auto batch_act =
      [&actors](
          const std::vector<const std::vector<std::vector<float>>*>& rows,
          const std::vector<util::Rng*>& rngs,
          std::vector<std::vector<std::array<float, 2>>>& actions_out,
          std::vector<std::vector<float>>& logps_out) {
        const int n = static_cast<int>(rows.size());
        for (size_t k = 0; k < actors.size(); ++k) {
          const int dim = static_cast<int>((*rows[0])[k].size());
          nn::Tensor batch(n, dim);
          for (int r = 0; r < n; ++r) {
            for (int c = 0; c < dim; ++c) batch(r, c) = (*rows[r])[k][c];
          }
          const nn::Tensor mean = actors[k]->mean_net().Infer(batch);
          const float* log_std = actors[k]->log_std().value().data();
          for (int r = 0; r < n; ++r) {
            const float* row_mean = mean.data() + r * mean.cols();
            float* action = actions_out[k][r].data();
            nn::SampleDiagGaussianRow(row_mean, log_std, 2, *rngs[r], action);
            logps_out[k][r] =
                nn::DiagGaussianRowLogProb(row_mean, log_std, action, 2);
          }
        }
      };
  env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng rng(11);
  core::VecSampler sampler(env, rng, 1, 11);
  core::MultiAgentBuffer buffer(env.num_agents());
  std::vector<env::Metrics> metrics;
  sampler.Collect(3, batch_act, buffer, metrics);

  ASSERT_EQ(buffer.size(), static_cast<size_t>(3 * kTimeslots));
  ExpectBuffersBitEqual(ref_buffer, buffer);
  ExpectMetricsBitEqual(ref_metrics, metrics);
  // Both sides consumed the same draws from the same streams.
  EXPECT_EQ(ref_rng.SaveState(), rng.SaveState());
  EXPECT_EQ(ref_env.rng().SaveState(), env.rng().SaveState());
}

// ---------------------------------------------------------------------------
// Trainer-level determinism.
// ---------------------------------------------------------------------------

TEST(VecSamplerTrainerTest, NonPositiveWorkerCountThrowsAtConstruction) {
  for (const int workers : {0, -1}) {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    EXPECT_THROW(core::HiMadrlTrainer(env, SmallTrainConfig(workers)),
                 std::invalid_argument)
        << "workers=" << workers;
  }
}

TEST(VecSamplerTrainerTest, SameSeedSameWorkersIsBitIdentical) {
  auto run = [](const std::string& name) {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer trainer(env, SmallTrainConfig(3, 5));
    trainer.TrainTo(2);
    const std::string path = TempPath(name);
    EXPECT_TRUE(trainer.SaveCheckpoint(path));
    std::string bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    return bytes;
  };
  EXPECT_EQ(run("det_a.agsc"), run("det_b.agsc"));
}

TEST(VecSamplerTrainerTest, WorkerRolloutsDifferButBufferShapeMatches) {
  // Different worker counts legitimately produce different samples (the
  // replica streams reorder the randomness) but identical buffer shape.
  env::ScEnv env1(SmallEnvConfig(), SmallDataset(), 11);
  core::HiMadrlTrainer t1(env1, SmallTrainConfig(1, 4));
  env::ScEnv env2(SmallEnvConfig(), SmallDataset(), 11);
  core::HiMadrlTrainer t2(env2, SmallTrainConfig(2, 4));
  t1.CollectRollouts();
  t2.CollectRollouts();
  EXPECT_EQ(t1.buffer().size(), t2.buffer().size());
  EXPECT_EQ(t1.buffer().size(), static_cast<size_t>(4 * kTimeslots));
}

TEST(VecSamplerTrainerTest, ResumeWithWorkersIsBitExact) {
  // Train 4 iterations with 2 workers straight through...
  env::ScEnv env_full(SmallEnvConfig(), SmallDataset(), 11);
  core::HiMadrlTrainer full(env_full, SmallTrainConfig(2));
  full.TrainTo(4);
  const std::string full_path = TempPath("vec_full.agsc");
  ASSERT_TRUE(full.SaveCheckpoint(full_path));

  // ...and as 2 iterations, a checkpoint round-trip through a FRESH
  // trainer (which restores every worker RNG stream from the vrng
  // section), then 2 more.
  const std::string mid_path = TempPath("vec_mid.agsc");
  {
    env::ScEnv env_a(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer first_half(env_a, SmallTrainConfig(2));
    first_half.TrainTo(2);
    ASSERT_TRUE(first_half.SaveCheckpoint(mid_path));
  }
  env::ScEnv env_b(SmallEnvConfig(), SmallDataset(), 11);
  core::HiMadrlTrainer second_half(env_b, SmallTrainConfig(2));
  ASSERT_TRUE(second_half.LoadCheckpoint(mid_path));
  EXPECT_EQ(second_half.iteration(), 2);
  second_half.TrainTo(4);
  const std::string resumed_path = TempPath("vec_resumed.agsc");
  ASSERT_TRUE(second_half.SaveCheckpoint(resumed_path));

  EXPECT_EQ(ReadFileBytes(full_path), ReadFileBytes(resumed_path));
  std::remove(full_path.c_str());
  std::remove(mid_path.c_str());
  std::remove(resumed_path.c_str());
}

TEST(VecSamplerTrainerTest, WorkerCountMismatchOnLoadIsRejected) {
  const std::string w3_path = TempPath("w3.agsc");
  const std::string w1_path = TempPath("w1.agsc");
  {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer trainer(env, SmallTrainConfig(3));
    trainer.TrainIteration();
    ASSERT_TRUE(trainer.SaveCheckpoint(w3_path));
  }
  {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer trainer(env, SmallTrainConfig(1));
    trainer.TrainIteration();
    ASSERT_TRUE(trainer.SaveCheckpoint(w1_path));
  }

  // W=3 file into W=2 and W=1 trainers: both rejected.
  for (const int workers : {2, 1}) {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer trainer(env, SmallTrainConfig(workers));
    EXPECT_FALSE(trainer.LoadCheckpoint(w3_path)) << "workers=" << workers;
  }
  // W=1 file (no vrng section) into a W=3 trainer: also rejected — the
  // file cannot seed 3 worker streams.
  {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer trainer(env, SmallTrainConfig(3));
    EXPECT_FALSE(trainer.LoadCheckpoint(w1_path));
  }
  // Sanity: the same file loads fine with a matching worker count.
  {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer trainer(env, SmallTrainConfig(3));
    EXPECT_TRUE(trainer.LoadCheckpoint(w3_path));
  }
  std::remove(w3_path.c_str());
  std::remove(w1_path.c_str());
}

// ---------------------------------------------------------------------------
// Collect-forward placement: the calling thread or optimize-pool lanes.
// ---------------------------------------------------------------------------

/// Forces the collect-forward placement for one scope, then restores the
/// size rule.
class ScopedForwardPlacement {
 public:
  explicit ScopedForwardPlacement(core::internal::ForwardPlacement placement) {
    core::internal::SetForwardPlacement(placement);
  }
  ~ScopedForwardPlacement() {
    core::internal::SetForwardPlacement(
        core::internal::ForwardPlacement::kBySize);
  }
};

TEST(VecSamplerTrainerTest, ForwardPlacementLeavesBuffersAndCheckpointsEqual) {
  using core::internal::ForwardPlacement;
  struct Run {
    core::MultiAgentBuffer buffer{0};
    std::string checkpoint;
  };
  for (const bool share : {false, true}) {
    for (const int workers : {1, 3}) {
      SCOPED_TRACE("share_params=" + std::to_string(share) +
                   " workers=" + std::to_string(workers));
      const auto run = [&](ForwardPlacement placement) {
        const ScopedForwardPlacement scoped(placement);
        env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
        core::TrainConfig config = SmallTrainConfig(workers, 4);
        config.share_params = share;
        core::HiMadrlTrainer trainer(env, config);
        EXPECT_EQ(trainer.CollectForwardsInLanes(),
                  placement == ForwardPlacement::kLanes);
        trainer.TrainTo(2);
        const std::string path = TempPath("placement.agsc");
        EXPECT_TRUE(trainer.SaveCheckpoint(path));
        Run out{trainer.buffer(), ReadFileBytes(path)};
        std::remove(path.c_str());
        return out;
      };
      const Run caller = run(ForwardPlacement::kCaller);
      const Run lanes = run(ForwardPlacement::kLanes);
      ASSERT_EQ(caller.buffer.size(), static_cast<size_t>(4 * kTimeslots));
      ExpectBuffersBitEqual(caller.buffer, lanes.buffer);
      ASSERT_FALSE(caller.checkpoint.empty());
      EXPECT_EQ(caller.checkpoint, lanes.checkpoint);
    }
  }
}

TEST(VecSamplerTrainerTest, ForwardPlacementRuleFollowsFirstLayerSize) {
  // agsc_train's default networks: a 312 x 128 first layer (156 KiB) at 100
  // PoIs stays on the calling thread, a 3012 x 128 one (1.47 MiB) at 1000
  // PoIs runs in lanes.
  for (const int pois : {100, 1000}) {
    const map::Dataset dataset =
        map::BuildDataset(map::CampusId::kPurdue, pois);
    env::EnvConfig env_config;
    env_config.num_timeslots = kTimeslots;
    env_config.num_pois = pois;
    env::ScEnv env(env_config, dataset, 11);
    core::TrainConfig config;
    config.seed = 11;
    core::HiMadrlTrainer trainer(env, config);
    EXPECT_EQ(trainer.CollectForwardsInLanes(), pois == 1000)
        << "pois=" << pois;
  }
}

}  // namespace
}  // namespace agsc
