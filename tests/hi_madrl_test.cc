#include <bit>
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/hi_madrl.h"

namespace agsc::core {
namespace {

const map::Dataset& SmallDataset() {
  static const map::Dataset* dataset =
      new map::Dataset(map::BuildDataset(map::CampusId::kPurdue, 20));
  return *dataset;
}

env::EnvConfig TinyEnvConfig() {
  env::EnvConfig config;
  config.num_timeslots = 10;
  config.num_pois = 20;
  config.num_uavs = 1;
  config.num_ugvs = 1;
  return config;
}

TrainConfig TinyTrainConfig() {
  TrainConfig config;
  config.iterations = 2;
  config.episodes_per_iteration = 1;
  config.policy_epochs = 2;
  config.lcf_epochs = 1;
  config.minibatch = 16;
  config.net.hidden = {32, 16};
  config.eoi.hidden = {16};
  config.eoi.epochs = 1;
  config.seed = 11;
  return config;
}

TEST(HiMadrlTest, ConstructionDefaults) {
  env::ScEnv env(TinyEnvConfig(), SmallDataset(), 1);
  HiMadrlTrainer trainer(env, TinyTrainConfig());
  ASSERT_EQ(trainer.lcfs().size(), 2u);
  // Algorithm 1 Line 3: phi = 0, chi = 45.
  EXPECT_DOUBLE_EQ(trainer.lcfs()[0].phi_deg, 0.0);
  EXPECT_DOUBLE_EQ(trainer.lcfs()[0].chi_deg, 45.0);
  EXPECT_GT(trainer.TotalParameterCount(), 1000);
  EXPECT_GT(trainer.ActorParameterBytes(), 0);
}

TEST(HiMadrlTest, TrainIterationProducesFiniteStats) {
  env::ScEnv env(TinyEnvConfig(), SmallDataset(), 2);
  HiMadrlTrainer trainer(env, TinyTrainConfig());
  const IterationStats stats = trainer.TrainIteration();
  EXPECT_EQ(stats.iteration, 0);
  EXPECT_TRUE(std::isfinite(stats.mean_reward_ext));
  EXPECT_TRUE(std::isfinite(stats.mean_reward_int));
  EXPECT_TRUE(std::isfinite(stats.eoi_loss));
  EXPECT_TRUE(std::isfinite(stats.actor_grad_norm));
  EXPECT_TRUE(std::isfinite(stats.value_loss));
  EXPECT_GT(stats.actor_grad_norm, 0.0f);
  EXPECT_GT(stats.total_env_steps, 0);
  // Intrinsic reward is a probability mass -> within [0, 1].
  EXPECT_GE(stats.mean_reward_int, 0.0f);
  EXPECT_LE(stats.mean_reward_int, 1.0f);
}

TEST(HiMadrlTest, LcfsStayInValidRangeAfterTraining) {
  env::ScEnv env(TinyEnvConfig(), SmallDataset(), 3);
  HiMadrlTrainer trainer(env, TinyTrainConfig());
  trainer.Train(3);
  for (const Lcf& lcf : trainer.lcfs()) {
    EXPECT_GE(lcf.phi_deg, 0.0);
    EXPECT_LE(lcf.phi_deg, 90.0);
    EXPECT_GE(lcf.chi_deg, 0.0);
    EXPECT_LE(lcf.chi_deg, 90.0);
  }
  EXPECT_EQ(trainer.total_env_steps(), 3L * 1 * 10 * 2);
}

TEST(HiMadrlTest, ActIsDeterministicInEvalMode) {
  env::ScEnv env(TinyEnvConfig(), SmallDataset(), 4);
  HiMadrlTrainer trainer(env, TinyTrainConfig());
  const env::StepResult r = env.Reset();
  util::Rng rng_a(1), rng_b(99);
  const env::UvAction a =
      trainer.Act(env, 0, r.observations[0], rng_a, true);
  const env::UvAction b =
      trainer.Act(env, 0, r.observations[0], rng_b, true);
  EXPECT_EQ(a.raw_direction, b.raw_direction);
  EXPECT_EQ(a.raw_speed, b.raw_speed);
  // Stochastic mode varies.
  const env::UvAction c =
      trainer.Act(env, 0, r.observations[0], rng_a, false);
  const env::UvAction d =
      trainer.Act(env, 0, r.observations[0], rng_a, false);
  EXPECT_NE(c.raw_direction, d.raw_direction);
}

TEST(HiMadrlTest, ActionsWithinTanhBounds) {
  env::ScEnv env(TinyEnvConfig(), SmallDataset(), 5);
  HiMadrlTrainer trainer(env, TinyTrainConfig());
  const env::StepResult r = env.Reset();
  util::Rng rng(1);
  const env::UvAction a =
      trainer.Act(env, 0, r.observations[0], rng, true);
  EXPECT_GE(a.raw_direction, -1.0);
  EXPECT_LE(a.raw_direction, 1.0);
  EXPECT_GE(a.raw_speed, -1.0);
  EXPECT_LE(a.raw_speed, 1.0);
}

/// The bit pattern of a float action component (Act widens it to double).
uint32_t FloatBits(double x) {
  return std::bit_cast<uint32_t>(static_cast<float>(x));
}

TEST(HiMadrlTest, ActBitEqualsGraphModeAndSample) {
  // Act, the Evaluator's and Table VII's path, runs the tape-free mean and
  // the graph-free draw. It must return the graph path's mode, and its
  // Sample from an equal stream, bit for bit, and leave the stream in the
  // same state, with and without share_params' one-hot id (written out by
  // hand here).
  for (const bool share : {false, true}) {
    env::ScEnv env(TinyEnvConfig(), SmallDataset(), 12);
    TrainConfig config = TinyTrainConfig();
    config.share_params = share;
    HiMadrlTrainer trainer(env, config);
    trainer.TrainIteration();  // Weights away from their initialization.
    const env::StepResult r = env.Reset();
    for (int k = 0; k < env.num_agents(); ++k) {
      const std::vector<float>& obs = r.observations[k];
      std::vector<float> input = obs;
      for (int j = 0; share && j < env.num_agents(); ++j) {
        input.push_back(j == k ? 1.0f : 0.0f);
      }
      nn::Tensor row(1, static_cast<int>(input.size()));
      for (size_t c = 0; c < input.size(); ++c) {
        row[static_cast<int>(c)] = input[c];
      }
      const nn::DiagGaussian dist = trainer.actor(k).Dist(row);
      util::Rng act_rng(40 + k), graph_rng(40 + k);

      const env::UvAction mode = trainer.Act(env, k, obs, act_rng, true);
      const nn::Tensor graph_mode = dist.Mode();
      EXPECT_EQ(FloatBits(mode.raw_direction),
                std::bit_cast<uint32_t>(graph_mode(0, 0)))
          << "share " << share << " agent " << k;
      EXPECT_EQ(FloatBits(mode.raw_speed),
                std::bit_cast<uint32_t>(graph_mode(0, 1)))
          << "share " << share << " agent " << k;

      const env::UvAction drawn = trainer.Act(env, k, obs, act_rng, false);
      const nn::Tensor graph_drawn = dist.Sample(graph_rng);
      EXPECT_EQ(FloatBits(drawn.raw_direction),
                std::bit_cast<uint32_t>(graph_drawn(0, 0)))
          << "share " << share << " agent " << k;
      EXPECT_EQ(FloatBits(drawn.raw_speed),
                std::bit_cast<uint32_t>(graph_drawn(0, 1)))
          << "share " << share << " agent " << k;
      EXPECT_EQ(act_rng.SaveState(), graph_rng.SaveState())
          << "share " << share << " agent " << k;
    }
  }
}

TEST(HiMadrlTest, AblationVariantsTrain) {
  // Every Table VI configuration must run without error.
  for (const auto& [use_eoi, use_copo] :
       std::vector<std::pair<bool, bool>>{
           {true, true}, {false, true}, {true, false}, {false, false}}) {
    env::ScEnv env(TinyEnvConfig(), SmallDataset(), 6);
    TrainConfig config = TinyTrainConfig();
    config.use_eoi = use_eoi;
    config.use_copo = use_copo;
    HiMadrlTrainer trainer(env, config);
    const IterationStats stats = trainer.TrainIteration();
    EXPECT_TRUE(std::isfinite(stats.actor_grad_norm));
    if (!use_eoi) {
      EXPECT_EQ(stats.mean_reward_int, 0.0f);
    }
  }
}

TEST(HiMadrlTest, PlainCopoVariantTrains) {
  env::ScEnv env(TinyEnvConfig(), SmallDataset(), 7);
  TrainConfig config = TinyTrainConfig();
  config.hetero_copo = false;  // h/i-MADRL(CoPO) baseline.
  HiMadrlTrainer trainer(env, config);
  trainer.TrainIteration();
  // Plain CoPO never touches chi.
  EXPECT_DOUBLE_EQ(trainer.lcfs()[0].chi_deg, 45.0);
}

TEST(HiMadrlTest, SharedParametersVariantTrains) {
  env::ScEnv env(TinyEnvConfig(), SmallDataset(), 8);
  TrainConfig config = TinyTrainConfig();
  config.share_params = true;
  HiMadrlTrainer trainer(env, config);
  const int shared_params = trainer.TotalParameterCount();
  trainer.TrainIteration();
  // Compared with unshared nets, SP should have fewer parameters overall.
  env::ScEnv env2(TinyEnvConfig(), SmallDataset(), 8);
  TrainConfig unshared = TinyTrainConfig();
  HiMadrlTrainer trainer2(env2, unshared);
  EXPECT_LT(shared_params, trainer2.TotalParameterCount());
}

TEST(HiMadrlTest, CentralizedCriticAndMappoVariantsTrain) {
  for (const bool cc : {true, false}) {
    env::ScEnv env(TinyEnvConfig(), SmallDataset(), 9);
    TrainConfig config = TinyTrainConfig();
    config.base = BaseAlgo::kMappo;
    config.centralized_critic = cc;
    HiMadrlTrainer trainer(env, config);
    const IterationStats stats = trainer.TrainIteration();
    EXPECT_TRUE(std::isfinite(stats.value_loss));
  }
}

TEST(HiMadrlTest, OmegaInAnnealing) {
  env::ScEnv env(TinyEnvConfig(), SmallDataset(), 10);
  TrainConfig config = TinyTrainConfig();
  config.iterations = 5;
  config.omega_in = 0.01f;
  config.omega_in_final = 0.001f;
  HiMadrlTrainer trainer(env, config);
  EXPECT_NEAR(trainer.CurrentOmegaIn(), 0.01f, 1e-6);
  trainer.Train(4);
  EXPECT_LT(trainer.CurrentOmegaIn(), 0.01f);
  trainer.TrainIteration();
  EXPECT_NEAR(trainer.CurrentOmegaIn(), 0.001f, 1e-6);
}

TEST(HiMadrlTest, GaeVariantTrains) {
  env::ScEnv env(TinyEnvConfig(), SmallDataset(), 12);
  TrainConfig config = TinyTrainConfig();
  config.gae_lambda = 0.95f;
  HiMadrlTrainer trainer(env, config);
  const IterationStats stats = trainer.TrainIteration();
  EXPECT_TRUE(std::isfinite(stats.actor_grad_norm));
}

TEST(HiMadrlTest, DeterministicTrainingGivenSeed) {
  env::ScEnv env_a(TinyEnvConfig(), SmallDataset(), 13);
  env::ScEnv env_b(TinyEnvConfig(), SmallDataset(), 13);
  HiMadrlTrainer a(env_a, TinyTrainConfig());
  HiMadrlTrainer b(env_b, TinyTrainConfig());
  const IterationStats sa = a.TrainIteration();
  const IterationStats sb = b.TrainIteration();
  EXPECT_EQ(sa.mean_reward_ext, sb.mean_reward_ext);
  EXPECT_EQ(sa.actor_grad_norm, sb.actor_grad_norm);
  EXPECT_EQ(a.lcfs()[0].phi_deg, b.lcfs()[0].phi_deg);
}

}  // namespace
}  // namespace agsc::core
