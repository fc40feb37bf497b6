#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/policy.h"
#include "core/ppo.h"
#include "core/rollout.h"
#include "util/rng.h"

namespace agsc::core {
namespace {

TEST(AdvantageTest, OneStepMatchesHandComputation) {
  // A_t = r + gamma * V(next) - V (Eqn. 24).
  const std::vector<float> rewards = {1.0f, 2.0f, 3.0f};
  const std::vector<float> values = {0.5f, 1.0f, 1.5f};
  const std::vector<float> next_values = {1.0f, 1.5f, 2.0f};
  const std::vector<uint8_t> dones = {0, 0, 1};
  const AdvantageResult adv =
      OneStepAdvantages(rewards, values, next_values, dones, 0.9f);
  EXPECT_NEAR(adv.advantages[0], 1.0f + 0.9f * 1.0f - 0.5f, 1e-6);
  EXPECT_NEAR(adv.advantages[1], 2.0f + 0.9f * 1.5f - 1.0f, 1e-6);
  // Terminal: no bootstrap.
  EXPECT_NEAR(adv.advantages[2], 3.0f - 1.5f, 1e-6);
  EXPECT_NEAR(adv.returns[2], 3.0f, 1e-6);
}

TEST(AdvantageTest, LengthMismatchThrows) {
  EXPECT_THROW(OneStepAdvantages({1.0f}, {1.0f, 2.0f}, {1.0f}, {0}, 0.9f),
               std::invalid_argument);
  EXPECT_THROW(GaeAdvantages({1.0f}, {1.0f, 2.0f}, {1.0f}, {0}, 0.9f, 0.5f),
               std::invalid_argument);
}

TEST(AdvantageTest, GaeLambdaZeroEqualsOneStep) {
  util::Rng rng(3);
  std::vector<float> rewards(10), values(10), next_values(10);
  std::vector<uint8_t> dones(10, 0);
  dones[4] = dones[9] = 1;
  for (int i = 0; i < 10; ++i) {
    rewards[i] = static_cast<float>(rng.Gaussian());
    values[i] = static_cast<float>(rng.Gaussian());
    next_values[i] = static_cast<float>(rng.Gaussian());
  }
  const AdvantageResult one =
      OneStepAdvantages(rewards, values, next_values, dones, 0.95f);
  const AdvantageResult gae =
      GaeAdvantages(rewards, values, next_values, dones, 0.95f, 0.0f);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(one.advantages[i], gae.advantages[i], 1e-5);
  }
}

TEST(AdvantageTest, GaeLambdaOneIsMonteCarloResidual) {
  // With lambda = 1 and consistent V(next), GAE telescopes to the
  // discounted return minus V.
  const std::vector<float> rewards = {1.0f, 1.0f, 1.0f};
  const std::vector<float> values = {0.0f, 0.0f, 0.0f};
  const std::vector<float> next_values = {0.0f, 0.0f, 0.0f};
  const std::vector<uint8_t> dones = {0, 0, 1};
  const AdvantageResult gae =
      GaeAdvantages(rewards, values, next_values, dones, 0.5f, 1.0f);
  EXPECT_NEAR(gae.advantages[0], 1.0f + 0.5f + 0.25f, 1e-6);
  EXPECT_NEAR(gae.advantages[2], 1.0f, 1e-6);
}

TEST(AdvantageTest, GaeResetsAtEpisodeBoundary) {
  const std::vector<float> rewards = {1.0f, 5.0f};
  const std::vector<float> values = {0.0f, 0.0f};
  const std::vector<float> next_values = {0.0f, 0.0f};
  const std::vector<uint8_t> dones = {1, 1};
  const AdvantageResult gae =
      GaeAdvantages(rewards, values, next_values, dones, 0.9f, 0.9f);
  // Episode 2's reward must not leak into episode 1.
  EXPECT_NEAR(gae.advantages[0], 1.0f, 1e-6);
}

TEST(SuccessorValuesTest, EveryReadValueMatchesTheCriticOnTheNextRow) {
  // Hand-built stream: rows 0-1 and 3-5 follow each other, except that row
  // 1's next row is not row 2 (a non-done row the byte check must catch),
  // row 2 ends an episode (its next row is a terminal observation nobody
  // reads), and row 5, the last row, is cut off mid-episode.
  util::Rng rng(21);
  auto random_row = [&] {
    std::vector<float> row(3);
    for (float& x : row) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
    return row;
  };
  std::vector<std::vector<float>> rows;
  for (int t = 0; t < 6; ++t) rows.push_back(random_row());
  std::vector<std::vector<float>> next_rows;
  for (int t = 0; t < 5; ++t) next_rows.push_back(rows[t + 1]);
  next_rows.push_back(random_row());
  next_rows[1] = random_row();
  next_rows[2] = random_row();
  const std::vector<uint8_t> dones = {0, 0, 1, 0, 0, 0};

  NetConfig net;
  net.hidden = {8};
  const ValueNet critic(3, net, rng);
  const std::vector<int> fallback =
      SuccessorFallbackRows(rows, next_rows, dones);
  EXPECT_EQ(fallback, (std::vector<int>{1, 5}));
  std::vector<std::vector<float>> fallback_rows;
  for (int t : fallback) fallback_rows.push_back(next_rows[t]);
  const std::vector<float> values = critic.Values(rows);
  const std::vector<float> next_values = SuccessorValues(
      values, dones, fallback, critic.Values(fallback_rows));

  // The direct second pass the successor step replaces.
  const std::vector<float> direct = critic.Values(next_rows);
  ASSERT_EQ(next_values.size(), rows.size());
  for (size_t t = 0; t < rows.size(); ++t) {
    if (dones[t]) continue;
    EXPECT_EQ(next_values[t], critic.Values({next_rows[t]})[0]) << "row " << t;
    EXPECT_EQ(next_values[t], direct[t]) << "row " << t;
  }
  const std::vector<float> rewards = {0.5f, -1.0f, 2.0f, 0.25f, 1.5f, -0.5f};
  const AdvantageResult one = OneStepAdvantages(rewards, values, next_values,
                                                dones, 0.95f);
  const AdvantageResult one_direct =
      OneStepAdvantages(rewards, values, direct, dones, 0.95f);
  EXPECT_EQ(one.advantages, one_direct.advantages);
  EXPECT_EQ(one.returns, one_direct.returns);
  const AdvantageResult gae =
      GaeAdvantages(rewards, values, next_values, dones, 0.95f, 0.9f);
  const AdvantageResult gae_direct =
      GaeAdvantages(rewards, values, direct, dones, 0.95f, 0.9f);
  EXPECT_EQ(gae.advantages, gae_direct.advantages);
  EXPECT_EQ(gae.returns, gae_direct.returns);
}

TEST(SuccessorValuesTest, LengthMismatchThrows) {
  EXPECT_THROW(SuccessorFallbackRows({{1.0f}}, {}, {0}),
               std::invalid_argument);
  EXPECT_THROW(SuccessorValues({1.0f, 2.0f}, {0}, {}, {}),
               std::invalid_argument);
  EXPECT_THROW(SuccessorValues({1.0f}, {0}, {0}, {}), std::invalid_argument);
}

TEST(NormalizeTest, ZeroMeanUnitStd) {
  std::vector<float> xs = {1.0f, 2.0f, 3.0f, 4.0f, 5.0f};
  NormalizeInPlace(xs);
  float mean = 0.0f, sq = 0.0f;
  for (float x : xs) mean += x;
  mean /= 5.0f;
  for (float x : xs) sq += (x - mean) * (x - mean);
  EXPECT_NEAR(mean, 0.0f, 1e-5);
  EXPECT_NEAR(std::sqrt(sq / 5.0f), 1.0f, 1e-4);
}

TEST(NormalizeTest, ConstantVectorUnchanged) {
  std::vector<float> xs = {2.0f, 2.0f, 2.0f};
  NormalizeInPlace(xs);
  EXPECT_EQ(xs[0], 2.0f);
  std::vector<float> single = {5.0f};
  NormalizeInPlace(single);
  EXPECT_EQ(single[0], 5.0f);
}

TEST(PpoSurrogateTest, EqualPoliciesGiveMeanAdvantage) {
  // ratio = 1 everywhere -> J = mean(A).
  nn::Tensor logp(3, 1);
  logp(0, 0) = -1.0f;
  logp(1, 0) = -2.0f;
  logp(2, 0) = -0.5f;
  nn::Variable logp_new = nn::Variable::Constant(logp);
  const std::vector<float> logp_old = {-1.0f, -2.0f, -0.5f};
  const std::vector<float> adv = {1.0f, -2.0f, 4.0f};
  const nn::Variable j = PpoSurrogate(logp_new, logp_old, adv, 0.2f);
  EXPECT_NEAR(j.value()[0], 1.0f, 1e-5);
}

TEST(PpoSurrogateTest, ClipLimitsPositiveAdvantageGain) {
  // New policy much more likely + positive advantage: clipped at 1+eps.
  nn::Variable logp_new =
      nn::Variable::Constant(nn::Tensor::Scalar(0.0f));
  const nn::Variable j =
      PpoSurrogate(logp_new, {-2.0f}, {1.0f}, 0.2f);
  EXPECT_NEAR(j.value()[0], 1.2f, 1e-5);
}

TEST(PpoSurrogateTest, NegativeAdvantageTakesPessimisticBranch) {
  // ratio = e^2 with A < 0: min picks the *unclipped* (more negative) term.
  nn::Variable logp_new =
      nn::Variable::Constant(nn::Tensor::Scalar(0.0f));
  const nn::Variable j =
      PpoSurrogate(logp_new, {-2.0f}, {-1.0f}, 0.2f);
  EXPECT_NEAR(j.value()[0], -std::exp(2.0f), 1e-3);
}

TEST(PpoSurrogateTest, GradientPushesTowardPositiveAdvantageActions) {
  // Maximizing J should increase logp of positive-advantage samples.
  nn::Variable logp_new = nn::Variable::Parameter(nn::Tensor(2, 1));
  const nn::Variable j =
      PpoSurrogate(logp_new, {0.0f, 0.0f}, {1.0f, -1.0f}, 0.2f);
  j.Backward();
  EXPECT_GT(logp_new.grad()(0, 0), 0.0f);
  EXPECT_LT(logp_new.grad()(1, 0), 0.0f);
}

TEST(PpoSurrogateTest, ShapeValidation) {
  nn::Variable bad = nn::Variable::Constant(nn::Tensor(2, 2));
  EXPECT_THROW(PpoSurrogate(bad, {0.0f, 0.0f}, {1.0f, 1.0f}, 0.2f),
               std::invalid_argument);
  nn::Variable ok = nn::Variable::Constant(nn::Tensor(2, 1));
  EXPECT_THROW(PpoSurrogate(ok, {0.0f}, {1.0f, 1.0f}, 0.2f),
               std::invalid_argument);
}

TEST(RolloutTest, ClearResetsEverything) {
  AgentRollout r;
  r.obs.push_back({1.0f});
  r.reward_ext.push_back(1.0f);
  r.he_neighbors.push_back({1});
  r.Clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_TRUE(r.reward_ext.empty());
  EXPECT_TRUE(r.he_neighbors.empty());
}

TEST(RolloutTest, PackBatchSelectsRows) {
  std::vector<std::vector<float>> rows = {{1, 2}, {3, 4}, {5, 6}};
  const nn::Tensor batch = PackBatch(rows, {2, 0});
  EXPECT_EQ(batch.rows(), 2);
  EXPECT_EQ(batch.cols(), 2);
  EXPECT_EQ(batch(0, 0), 5.0f);
  EXPECT_EQ(batch(1, 1), 2.0f);
  EXPECT_THROW(PackBatch(rows, {}), std::invalid_argument);
}

TEST(RolloutTest, ActionBatch) {
  AgentRollout r;
  r.action_dir = {0.1f, 0.2f, 0.3f};
  r.action_speed = {-0.1f, -0.2f, -0.3f};
  const nn::Tensor batch = r.ActionBatch({1, 2});
  EXPECT_EQ(batch(0, 0), 0.2f);
  EXPECT_EQ(batch(1, 1), -0.3f);
}

TEST(RolloutTest, MinibatchesPartitionAllIndices) {
  util::Rng rng(9);
  const auto batches = MakeMinibatches(10, 3, rng);
  EXPECT_EQ(batches.size(), 4u);  // 3+3+3+1.
  std::set<int> seen;
  for (const auto& b : batches) {
    EXPECT_FALSE(b.empty());
    for (int i : b) seen.insert(i);
  }
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 9);
}

TEST(RolloutTest, MultiAgentBufferStateBatches) {
  MultiAgentBuffer buffer(2);
  buffer.states = {{1, 2}, {3, 4}};
  buffer.next_states = {{5, 6}, {7, 8}};
  const nn::Tensor s = buffer.StateBatch({1});
  EXPECT_EQ(s(0, 0), 3.0f);
  const nn::Tensor sn = buffer.NextStateBatch({0});
  EXPECT_EQ(sn(0, 1), 6.0f);
  buffer.Clear();
  EXPECT_EQ(buffer.size(), 0u);
}

}  // namespace
}  // namespace agsc::core
