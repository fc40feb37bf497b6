#include <bit>
#include <cmath>
#include <cstdint>
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

/// The bit patterns of `xs`, so -0/+0 and NaNs compare exactly.
std::vector<uint32_t> Bits(const std::vector<float>& xs) {
  std::vector<uint32_t> bits;
  for (float x : xs) bits.push_back(std::bit_cast<uint32_t>(x));
  return bits;
}

TEST(SuccessorValuesTest, EveryReadValueMatchesTheCriticOnTheNextRow) {
  // Three whole episodes (rows 0-1, 2-4 and 5) stored the way the sampler
  // stores them: o_{t+1} of a non-done row is row t + 1. A direct critic
  // pass on each row's successor must give bit-identical successor values
  // and one-step and GAE advantages.
  util::Rng rng(21);
  std::vector<std::vector<float>> rows(6, std::vector<float>(3));
  for (std::vector<float>& row : rows) {
    for (float& x : row) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  const std::vector<uint8_t> dones = {0, 1, 0, 0, 1, 1};

  NetConfig net;
  net.hidden = {8};
  const ValueNet critic(3, net, rng);
  const std::vector<float> values =
      critic.Values(PackBatch(rows, AllIndices(rows.size())));
  const std::vector<float> next_values = SuccessorValues(values, dones);

  // The second critic pass the successor step replaces, one row at a time.
  std::vector<float> direct(rows.size(), 0.0f);
  for (size_t t = 0; t < rows.size(); ++t) {
    if (!dones[t]) {
      direct[t] = critic.Values(PackBatch(rows, {static_cast<int>(t + 1)}))[0];
    }
  }
  EXPECT_EQ(Bits(next_values), Bits(direct));
  const std::vector<float> rewards = {0.5f, -1.0f, 2.0f, 0.25f, 1.5f, -0.5f};
  const AdvantageResult one = OneStepAdvantages(rewards, values, next_values,
                                                dones, 0.95f);
  const AdvantageResult one_direct =
      OneStepAdvantages(rewards, values, direct, dones, 0.95f);
  EXPECT_EQ(Bits(one.advantages), Bits(one_direct.advantages));
  EXPECT_EQ(Bits(one.returns), Bits(one_direct.returns));
  const AdvantageResult gae =
      GaeAdvantages(rewards, values, next_values, dones, 0.95f, 0.9f);
  const AdvantageResult gae_direct =
      GaeAdvantages(rewards, values, direct, dones, 0.95f, 0.9f);
  EXPECT_EQ(Bits(gae.advantages), Bits(gae_direct.advantages));
  EXPECT_EQ(Bits(gae.returns), Bits(gae_direct.returns));
}

TEST(SuccessorValuesTest, LengthMismatchThrows) {
  EXPECT_THROW(SuccessorValues({1.0f, 2.0f}, {1}), std::invalid_argument);
  EXPECT_THROW(SuccessorValues({1.0f}, {0, 1}), std::invalid_argument);
}

TEST(SuccessorValuesTest, LastRowNotDoneThrows) {
  // A buffer cut off mid-episode: its last row's successor was never stored.
  EXPECT_THROW(SuccessorValues({1.0f, 2.0f, 3.0f}, {1, 0, 0}),
               std::invalid_argument);
  EXPECT_EQ(SuccessorValues({1.0f, 2.0f, 3.0f}, {1, 0, 1}),
            (std::vector<float>{0.0f, 3.0f, 0.0f}));
  EXPECT_TRUE(SuccessorValues({}, {}).empty());
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
  // Agent 1 of 3 under share_params: each row is followed by its one-hot id.
  const nn::Tensor with_id = PackBatch(rows, {2, 0}, 1, 3);
  ASSERT_EQ(with_id.rows(), 2);
  ASSERT_EQ(with_id.cols(), 5);
  for (int r = 0; r < 2; ++r) {
    const float first = r == 0 ? 5.0f : 1.0f;
    const std::vector<float> want = {first, first + 1, 0.0f, 1.0f, 0.0f};
    for (int c = 0; c < 5; ++c) {
      EXPECT_EQ(with_id(r, c), want[c]) << "row " << r << " col " << c;
    }
  }
  // A row of another width does not fit the batch.
  rows.push_back({7});
  EXPECT_THROW(PackBatch(rows, {0, 3}), std::invalid_argument);
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
  const nn::Tensor s = buffer.StateBatch({1});
  EXPECT_EQ(s(0, 0), 3.0f);
  buffer.Clear();
  EXPECT_EQ(buffer.size(), 0u);
}

}  // namespace
}  // namespace agsc::core
