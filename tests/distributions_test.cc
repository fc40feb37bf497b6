#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "nn/distributions.h"
#include "tests/test_util.h"
#include "util/stats.h"

namespace agsc::nn {
namespace {

constexpr float kLogTwoPi = 1.8378770664093453f;

TEST(DiagGaussianTest, LogProbMatchesClosedForm) {
  Tensor mean = Tensor::FromRowMajor(2, 2, {0.0f, 1.0f, -1.0f, 2.0f});
  Tensor log_std = Tensor::FromRowMajor(1, 2, {0.0f, std::log(2.0f)});
  DiagGaussian dist(Variable::Constant(mean), Variable::Constant(log_std));
  Tensor actions = Tensor::FromRowMajor(2, 2, {0.5f, 1.0f, -1.0f, 4.0f});
  const Tensor logp = dist.LogProb(actions).value();
  auto expect_logp = [&](int r) {
    float total = 0.0f;
    for (int c = 0; c < 2; ++c) {
      const float sigma = std::exp(log_std(0, c));
      const float z = (actions(r, c) - mean(r, c)) / sigma;
      total += -0.5f * z * z - log_std(0, c) - 0.5f * kLogTwoPi;
    }
    return total;
  };
  EXPECT_NEAR(logp(0, 0), expect_logp(0), 1e-5);
  EXPECT_NEAR(logp(1, 0), expect_logp(1), 1e-5);
}

TEST(DiagGaussianTest, EntropyClosedForm) {
  Tensor log_std = Tensor::FromRowMajor(1, 3, {0.1f, -0.2f, 0.3f});
  DiagGaussian dist(Variable::Constant(Tensor(1, 3)),
                    Variable::Constant(log_std));
  const float expect =
      (0.1f - 0.2f + 0.3f) + 0.5f * 3.0f * (1.0f + kLogTwoPi);
  EXPECT_NEAR(dist.Entropy().value()[0], expect, 1e-5);
}

TEST(DiagGaussianTest, SampleStatistics) {
  Tensor mean(1, 2);
  mean(0, 0) = 2.0f;
  mean(0, 1) = -1.0f;
  Tensor log_std = Tensor::FromRowMajor(1, 2, {std::log(0.5f),
                                               std::log(1.5f)});
  DiagGaussian dist(Variable::Constant(mean), Variable::Constant(log_std));
  util::Rng rng(77);
  util::RunningStats s0, s1;
  for (int i = 0; i < 20000; ++i) {
    const Tensor a = dist.Sample(rng);
    s0.Add(a(0, 0));
    s1.Add(a(0, 1));
  }
  EXPECT_NEAR(s0.Mean(), 2.0, 0.02);
  EXPECT_NEAR(s0.StdDev(), 0.5, 0.02);
  EXPECT_NEAR(s1.Mean(), -1.0, 0.05);
  EXPECT_NEAR(s1.StdDev(), 1.5, 0.05);
}

TEST(DiagGaussianTest, ModeIsMean) {
  Tensor mean = Tensor::FromRowMajor(1, 2, {0.3f, -0.7f});
  DiagGaussian dist(Variable::Constant(mean),
                    Variable::Constant(Tensor(1, 2)));
  EXPECT_TRUE(dist.Mode().SameAs(mean));
}

TEST(DiagGaussianTest, LogProbGradientWrtMean) {
  Tensor actions = Tensor::FromRowMajor(2, 2, {0.5f, -0.5f, 1.0f, 0.0f});
  Tensor log_std = Tensor::FromRowMajor(1, 2, {-0.3f, 0.2f});
  agsc::testing::CheckGradient(
      [&](const Variable& mean) {
        DiagGaussian dist(mean, Variable::Constant(log_std));
        return Sum(dist.LogProb(actions));
      },
      Tensor::FromRowMajor(2, 2, {0.1f, 0.2f, -0.2f, 0.4f}));
}

TEST(DiagGaussianTest, LogProbGradientWrtLogStd) {
  Tensor actions = Tensor::FromRowMajor(2, 2, {0.5f, -0.5f, 1.0f, 0.0f});
  Tensor mean = Tensor::FromRowMajor(2, 2, {0.1f, 0.2f, -0.2f, 0.4f});
  agsc::testing::CheckGradient(
      [&](const Variable& log_std) {
        DiagGaussian dist(Variable::Constant(mean), log_std);
        return Sum(dist.LogProb(actions));
      },
      Tensor::FromRowMajor(1, 2, {-0.3f, 0.2f}));
}

TEST(DiagGaussianTest, HigherDensityNearMean) {
  Tensor mean(1, 2);
  DiagGaussian dist(Variable::Constant(mean),
                    Variable::Constant(Tensor(1, 2)));
  Tensor at_mean(1, 2);
  Tensor far = Tensor::FromRowMajor(1, 2, {3.0f, 3.0f});
  EXPECT_GT(dist.LogProb(at_mean).value()[0],
            dist.LogProb(far).value()[0]);
}

TEST(DiagGaussianTest, RejectsBadLogStdShape) {
  EXPECT_THROW(DiagGaussian(Variable::Constant(Tensor(2, 3)),
                            Variable::Constant(Tensor(1, 2))),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Graph-free row sampler and log-prob against the graph path, bit for bit.
// ---------------------------------------------------------------------------

float UniformFloat(util::Rng& rng, double lo, double hi) {
  return static_cast<float>(rng.Uniform(lo, hi));
}

/// Compares bit patterns, so -0 against +0 and differing NaN payloads fail.
bool SameBits(const float* a, const float* b, int n) {
  return std::memcmp(a, b, sizeof(float) * static_cast<size_t>(n)) == 0;
}

TEST(DiagGaussianRowTest, SampleAndLogProbMatchGraphPathBitExactly) {
  util::Rng gen(2024);
  int mismatches = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const int rows = trial % 2 == 0 ? 1 : 4;
    const int dims = 1 + trial % 3;
    Tensor mean(rows, dims);
    for (int i = 0; i < mean.size(); ++i) mean[i] = UniformFloat(gen, -3, 3);
    Tensor log_std(1, dims);
    for (int c = 0; c < dims; ++c) log_std(0, c) = UniformFloat(gen, -5, 2);
    // One stream per row, seeded from the trial; the graph path and the row
    // functions each get their own copies.
    std::vector<util::Rng> graph_rngs, row_rngs;
    for (int r = 0; r < rows; ++r) {
      graph_rngs.emplace_back(gen.NextU64());
      row_rngs.push_back(graph_rngs.back());
    }
    std::vector<util::Rng*> graph_ptrs;
    for (util::Rng& rng : graph_rngs) graph_ptrs.push_back(&rng);

    const DiagGaussian dist(Variable::Constant(mean),
                            Variable::Constant(log_std));
    const Tensor sampled = dist.SamplePerRow(graph_ptrs);
    const Tensor logp = dist.LogProb(sampled).value();
    for (int r = 0; r < rows; ++r) {
      std::vector<float> action(static_cast<size_t>(dims));
      SampleDiagGaussianRow(mean.data() + r * dims, log_std.data(), dims,
                            row_rngs[r], action.data());
      const float row_logp = DiagGaussianRowLogProb(
          mean.data() + r * dims, log_std.data(), action.data(), dims);
      const float graph_logp = logp(r, 0);
      if (!SameBits(action.data(), sampled.data() + r * dims, dims) ||
          !SameBits(&row_logp, &graph_logp, 1)) {
        ++mismatches;
      }
      // Both paths drew the same values from the row's stream, Box-Muller
      // cache included.
      EXPECT_EQ(row_rngs[r].SaveState(), graph_rngs[r].SaveState())
          << "trial " << trial << " row " << r;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(DiagGaussianRowTest, LogProbMatchesGraphPathUpToEightSigmas) {
  // Actions placed |z| <= 8 standard deviations from the mean over
  // log_std in [-5, 2], so every term of the log-prob's sum varies widely
  // and a reordered sum or a changed operation rounds differently.
  util::Rng gen(77);
  int mismatches = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const int rows = trial % 2 == 0 ? 1 : 4;
    const int dims = 1 + trial % 3;
    Tensor log_std(1, dims);
    for (int c = 0; c < dims; ++c) log_std(0, c) = UniformFloat(gen, -5, 2);
    Tensor mean(rows, dims);
    Tensor actions(rows, dims);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < dims; ++c) {
        const float z = UniformFloat(gen, -8, 8);
        mean(r, c) = UniformFloat(gen, -2, 2);
        actions(r, c) = mean(r, c) + z * std::exp(log_std(0, c));
      }
    }
    const DiagGaussian dist(Variable::Constant(mean),
                            Variable::Constant(log_std));
    const Tensor logp = dist.LogProb(actions).value();
    for (int r = 0; r < rows; ++r) {
      const float row_logp =
          DiagGaussianRowLogProb(mean.data() + r * dims, log_std.data(),
                                 actions.data() + r * dims, dims);
      const float graph_logp = logp(r, 0);
      if (!SameBits(&row_logp, &graph_logp, 1)) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(CategoricalTest, ProbabilitiesSumToOne) {
  util::Rng rng(5);
  CategoricalDist dist(
      Variable::Constant(Tensor::Uniform(4, 5, rng, -2.0f, 2.0f)));
  const Tensor p = dist.Probabilities();
  for (int r = 0; r < 4; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 5; ++c) sum += p(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(CategoricalTest, SampleFrequencyMatchesProbabilities) {
  Tensor logits = Tensor::FromRowMajor(1, 3, {0.0f, 1.0f, 2.0f});
  CategoricalDist dist(Variable::Constant(logits));
  const Tensor p = dist.Probabilities();
  util::Rng rng(6);
  std::vector<int> counts(3, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[dist.Sample(rng)[0]];
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(counts[c] / static_cast<double>(n), p(0, c), 0.01);
  }
}

TEST(CategoricalTest, ModePicksArgmax) {
  Tensor logits = Tensor::FromRowMajor(2, 3, {0.0f, 5.0f, 1.0f,
                                              2.0f, -1.0f, 0.0f});
  CategoricalDist dist(Variable::Constant(logits));
  const std::vector<int> mode = dist.Mode();
  EXPECT_EQ(mode[0], 1);
  EXPECT_EQ(mode[1], 0);
}

TEST(CategoricalTest, UniformLogitsHaveMaxEntropy) {
  CategoricalDist uniform(Variable::Constant(Tensor(1, 4)));
  Tensor peaked_logits(1, 4);
  peaked_logits(0, 0) = 10.0f;
  CategoricalDist peaked(Variable::Constant(peaked_logits));
  EXPECT_NEAR(uniform.Entropy().value()[0], std::log(4.0f), 1e-4);
  EXPECT_LT(peaked.Entropy().value()[0], 0.1f);
}

TEST(CategoricalTest, LogProbMatchesProbabilities) {
  util::Rng rng(7);
  Tensor logits = Tensor::Uniform(3, 4, rng, -1.0f, 1.0f);
  CategoricalDist dist(Variable::Constant(logits));
  const Tensor p = dist.Probabilities();
  const Tensor logp = dist.LogProb({1, 3, 0}).value();
  EXPECT_NEAR(logp(0, 0), std::log(p(0, 1)), 1e-5);
  EXPECT_NEAR(logp(1, 0), std::log(p(1, 3)), 1e-5);
  EXPECT_NEAR(logp(2, 0), std::log(p(2, 0)), 1e-5);
}

}  // namespace
}  // namespace agsc::nn
