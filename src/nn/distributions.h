#ifndef AGSC_NN_DISTRIBUTIONS_H_
#define AGSC_NN_DISTRIBUTIONS_H_

#include <vector>

#include "nn/ops.h"
#include "util/rng.h"

namespace agsc::nn {

/// Batched diagonal Gaussian policy head N(mean, diag(exp(log_std))^2).
///
/// `mean` is an NxD graph variable (actor output); `log_std` is a 1xD
/// trainable parameter broadcast over the batch. Sampling happens outside
/// the graph (values only); log-probabilities and entropy are differentiable
/// graph expressions, which is exactly what PPO needs.
class DiagGaussian {
 public:
  DiagGaussian(Variable mean, Variable log_std);

  /// Draws one action per row; returns an NxD tensor (no graph).
  Tensor Sample(util::Rng& rng) const;

  /// Draws one action per row, row r using `rngs[r]` (no graph). Rows are
  /// sampled in index order, so each row's draw sequence depends only on
  /// its own generator — this is what lets the vectorized sampler batch
  /// actor forwards across rollout workers while every worker keeps a
  /// private, scheduling-independent RNG stream. `rngs.size()` must equal
  /// the batch row count.
  Tensor SamplePerRow(const std::vector<util::Rng*>& rngs) const;

  /// Returns the deterministic mode (= mean values, no graph).
  Tensor Mode() const;

  /// Differentiable log p(actions) -> Nx1 column.
  Variable LogProb(const Tensor& actions) const;

  /// Differentiable mean entropy per sample -> 1x1 scalar
  /// (H = sum_d log_std_d + D/2 (1 + log 2 pi)).
  Variable Entropy() const;

  const Variable& mean() const { return mean_; }
  const Variable& log_std() const { return log_std_; }
  int dims() const { return mean_.cols(); }

 private:
  Variable mean_;     // N x D.
  Variable log_std_;  // 1 x D parameter.
};

/// Graph-free counterparts of DiagGaussian::SamplePerRow and LogProb for
/// one row of `dims` columns, for callers that only need values (rollout
/// action selection). They run the same float operations in the same
/// order, so their results are bit-identical to the graph path's.

/// Draws action[c] = mean[c] + exp(log_std[c]) * rng.Gaussian() for c =
/// 0..dims-1, in column order: row r of SamplePerRow with rngs[r] = &rng,
/// and the same draws from `rng`.
void SampleDiagGaussianRow(const float* mean, const float* log_std, int dims,
                           util::Rng& rng, float* action);

/// log p(action) of one row: LogProb(actions).value()(r, 0) for that row.
float DiagGaussianRowLogProb(const float* mean, const float* log_std,
                             const float* action, int dims);

/// Batched categorical distribution over logits (row-wise).
class CategoricalDist {
 public:
  explicit CategoricalDist(Variable logits);

  /// Draws one class index per row.
  std::vector<int> Sample(util::Rng& rng) const;

  /// Argmax class per row.
  std::vector<int> Mode() const;

  /// Differentiable log p(labels) -> Nx1 column.
  Variable LogProb(const std::vector<int>& labels) const;

  /// Differentiable mean entropy -> 1x1 scalar.
  Variable Entropy() const;

  /// Softmax probabilities (values only, no graph).
  Tensor Probabilities() const;

  const Variable& logits() const { return logits_; }

 private:
  Variable logits_;
};

}  // namespace agsc::nn

#endif  // AGSC_NN_DISTRIBUTIONS_H_
