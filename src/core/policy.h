#ifndef AGSC_CORE_POLICY_H_
#define AGSC_CORE_POLICY_H_

#include <vector>

#include "nn/distributions.h"
#include "nn/layers.h"

namespace agsc::core {

/// Network sizes shared by all actors/critics (paper: fully-connected
/// layers only, Section VI-F).
struct NetConfig {
  std::vector<int> hidden = {128, 64};
  float log_std_init = -0.5f;
};

/// Gaussian policy head over the 2-D continuous UV action (direction,
/// speed): an MLP with tanh-bounded mean plus a state-independent
/// learnable log-std vector.
class GaussianActor : public nn::Module {
 public:
  GaussianActor(int obs_dim, int action_dim, const NetConfig& config,
                util::Rng& rng);

  /// Builds the policy distribution for a batch of observations
  /// (differentiable through mean and log_std).
  nn::DiagGaussian Dist(const nn::Tensor& obs_batch) const;
  /// Dist on an existing graph input, e.g. a constant minibatch node that
  /// the critics read too, so the batch is not copied once per network.
  nn::DiagGaussian Dist(const nn::Variable& obs_batch) const;

  /// Samples one action for a single observation; outputs the log-prob of
  /// the sample. `deterministic` returns the mode.
  std::vector<float> Act(const std::vector<float>& obs, util::Rng& rng,
                         bool deterministic, float* logp) const;

  std::vector<nn::Variable> Parameters() const override;

  int obs_dim() const { return mean_net_.in_features(); }
  int action_dim() const { return mean_net_.out_features(); }
  const nn::Variable& log_std() const { return log_std_; }
  /// The mean MLP, exposed for values-only batched inference (serving):
  /// mean_net().Infer(batch) is bit-identical to the per-row deterministic
  /// Act path, which returns the distribution mode = the tanh-bounded mean.
  const nn::Mlp& mean_net() const { return mean_net_; }

 private:
  nn::Mlp mean_net_;
  nn::Variable log_std_;
};

/// Scalar value network V(input) -> 1 (used for V^k, V_HE, V_HO, V_all).
class ValueNet : public nn::Module {
 public:
  ValueNet(int input_dim, const NetConfig& config, util::Rng& rng);

  /// Differentiable forward pass -> Nx1.
  nn::Variable Forward(const nn::Variable& batch) const;

  /// Values only (no graph, through Mlp::Infer) for a list of feature rows;
  /// bit-identical to Forward on the same rows.
  std::vector<float> Values(const std::vector<std::vector<float>>& rows) const;

  std::vector<nn::Variable> Parameters() const override;

  int input_dim() const { return net_.in_features(); }

 private:
  nn::Mlp net_;
};

}  // namespace agsc::core

#endif  // AGSC_CORE_POLICY_H_
