#ifndef AGSC_CORE_POLICY_H_
#define AGSC_CORE_POLICY_H_

#include <span>
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

/// Layer widths of an MLP: `in`, the hidden widths, then `out`.
std::vector<int> LayerSizes(int in, const std::vector<int>& hidden, int out);

/// Writes one network input row into `dst`: `features`, then, when
/// `id_agents` > 0, the one-hot id of agent `k` over `id_agents` columns
/// (under share_params one network serves every UV and tells them apart by
/// it). The only code that knows this layout: the actor, critic and served
/// rows all come through it. Throws std::invalid_argument unless `dst`
/// holds exactly features.size() + id_agents floats.
void WriteInputRow(const std::vector<float>& features, int k, int id_agents,
                   std::span<float> dst);

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

  std::vector<nn::Variable> Parameters() const override;

  int obs_dim() const { return mean_net_.in_features(); }
  int action_dim() const { return mean_net_.out_features(); }
  const nn::Variable& log_std() const { return log_std_; }
  /// The mean MLP, for values-only inference (action selection, the
  /// Evaluator, serving): mean_net().Infer(batch) is bit-identical to
  /// Dist(batch).Mode(), the tanh-bounded mean, without building a graph.
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

  /// Values only (no graph, through Mlp::Infer) for the rows of `batch`;
  /// bit-identical to Forward on the same rows.
  std::vector<float> Values(const nn::Tensor& batch) const;

  std::vector<nn::Variable> Parameters() const override;

  int input_dim() const { return net_.in_features(); }

 private:
  nn::Mlp net_;
};

}  // namespace agsc::core

#endif  // AGSC_CORE_POLICY_H_
