#include "core/eoi.h"

#include <algorithm>
#include <stdexcept>

#include "core/rollout.h"

namespace agsc::core {

namespace {

/// p_mu(.|o) for every row of `batch`: the classifier's values-only forward
/// (no graph) and a row softmax.
nn::Tensor ClassProbabilities(const nn::Mlp& net, const nn::Tensor& batch) {
  return nn::CategoricalDist(nn::Variable::Constant(net.Infer(batch)))
      .Probabilities();
}

}  // namespace

EoiClassifier::EoiClassifier(int obs_dim, int num_agents,
                             const EoiConfig& config, util::Rng& rng)
    : num_agents_(num_agents),
      config_(config),
      net_(LayerSizes(obs_dim, config.hidden, num_agents), rng,
           nn::Activation::kRelu, nn::Activation::kNone) {
  optimizer_ = std::make_unique<nn::Adam>(net_.Parameters(), config.lr);
}

std::vector<float> EoiClassifier::Probabilities(
    const std::vector<float>& obs) const {
  nn::Tensor row(1, static_cast<int>(obs.size()));
  std::copy(obs.begin(), obs.end(), row.data());
  const nn::Tensor p = ClassProbabilities(net_, row);
  return std::vector<float>(p.data(), p.data() + p.size());
}

float EoiClassifier::IntrinsicReward(int k,
                                     const std::vector<float>& obs) const {
  return Probabilities(obs)[k];
}

std::vector<float> EoiClassifier::IntrinsicRewards(
    int k, const std::vector<std::vector<float>>& obs_rows) const {
  if (obs_rows.empty()) return {};
  const nn::Tensor p = ClassProbabilities(
      net_, PackBatch(obs_rows, AllIndices(obs_rows.size())));
  std::vector<float> out(p.rows());
  for (int r = 0; r < p.rows(); ++r) out[r] = p(r, k);
  return out;
}

float EoiClassifier::Update(
    const std::vector<const std::vector<std::vector<float>>*>& per_agent_obs,
    util::Rng& rng) {
  if (static_cast<int>(per_agent_obs.size()) != num_agents_) {
    throw std::invalid_argument("EoiClassifier::Update: agent count");
  }
  // Equal per-agent sample counts keep H(K) constant (Section V-A).
  size_t per_agent = SIZE_MAX;
  for (const auto* rows : per_agent_obs) {
    per_agent = std::min(per_agent, rows->size());
  }
  if (per_agent == 0) return 0.0f;

  // Assemble the balanced <o, k> dataset.
  std::vector<const std::vector<float>*> xs;
  std::vector<int> ys;
  for (int k = 0; k < num_agents_; ++k) {
    std::vector<int> idx = AllIndices(per_agent_obs[k]->size());
    rng.Shuffle(idx);
    for (size_t i = 0; i < per_agent; ++i) {
      xs.push_back(&(*per_agent_obs[k])[idx[i]]);
      ys.push_back(k);
    }
  }

  float last_loss = 0.0f;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    const std::vector<std::vector<int>> batches =
        MakeMinibatches(xs.size(), config_.minibatch, rng);
    double loss_sum = 0.0;
    for (const std::vector<int>& batch : batches) {
      nn::Tensor x(static_cast<int>(batch.size()),
                   static_cast<int>(xs[0]->size()));
      std::vector<int> labels(batch.size());
      for (size_t r = 0; r < batch.size(); ++r) {
        const std::vector<float>& row = *xs[batch[r]];
        for (size_t c = 0; c < row.size(); ++c) {
          x(static_cast<int>(r), static_cast<int>(c)) = row[c];
        }
        labels[r] = ys[batch[r]];
      }
      nn::Variable logits = net_.Forward(x);
      // L_EOI = CE(p, one_hot(k)) + epsilon * CE(p, p)  (Eqn. 21).
      nn::Variable loss =
          nn::Add(nn::SoftmaxCrossEntropy(logits, labels),
                  nn::ScalarMul(nn::SoftmaxEntropy(logits), config_.epsilon));
      optimizer_->ZeroGrad();
      loss.Backward();
      optimizer_->Step();
      loss_sum += loss.value()(0, 0) * static_cast<double>(batch.size());
    }
    last_loss = static_cast<float>(loss_sum / static_cast<double>(xs.size()));
  }
  return last_loss;
}

}  // namespace agsc::core
