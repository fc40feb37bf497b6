#include "core/policy.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace agsc::core {

std::vector<int> LayerSizes(int in, const std::vector<int>& hidden, int out) {
  std::vector<int> sizes;
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

void WriteInputRow(const std::vector<float>& features, int k, int id_agents,
                   std::span<float> dst) {
  if (dst.size() != features.size() + static_cast<size_t>(id_agents)) {
    throw std::invalid_argument(
        "WriteInputRow: " + std::to_string(features.size()) + " features + " +
        std::to_string(id_agents) + " id columns into a row of " +
        std::to_string(dst.size()));
  }
  const auto id = std::copy(features.begin(), features.end(), dst.begin());
  for (int j = 0; j < id_agents; ++j) id[j] = j == k ? 1.0f : 0.0f;
}

GaussianActor::GaussianActor(int obs_dim, int action_dim,
                             const NetConfig& config, util::Rng& rng)
    : mean_net_(LayerSizes(obs_dim, config.hidden, action_dim), rng,
                nn::Activation::kTanh, nn::Activation::kTanh,
                /*final_gain=*/0.01f),
      log_std_(nn::Variable::Parameter(
          nn::Tensor(1, action_dim, config.log_std_init))) {}

nn::DiagGaussian GaussianActor::Dist(const nn::Tensor& obs_batch) const {
  return nn::DiagGaussian(mean_net_.Forward(obs_batch), log_std_);
}

nn::DiagGaussian GaussianActor::Dist(const nn::Variable& obs_batch) const {
  return nn::DiagGaussian(mean_net_.Forward(obs_batch), log_std_);
}

std::vector<nn::Variable> GaussianActor::Parameters() const {
  std::vector<nn::Variable> params = mean_net_.Parameters();
  params.push_back(log_std_);
  return params;
}

ValueNet::ValueNet(int input_dim, const NetConfig& config, util::Rng& rng)
    : net_(LayerSizes(input_dim, config.hidden, 1), rng,
           nn::Activation::kTanh, nn::Activation::kNone, 1.0f) {}

nn::Variable ValueNet::Forward(const nn::Variable& batch) const {
  return net_.Forward(batch);
}

std::vector<float> ValueNet::Values(const nn::Tensor& batch) const {
  const nn::Tensor values = net_.Infer(batch);
  std::vector<float> out(values.rows());
  for (int r = 0; r < values.rows(); ++r) out[r] = values(r, 0);
  return out;
}

std::vector<nn::Variable> ValueNet::Parameters() const {
  return net_.Parameters();
}

}  // namespace agsc::core
