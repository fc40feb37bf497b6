#include "core/policy.h"

#include <stdexcept>

namespace agsc::core {

namespace {

std::vector<int> LayerSizes(int in, const std::vector<int>& hidden, int out) {
  std::vector<int> sizes;
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

}  // namespace

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

std::vector<float> GaussianActor::Act(const std::vector<float>& obs,
                                      util::Rng& rng, bool deterministic,
                                      float* logp) const {
  nn::Tensor row(1, static_cast<int>(obs.size()));
  for (size_t i = 0; i < obs.size(); ++i) row[static_cast<int>(i)] = obs[i];
  nn::DiagGaussian dist = Dist(row);
  nn::Tensor action = deterministic ? dist.Mode() : dist.Sample(rng);
  if (logp != nullptr) {
    *logp = dist.LogProb(action).value()(0, 0);
  }
  std::vector<float> out(action.cols());
  for (int c = 0; c < action.cols(); ++c) out[c] = action(0, c);
  return out;
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

std::vector<float> ValueNet::Values(
    const std::vector<std::vector<float>>& rows) const {
  if (rows.empty()) return {};
  nn::Tensor batch(static_cast<int>(rows.size()),
                   static_cast<int>(rows[0].size()));
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      batch(static_cast<int>(r), static_cast<int>(c)) = rows[r][c];
    }
  }
  const nn::Tensor values = net_.Infer(batch);
  std::vector<float> out(values.rows());
  for (int r = 0; r < values.rows(); ++r) out[r] = values(r, 0);
  return out;
}

std::vector<nn::Variable> ValueNet::Parameters() const {
  return net_.Parameters();
}

}  // namespace agsc::core
