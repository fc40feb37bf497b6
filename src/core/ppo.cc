#include "core/ppo.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace agsc::core {

AdvantageResult OneStepAdvantages(const std::vector<float>& rewards,
                                  const std::vector<float>& values,
                                  const std::vector<float>& next_values,
                                  const std::vector<uint8_t>& dones,
                                  float gamma) {
  const size_t n = rewards.size();
  if (values.size() != n || next_values.size() != n || dones.size() != n) {
    throw std::invalid_argument("OneStepAdvantages: length mismatch");
  }
  AdvantageResult out;
  out.advantages.resize(n);
  out.returns.resize(n);
  for (size_t t = 0; t < n; ++t) {
    const float bootstrap = dones[t] ? 0.0f : gamma * next_values[t];
    out.returns[t] = rewards[t] + bootstrap;
    out.advantages[t] = out.returns[t] - values[t];
  }
  return out;
}

AdvantageResult GaeAdvantages(const std::vector<float>& rewards,
                              const std::vector<float>& values,
                              const std::vector<float>& next_values,
                              const std::vector<uint8_t>& dones, float gamma,
                              float lambda) {
  const size_t n = rewards.size();
  if (values.size() != n || next_values.size() != n || dones.size() != n) {
    throw std::invalid_argument("GaeAdvantages: length mismatch");
  }
  AdvantageResult out;
  out.advantages.resize(n);
  out.returns.resize(n);
  float gae = 0.0f;
  for (size_t i = n; i-- > 0;) {
    const float bootstrap = dones[i] ? 0.0f : gamma * next_values[i];
    const float delta = rewards[i] + bootstrap - values[i];
    gae = delta + (dones[i] ? 0.0f : gamma * lambda * gae);
    out.advantages[i] = gae;
    out.returns[i] = gae + values[i];
  }
  return out;
}

std::vector<int> SuccessorFallbackRows(
    const std::vector<std::vector<float>>& rows,
    const std::vector<std::vector<float>>& next_rows,
    const std::vector<uint8_t>& dones) {
  const size_t n = rows.size();
  if (next_rows.size() != n || dones.size() != n) {
    throw std::invalid_argument("SuccessorFallbackRows: length mismatch");
  }
  std::vector<int> fallback;
  for (size_t t = 0; t < n; ++t) {
    if (dones[t]) continue;
    const bool successor =
        t + 1 < n && next_rows[t].size() == rows[t + 1].size() &&
        (rows[t + 1].empty() ||
         std::memcmp(next_rows[t].data(), rows[t + 1].data(),
                     rows[t + 1].size() * sizeof(float)) == 0);
    if (!successor) fallback.push_back(static_cast<int>(t));
  }
  return fallback;
}

std::vector<float> SuccessorValues(const std::vector<float>& values,
                                   const std::vector<uint8_t>& dones,
                                   const std::vector<int>& fallback,
                                   const std::vector<float>& fallback_values) {
  const size_t n = values.size();
  if (dones.size() != n || fallback_values.size() != fallback.size()) {
    throw std::invalid_argument("SuccessorValues: length mismatch");
  }
  std::vector<float> next_values(n, 0.0f);
  for (size_t t = 0; t + 1 < n; ++t) {
    if (!dones[t]) next_values[t] = values[t + 1];
  }
  for (size_t i = 0; i < fallback.size(); ++i) {
    next_values.at(static_cast<size_t>(fallback[i])) = fallback_values[i];
  }
  return next_values;
}

void NormalizeInPlace(std::vector<float>& xs) {
  if (xs.size() < 2) return;
  double mean = 0.0;
  for (float x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (float x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size());
  const double std = std::sqrt(var);
  if (std < 1e-8) return;
  for (float& x : xs) {
    x = static_cast<float>((x - mean) / std);
  }
}

nn::Variable PpoSurrogate(const nn::Variable& logp_new,
                          const std::vector<float>& logp_old,
                          const std::vector<float>& advantages,
                          float clip_eps) {
  const int n = logp_new.rows();
  if (logp_new.cols() != 1 || static_cast<int>(logp_old.size()) != n ||
      static_cast<int>(advantages.size()) != n) {
    throw std::invalid_argument("PpoSurrogate: shape mismatch");
  }
  nn::Tensor old_t(n, 1), adv_t(n, 1);
  for (int i = 0; i < n; ++i) {
    old_t(i, 0) = logp_old[i];
    adv_t(i, 0) = advantages[i];
  }
  nn::Variable ratio =
      nn::Exp(nn::Sub(logp_new, nn::Variable::Constant(old_t)));
  nn::Variable adv = nn::Variable::Constant(adv_t);
  nn::Variable unclipped = nn::Mul(ratio, adv);
  nn::Variable clipped =
      nn::Mul(nn::Clamp(ratio, 1.0f - clip_eps, 1.0f + clip_eps), adv);
  return nn::Mean(nn::Minimum(unclipped, clipped));
}

}  // namespace agsc::core
