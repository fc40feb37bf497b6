#ifndef AGSC_CORE_PPO_H_
#define AGSC_CORE_PPO_H_

#include <vector>

#include "nn/ops.h"

namespace agsc::core {

/// Advantage / return estimates for one agent's rollout.
struct AdvantageResult {
  std::vector<float> advantages;  ///< A_t.
  std::vector<float> returns;     ///< Value-regression targets.
};

/// One-step TD advantages per the paper's Eqn. (24):
///   A_t = r_t + gamma * V(o_{t+1}) - V(o_t),
/// with V(o_{t+1}) treated as 0 at episode boundaries (`dones[t]`).
/// Returns targets are r_t + gamma * V(o_{t+1}).
AdvantageResult OneStepAdvantages(const std::vector<float>& rewards,
                                  const std::vector<float>& values,
                                  const std::vector<float>& next_values,
                                  const std::vector<uint8_t>& dones,
                                  float gamma);

/// Generalized advantage estimation (Schulman et al. 2016), an optional
/// lower-variance alternative (lambda = 0 reduces to OneStepAdvantages).
AdvantageResult GaeAdvantages(const std::vector<float>& rewards,
                              const std::vector<float>& values,
                              const std::vector<float>& next_values,
                              const std::vector<uint8_t>& dones, float gamma,
                              float lambda);

/// Successor values without a second critic pass. The sampler appends o_t
/// and then makes o_{t+1} the next step's o_t, so within an episode
/// `next_rows[t]` is byte-for-byte `rows[t + 1]`, and a critic that maps
/// each input row on its own gives V(next_rows[t]) == values[t + 1]. Both
/// estimators above ignore next_values on done rows. This returns the rows
/// that still need the critic on `next_rows[t]`: not done, and either the
/// last row or one whose next row is not byte-equal to row t + 1. Empty for
/// every buffer the samplers collect.
std::vector<int> SuccessorFallbackRows(
    const std::vector<std::vector<float>>& rows,
    const std::vector<std::vector<float>>& next_rows,
    const std::vector<uint8_t>& dones);

/// next_values for the estimators from values = V(rows): values[t + 1] on
/// non-done rows, `fallback_values[i]` (the critic on next_rows[t]) on row
/// t = `fallback[i]`, and 0 on done rows, which no estimator reads.
std::vector<float> SuccessorValues(const std::vector<float>& values,
                                   const std::vector<uint8_t>& dones,
                                   const std::vector<int>& fallback,
                                   const std::vector<float>& fallback_values);

/// In-place standardization to zero mean / unit std (no-op when the std is
/// ~0 or the vector has fewer than 2 entries).
void NormalizeInPlace(std::vector<float>& xs);

/// Builds the clipped PPO surrogate (to be MAXIMIZED; Eqn. 25 / 28):
///   E[min(rho * A, clip(rho, 1-eps, 1+eps) * A)],
/// where rho = exp(logp_new - logp_old). `logp_new` is an Nx1 graph
/// variable; `logp_old` and `advantages` are constants (N entries).
nn::Variable PpoSurrogate(const nn::Variable& logp_new,
                          const std::vector<float>& logp_old,
                          const std::vector<float>& advantages,
                          float clip_eps);

}  // namespace agsc::core

#endif  // AGSC_CORE_PPO_H_
