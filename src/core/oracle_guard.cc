#include "core/oracle_guard.h"

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "nn/tensor.h"
#include "util/rng.h"

namespace agsc::core {

namespace {
// Timeslots stepped by each env self-check of the trainer.
constexpr int kOracleCheckSteps = 16;
}  // namespace

OracleCheckResult NnKernelSelfCheck() {
  if (nn::GetKernelConfig().gemm == nn::GemmKernel::kNaive) return {};
  // Fixed shapes spanning the interesting kernel regimes: tiny (below any
  // blocking threshold), tall-skinny, and a block-sized square.
  struct Shape {
    int m, k, n;
  };
  constexpr std::array<Shape, 3> kShapes = {{{7, 13, 5}, {1, 96, 33}, {64, 64, 64}}};
  util::Rng rng(0x0AC1E5EEDULL);
  for (const Shape& s : kShapes) {
    const nn::Tensor a = nn::Tensor::Randn(s.m, s.k, rng);
    const nn::Tensor b = nn::Tensor::Randn(s.k, s.n, rng);
    const nn::Tensor bt = nn::Tensor::Randn(s.n, s.k, rng);
    const nn::Tensor at = nn::Tensor::Randn(s.k, s.m, rng);
    const char* op = nullptr;
    if (!nn::MatMul(a, b).SameAs(nn::internal::NaiveMatMul(a, b))) {
      op = "MatMul";
    } else if (!nn::MatMulTransposedB(a, bt).SameAs(
                   nn::internal::NaiveMatMulTransposedB(a, bt))) {
      op = "MatMulTransposedB";
    } else if (!nn::MatMulTransposedA(at, b).SameAs(
                   nn::internal::NaiveMatMulTransposedA(at, b))) {
      op = "MatMulTransposedA";
    }
    if (op) {
      std::ostringstream detail;
      detail << op << " (" << s.m << "x" << s.k << " * " << s.k << "x" << s.n
             << ") differs from the naive reference kernel";
      return {false, detail.str()};
    }
  }
  return {};
}

OracleCheckResult LockStepEnvCheck(const env::ScEnv& env, Fallbacks downgrade,
                                   int steps) {
  env::ScEnv fast(env);
  env::ScEnv oracle(env);
  ApplyEnvFallbacks(downgrade, oracle);
  const env::EnvConfig& from = env.config();
  const env::EnvConfig& to = oracle.config();
  const bool unchanged = from.use_spatial_index == to.use_spatial_index &&
                         from.use_channel_batch == to.use_channel_batch;
  if (steps <= 0 || unchanged ||
      (from.env_fast_math && (downgrade & kFallbackChannel) != 0)) {
    return {};
  }
  env::StepResult sf, so;
  fast.Reset(sf);
  oracle.Reset(so);
  if (sf != so) return {false, "Reset differs"};
  util::Rng action_rng(0x0AC1E0ACULL);
  std::vector<env::UvAction> actions(static_cast<size_t>(fast.num_agents()));
  for (int t = 0; t < steps && !sf.done; ++t) {
    for (env::UvAction& a : actions) {
      a = {action_rng.Uniform(-1.0, 1.0), action_rng.Uniform(-1.0, 1.0)};
    }
    fast.Step(actions, sf);
    oracle.Step(actions, so);
    if (sf != so) return {false, "Step " + std::to_string(t) + " differs"};
  }
  return {};
}

void ApplyEnvFallbacks(Fallbacks bits, env::ScEnv& env) {
  if ((bits & kFallbackSpatialIndex) != 0) env.DisableSpatialIndex();
  if ((bits & kFallbackChannel) != 0) env.DisableChannelBatch();
}

const std::array<OraclePair, 3> kOraclePairs = {{
    {kFallbackSpatialIndex, "spatial-index env", "the naive linear-scan path",
     "env_oracle_fallback",
     [](const env::ScEnv& env) {
       return LockStepEnvCheck(env, kFallbackSpatialIndex, kOracleCheckSteps);
     }},
    {kFallbackGemm, "blocked GEMM kernels", "the naive kernels",
     "nn_oracle_fallback",
     [](const env::ScEnv&) { return NnKernelSelfCheck(); }},
    {kFallbackChannel, "batched channel kernels", "the scalar per-link path",
     "channel_oracle_fallback",
     [](const env::ScEnv& env) {
       return LockStepEnvCheck(env, kFallbackChannel, kOracleCheckSteps);
     }},
}};

}  // namespace agsc::core
