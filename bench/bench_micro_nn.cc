// Microbenchmarks of the neural substrate: matmul throughput across the
// kernel configurations, tanh against libm at each ISA tier, MLP
// forward/backward, Adam steps, GRU steps, the i-EOI classifier update, and
// an end-to-end PPO optimize phase; plus the CRC-32 that checks every
// worker frame and checkpoint, at each of its tiers. These bound the
// wall-clock cost of one training iteration and back the numbers checked
// into BENCH_nn.json.
//
// GEMM benchmarks take a second argument selecting the kernel mode:
//   0 = naive reference, 1 = blocked.
// Both modes produce bit-identical outputs (asserted per run below and by
// nn_kernel_test); only throughput differs. BM_PpoUpdate runs the trainer's
// optimize phase as agsc_train does, its agent tasks on up to as many cores
// as the process may use.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>

#include "core/eoi.h"
#include "core/hi_madrl.h"
#include "env/sc_env.h"
#include "map/campus.h"
#include "nn/gru.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "util/build_info.h"
#include "util/ipc.h"

namespace {

using namespace agsc;

/// Installs the kernel mode for one benchmark run and restores the default
/// configuration when the run ends.
class KernelModeGuard {
 public:
  explicit KernelModeGuard(int mode) : saved_(nn::GetKernelConfig()) {
    nn::KernelConfig config;
    config.gemm =
        mode == 0 ? nn::GemmKernel::kNaive : nn::GemmKernel::kBlocked;
    nn::SetKernelConfig(config);
  }
  ~KernelModeGuard() { nn::SetKernelConfig(saved_); }

 private:
  nn::KernelConfig saved_;
};

const char* KernelModeName(int mode) {
  return mode == 0 ? "naive" : "blocked";
}

/// Cross-checks one blocked product against the naive reference; bails the
/// benchmark loudly if the determinism contract is ever violated.
bool SelfCheck(benchmark::State& state, const nn::Tensor& got,
               const nn::Tensor& want) {
  if (!got.SameAs(want)) {
    state.SkipWithError("blocked kernel diverged from naive reference");
    return false;
  }
  return true;
}

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int mode = static_cast<int>(state.range(1));
  KernelModeGuard guard(mode);
  state.SetLabel(KernelModeName(mode));
  util::Rng rng(1);
  nn::Tensor a = nn::Tensor::Randn(n, n, rng);
  nn::Tensor b = nn::Tensor::Randn(n, n, rng);
  if (!SelfCheck(state, nn::MatMul(a, b), nn::internal::NaiveMatMul(a, b))) {
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatMul)
    ->ArgsProduct({{64, 128, 256}, {0, 1}});

void BM_MatMulTransposedB(benchmark::State& state) {
  // m x k times (n x k)^T. Besides the square cases: the input gradients
  // PPO backward passes run on a 256-row minibatch, of a hidden layer
  // (256x64x128), the actor head (256x2x64) and a critic head (256x1x64);
  // and products that keep the row-at-a-time tile, of fewer than 8 rows
  // (1x64x128, 4x64x128) or one column (256x64x1).
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int n = static_cast<int>(state.range(2));
  const int mode = static_cast<int>(state.range(3));
  KernelModeGuard guard(mode);
  state.SetLabel(KernelModeName(mode));
  util::Rng rng(2);
  nn::Tensor a = nn::Tensor::Randn(m, k, rng);
  nn::Tensor b = nn::Tensor::Randn(n, k, rng);
  if (!SelfCheck(state, nn::MatMulTransposedB(a, b),
                 nn::internal::NaiveMatMulTransposedB(a, b))) {
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMulTransposedB(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * n);
}
BENCHMARK(BM_MatMulTransposedB)
    ->ArgsProduct({{128}, {128}, {128}, {0, 1}})
    ->ArgsProduct({{256}, {256}, {256}, {0, 1}})
    ->ArgsProduct({{256}, {64}, {128}, {0, 1}})
    ->ArgsProduct({{256}, {2}, {64}, {0, 1}})
    ->ArgsProduct({{256}, {1}, {64}, {0, 1}})
    ->ArgsProduct({{1, 4}, {64}, {128}, {0, 1}})
    ->ArgsProduct({{256}, {64}, {1}, {0, 1}});

void BM_MatMulTransposedA(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int mode = static_cast<int>(state.range(1));
  KernelModeGuard guard(mode);
  state.SetLabel(KernelModeName(mode));
  util::Rng rng(3);
  nn::Tensor a = nn::Tensor::Randn(n, n, rng);
  nn::Tensor b = nn::Tensor::Randn(n, n, rng);
  if (!SelfCheck(state, nn::MatMulTransposedA(a, b),
                 nn::internal::NaiveMatMulTransposedA(a, b))) {
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMulTransposedA(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_MatMulTransposedA)->ArgsProduct({{128, 256}, {0, 1}});

void BM_MatMulTraining(benchmark::State& state) {
  // The dominant training GEMM shape: minibatch x obs -> hidden.
  const int mode = static_cast<int>(state.range(0));
  KernelModeGuard guard(mode);
  state.SetLabel(KernelModeName(mode));
  util::Rng rng(4);
  nn::Tensor a = nn::Tensor::Randn(64, 312, rng);
  nn::Tensor b = nn::Tensor::Randn(312, 128, rng);
  if (!SelfCheck(state, nn::MatMul(a, b), nn::internal::NaiveMatMul(a, b))) {
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 64 * 312 * 128);
}
BENCHMARK(BM_MatMulTraining)->Arg(0)->Arg(1);

void BM_MatMulSmallRows(benchmark::State& state) {
  // Action selection: m observation rows (1 when serving or evaluating one
  // agent, 4 for a 2 UAV + 2 UGV rollout step) through the first actor
  // layer, at 100 (k = 312) and 1000 (k = 3012) PoIs. Fewer rows than one
  // 8-row tile, so this times the remainder-row tiles alone.
  const int m = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int mode = static_cast<int>(state.range(2));
  KernelModeGuard guard(mode);
  state.SetLabel(KernelModeName(mode));
  util::Rng rng(5);
  nn::Tensor a = nn::Tensor::Randn(m, k, rng);
  nn::Tensor b = nn::Tensor::Randn(k, 128, rng);
  if (!SelfCheck(state, nn::MatMul(a, b), nn::internal::NaiveMatMul(a, b))) {
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * k * 128);
}
BENCHMARK(BM_MatMulSmallRows)->ArgsProduct({{1, 4}, {312, 3012}, {0, 1}});

void BM_MlpForward(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  util::Rng rng(2);
  nn::Mlp mlp({312, 128, 64, 2}, rng);
  nn::Tensor x = nn::Tensor::Randn(batch, 312, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.Forward(x).value()(0, 0));
  }
}
BENCHMARK(BM_MlpForward)->Arg(1)->Arg(64)->Arg(256);

void BM_MlpForwardBackward(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  util::Rng rng(3);
  nn::Mlp mlp({312, 128, 64, 2}, rng);
  nn::Tensor x = nn::Tensor::Randn(batch, 312, rng);
  std::vector<nn::Variable> params = mlp.Parameters();
  for (auto _ : state) {
    for (nn::Variable& p : params) p.ZeroGrad();
    nn::Variable loss = nn::Mean(nn::Square(mlp.Forward(x)));
    loss.Backward();
    benchmark::DoNotOptimize(params[0].grad()[0]);
  }
}
BENCHMARK(BM_MlpForwardBackward)->Arg(64)->Arg(256);

void BM_Tanh(benchmark::State& state) {
  // 256 x 128 hidden-layer activations of one minibatch. Arg 0 runs the
  // std::tanh loop the lane-wise kernel replaced, arg t + 1 the kernel at
  // ISA tier t (both bit-identical; the kernel's time includes copying its
  // input into place).
  const int arg = static_cast<int>(state.range(0));
  const std::vector<nn::internal::GemmIsa> tiers =
      nn::internal::SupportedGemmIsas();
  if (arg > static_cast<int>(tiers.size())) {
    state.SkipWithError("ISA tier not supported by this CPU");
    return;
  }
  state.SetLabel(arg == 0 ? "std::tanh"
                          : nn::internal::GemmIsaName(tiers[arg - 1]));
  util::Rng rng(7);
  const nn::Tensor x = nn::Tensor::Randn(256, 128, rng, 1.5f);
  nn::Tensor y(256, 128);
  for (auto _ : state) {
    if (arg == 0) {
      for (int i = 0; i < x.size(); ++i) y[i] = std::tanh(x[i]);
    } else {
      std::memcpy(y.data(), x.data(), x.size() * sizeof(float));
      nn::internal::TanhInPlaceAtTier(y.data(), y.size(), tiers[arg - 1]);
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_Tanh)->DenseRange(0, 3);

void BM_Crc32(benchmark::State& state) {
  // util::Crc32 at a forced tier (arg 2: 0 = table, 1 = fold) over buffers
  // of arg 1 bytes: a served Act request frame (1,268), a 1000-PoI rollout
  // step-result frame (60,516) and a train_w1 checkpoint (10,459,880).
  // Crc32 itself runs the highest tier the CPU has.
  const size_t bytes = static_cast<size_t>(state.range(0));
  const size_t arg = static_cast<size_t>(state.range(1));
  const std::vector<util::internal::CrcTier> tiers =
      util::internal::SupportedCrcTiers();
  if (arg >= tiers.size()) {
    state.SkipWithError("CRC-32 tier not supported by this CPU");
    return;
  }
  state.SetLabel(util::internal::CrcTierName(tiers[arg]));
  util::Rng rng(8);
  std::vector<unsigned char> data(bytes);
  for (unsigned char& byte : data) {
    byte = static_cast<unsigned char>(rng.UniformInt(uint64_t{256}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        util::internal::Crc32AtTier(data.data(), bytes, 0, tiers[arg]));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_Crc32)->ArgsProduct({{1268, 60516, 10459880}, {0, 1}});

void BM_AdamStep(benchmark::State& state) {
  util::Rng rng(4);
  nn::Mlp mlp({312, 128, 64, 2}, rng);
  nn::Adam adam(mlp.Parameters(), 3e-4f);
  nn::Tensor x = nn::Tensor::Randn(64, 312, rng);
  nn::Mean(nn::Square(mlp.Forward(x))).Backward();
  for (auto _ : state) {
    adam.Step();
  }
}
BENCHMARK(BM_AdamStep);

void BM_GruStep(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  util::Rng rng(5);
  nn::GruCell gru(128, 64, rng);
  nn::Tensor x = nn::Tensor::Randn(batch, 128, rng);
  nn::Tensor h = gru.InitialState(batch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gru.Step(nn::Variable::Constant(x), nn::Variable::Constant(h))
            .value()(0, 0));
  }
}
BENCHMARK(BM_GruStep)->Arg(1)->Arg(64);

void BM_EoiClassifierUpdate(benchmark::State& state) {
  util::Rng rng(6);
  core::EoiConfig config;
  config.hidden = {128, 64};
  config.epochs = 1;
  core::EoiClassifier eoi(312, 4, config, rng);
  std::vector<std::vector<std::vector<float>>> per_agent(4);
  for (auto& rows : per_agent) {
    for (int i = 0; i < 100; ++i) {
      std::vector<float> row(312);
      for (float& v : row) v = static_cast<float>(rng.Uniform());
      rows.push_back(std::move(row));
    }
  }
  std::vector<const std::vector<std::vector<float>>*> ptrs;
  for (const auto& rows : per_agent) ptrs.push_back(&rows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eoi.Update(ptrs, rng));
  }
}
BENCHMARK(BM_EoiClassifierUpdate)->Unit(benchmark::kMillisecond);

void BM_PpoUpdate(benchmark::State& state) {
  // End-to-end optimize phase (i-EOI update + M1 policy epochs + M2 LCF
  // meta-updates) on a fixed pre-collected rollout buffer. This is the NN
  // hot path the blocked kernels and the buffer pool exist for.
  const int mode = static_cast<int>(state.range(0));
  static const map::Dataset* dataset =
      new map::Dataset(map::BuildDataset(map::CampusId::kPurdue, 10));
  env::EnvConfig env_config;
  env_config.num_timeslots = 30;
  env_config.num_pois = 10;
  env_config.num_uavs = 1;
  env_config.num_ugvs = 1;
  env::ScEnv env(env_config, *dataset, 11);
  core::TrainConfig train;
  train.iterations = 1;
  train.episodes_per_iteration = 4;
  train.policy_epochs = 2;
  train.lcf_epochs = 1;
  train.minibatch = 64;
  train.net.hidden = {64, 64};
  train.eoi.hidden = {32};
  train.seed = 11;
  train.verbose = false;
  train.nn_naive_kernels = (mode == 0);
  // Guard first (captures the default config to restore afterwards); the
  // trainer ctor then installs the config implied by `train`.
  KernelModeGuard guard(mode);
  core::HiMadrlTrainer trainer(env, train);
  state.SetLabel(KernelModeName(mode));
  trainer.CollectRollouts();
  for (auto _ : state) {
    trainer.OptimizeOnCurrentBuffer();
  }
}
BENCHMARK(BM_PpoUpdate)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()  // The agent tasks run on several threads.
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Provenance for BENCH_nn.json, printed in the context header.
  benchmark::AddCustomContext(
      "build", util::BuildInfoString(std::string("gemm-isa=") +
                                     nn::ActiveGemmIsaName()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
