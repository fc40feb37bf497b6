// Bit-exactness and allocation-behavior tests for the tensor compute
// kernels:
//  - blocked GEMMs are bit-identical to the retained naive references over a
//    shape sweep that straddles every tile boundary (including empty, 1xN,
//    Nx1, and non-square shapes) and covers the workloads' own shapes, at
//    every SIMD tier the CPU supports;
//  - the fused graph ops (LinearActivate / AddScaled / SquareScale) match
//    their unfused op chains bit-for-bit in both values and gradients;
//  - Mlp::Infer, the one values-only forward, matches the graph forward
//    and each of its rows matches Infer on that row alone;
//  - the thread-local buffer pool makes a steady-state train step O(1) heap
//    allocations after warm-up;
//  - the vectorized Adam step matches the scalar loop bit-for-bit;
//  - a fixed-seed training run writes byte-identical checkpoints under
//    naive and blocked kernels.

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hi_madrl.h"
#include "env/config.h"
#include "env/sc_env.h"
#include "map/campus.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace agsc {
namespace {

using nn::Activation;
using nn::GemmKernel;
using nn::internal::GemmIsaName;
using nn::KernelConfig;
using nn::Tensor;
using nn::Variable;

/// Restores the process-wide kernel configuration on scope exit so a failing
/// test cannot leak a nonstandard config into later tests.
struct KernelConfigGuard {
  KernelConfigGuard() : saved(nn::GetKernelConfig()) {}
  ~KernelConfigGuard() { nn::SetKernelConfig(saved); }
  KernelConfig saved;
};

Tensor RandomTensor(int rows, int cols, util::Rng& rng) {
  Tensor t(rows, cols);
  for (int i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Uniform(-2.0, 2.0));
  }
  return t;
}

/// MatMulTransposedB operands whose chains cancel: every product at p = 0
/// is +2^40 and at p = k - 1 it is -2^40, so the terms between are rounded
/// to the 2^-12 grid of a 2^40 partial sum and the float result keeps those
/// roundings. A chain summed in any order but ascending p from 0 then
/// rounds differently; on RandomTensor's narrow range the double chain
/// rounded once to float almost never shows the order.
void MakeChainsCancel(Tensor& a, Tensor& bt) {
  const int k = a.cols();
  if (k < 3) return;
  for (int i = 0; i < a.rows(); ++i) {
    a(i, 0) = std::ldexp(1.0f, 40);
    a(i, k - 1) = -std::ldexp(1.0f, 40);
  }
  for (int j = 0; j < bt.rows(); ++j) {
    bt(j, 0) = 1.0f;
    bt(j, k - 1) = 1.0f;
  }
}

/// Bitwise elementwise equality with shape (fails loudly with indices):
/// -0 differs from +0, and a NaN equals the same NaN.
void ExpectBitEqual(const Tensor& a, const Tensor& b, const std::string& tag) {
  ASSERT_EQ(a.rows(), b.rows()) << tag;
  ASSERT_EQ(a.cols(), b.cols()) << tag;
  for (int i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(a[i]), std::bit_cast<uint32_t>(b[i]))
        << tag << " flat index " << i << ": " << a[i] << " vs " << b[i];
  }
}

// Shape sweep: every (m, k, n) below exercises at least one of — empty
// operands, single row/column, dims below one tile, dims exactly on a tile
// boundary (8 rows / 32 columns / 8 TB-columns), and dims that straddle a
// boundary by one. The second block gives every row count below one 8-row
// tile with full 32-column tiles, then the shapes the workloads run: a
// 4-row rollout step and a 1-row served request through the first actor
// layer at 1000 and 100 PoIs, and minibatch-sized critic (1), actor (2)
// and i-EOI (4) heads. The next two carry remainder columns across more
// than one 256-value panel of k. The third block straddles the packed
// MatMulTransposedB tile by one: 7/8/9 rows around its packing threshold,
// 11/12/13 rows around its 4-row block, and 7/8/9, 15/16/17 and 2 columns
// around the one- and two-vector blocks of 8 double lanes (AVX-512; the
// 2- and 4-lane tiers' boundaries fall among them too); then its workload
// shapes, the hidden-layer input gradients of the full 256-row minibatch
// and the 144-row remainder of 400 rows, and the actor and critic heads'
// input gradients.
struct GemmShape {
  int m, k, n;
};

const std::vector<GemmShape>& SweepShapes() {
  static const std::vector<GemmShape> shapes = {
      {0, 0, 0},  {0, 5, 3},   {4, 0, 3},   {4, 5, 0},   {1, 1, 1},
      {1, 7, 33}, {33, 7, 1},  {7, 9, 31},  {8, 16, 32}, {9, 17, 33},
      {16, 3, 8}, {31, 31, 7}, {32, 8, 64}, {65, 2, 9},  {13, 40, 29},
      {1, 5, 32}, {2, 9, 33},  {3, 17, 64}, {4, 7, 65},  {5, 3, 40},
      {6, 12, 96}, {7, 31, 70}, {4, 3012, 128}, {1, 312, 128},
      {256, 64, 1}, {256, 64, 2}, {256, 64, 4}, {9, 600, 34}, {5, 257, 3},
      {7, 6, 16}, {8, 5, 7},   {9, 4, 9},   {11, 9, 15}, {12, 3, 17},
      {13, 10, 8}, {12, 7, 2}, {8, 0, 9},
      {256, 64, 128}, {144, 64, 128}, {256, 2, 64}, {256, 1, 64},
  };
  return shapes;
}

TEST(GemmKernelTest, BlockedMatchesNaiveAcrossShapeSweep) {
  // Every tier the CPU supports, not just the one MatMul dispatches to, so
  // the generic and AVX2 tiles are checked on an AVX-512 host too.
  const std::vector<nn::internal::GemmIsa> tiers =
      nn::internal::SupportedGemmIsas();
  ASSERT_EQ(tiers.front(), nn::internal::GemmIsa::kGeneric);
  ASSERT_STREQ(GemmIsaName(tiers.back()), nn::ActiveGemmIsaName());
  KernelConfigGuard guard;
  nn::SetKernelConfig(KernelConfig{});  // Blocked, serial.
  util::Rng rng(1234);
  for (const GemmShape& s : SweepShapes()) {
    const Tensor a = RandomTensor(s.m, s.k, rng);
    const Tensor b = RandomTensor(s.k, s.n, rng);
    const Tensor at = RandomTensor(s.k, s.m, rng);  // A^T for TransposedA.
    const Tensor bt = RandomTensor(s.n, s.k, rng);  // B^T for TransposedB.
    Tensor ca = a, cbt = bt;
    MakeChainsCancel(ca, cbt);
    const Tensor mm = nn::internal::NaiveMatMul(a, b);
    const Tensor tb = nn::internal::NaiveMatMulTransposedB(a, bt);
    const Tensor ctb = nn::internal::NaiveMatMulTransposedB(ca, cbt);
    const Tensor ta = nn::internal::NaiveMatMulTransposedA(at, b);

    const std::string tag = "shape " + std::to_string(s.m) + "x" +
                            std::to_string(s.k) + "x" + std::to_string(s.n);
    ExpectBitEqual(nn::MatMul(a, b), mm, "MatMul " + tag);
    ExpectBitEqual(nn::MatMulTransposedB(a, bt), tb,
                   "MatMulTransposedB " + tag);
    ExpectBitEqual(nn::MatMulTransposedA(at, b), ta,
                   "MatMulTransposedA " + tag);
    for (nn::internal::GemmIsa isa : tiers) {
      const std::string tier = tag + " tier " + GemmIsaName(isa);
      ExpectBitEqual(nn::internal::BlockedMatMul(a, b, isa), mm,
                     "MatMul " + tier);
      ExpectBitEqual(nn::internal::BlockedMatMulTransposedB(a, bt, isa), tb,
                     "MatMulTransposedB " + tier);
      ExpectBitEqual(nn::internal::BlockedMatMulTransposedB(ca, cbt, isa), ctb,
                     "MatMulTransposedB cancelling " + tier);
      ExpectBitEqual(nn::internal::BlockedMatMulTransposedA(at, b, isa), ta,
                     "MatMulTransposedA " + tier);
    }
  }
}

TEST(GemmKernelTest, NaNPropagatesThroughZeroActivation) {
  // Regression for the old `if (av == 0.0f) continue;` zero-skip: a NaN
  // weight multiplied by a zero activation must produce NaN output, not be
  // silently skipped — the divergence guard depends on NaN staying visible.
  KernelConfigGuard guard;
  const float kNan = std::numeric_limits<float>::quiet_NaN();
  Tensor act = Tensor::FromRowMajor(1, 2, {0.0f, 0.0f});  // all-zero row.
  Tensor w = Tensor::FromRowMajor(2, 2, {kNan, 1.0f, 2.0f, 3.0f});
  // MatMulTransposedB's input gradient: all-zero gradient rows against a
  // weight matrix holding one NaN, for one row (the row-at-a-time path) and
  // for 16 rows (the packed tile).
  Tensor w_tb = Tensor::FromRowMajor(3, 2, {1.0f, 2.0f, kNan, 3.0f, 4.0f,
                                            5.0f});
  for (GemmKernel kernel : {GemmKernel::kNaive, GemmKernel::kBlocked}) {
    KernelConfig config;
    config.gemm = kernel;
    nn::SetKernelConfig(config);
    Tensor out = nn::MatMul(act, w);
    EXPECT_TRUE(std::isnan(out(0, 0)))
        << "kernel " << static_cast<int>(kernel);
    Tensor out_ta = nn::MatMulTransposedA(act.Transposed(), w);
    EXPECT_TRUE(std::isnan(out_ta(0, 0)))
        << "TransposedA kernel " << static_cast<int>(kernel);
    for (int rows : {1, 16}) {
      Tensor out_tb = nn::MatMulTransposedB(Tensor(rows, 2), w_tb);
      for (int i = 0; i < rows; ++i) {
        EXPECT_TRUE(std::isnan(out_tb(i, 1)))
            << "TransposedB kernel " << static_cast<int>(kernel) << " rows "
            << rows << " row " << i;
        EXPECT_EQ(out_tb(i, 0), 0.0f);
        EXPECT_EQ(out_tb(i, 2), 0.0f);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Mlp::Infer against the graph forward.
// ---------------------------------------------------------------------------

TEST(MlpInferTest, MatchesGraphForwardAndSingleRows) {
  // Every forward that no Backward follows runs Mlp::Infer: action
  // selection, HiMadrlTrainer::Act, serving, the critic passes and the
  // i-EOI rewards. Its values must be those of the graph forward the losses
  // differentiate, and a batched call must equal the row-by-row calls,
  // under both GEMM kernels and for row counts below, on and past one
  // 8-row tile.
  KernelConfigGuard guard;
  util::Rng rng(17);
  const std::vector<Activation> acts = {Activation::kTanh, Activation::kRelu,
                                        Activation::kNone};
  for (GemmKernel kernel : {GemmKernel::kNaive, GemmKernel::kBlocked}) {
    KernelConfig config;
    config.gemm = kernel;
    nn::SetKernelConfig(config);
    for (Activation hidden : acts) {
      for (Activation output : acts) {
        const nn::Mlp mlp({37, 33, 17, 3}, rng, hidden, output);
        for (int rows : {1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 64}) {
          const std::string tag =
              "kernel " + std::to_string(static_cast<int>(kernel)) +
              " acts " + std::to_string(static_cast<int>(hidden)) + "/" +
              std::to_string(static_cast<int>(output)) + " rows " +
              std::to_string(rows);
          const Tensor x = RandomTensor(rows, 37, rng);
          const Tensor y = mlp.Infer(x);
          ExpectBitEqual(y, mlp.Forward(x).value(), tag);
          for (int r = 0; r < rows; ++r) {
            Tensor x_row(1, x.cols());
            Tensor y_row(1, y.cols());
            const float* xr = x.data() + r * x.cols();
            const float* yr = y.data() + r * y.cols();
            std::copy(xr, xr + x.cols(), x_row.data());
            std::copy(yr, yr + y.cols(), y_row.data());
            ExpectBitEqual(mlp.Infer(x_row), y_row,
                           tag + " row " + std::to_string(r));
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fused graph ops: bit-equivalence of values and gradients.
// ---------------------------------------------------------------------------

TEST(FusedOpsTest, LinearActivateMatchesUnfusedChain) {
  KernelConfigGuard guard;
  util::Rng rng(7);
  for (Activation act : {Activation::kNone, Activation::kRelu,
                         Activation::kTanh, Activation::kSigmoid}) {
    Variable x_f = Variable::Parameter(RandomTensor(5, 3, rng));
    Variable w_f = Variable::Parameter(RandomTensor(3, 4, rng));
    Variable b_f = Variable::Parameter(RandomTensor(1, 4, rng));
    Variable x_u = Variable::Parameter(x_f.value());
    Variable w_u = Variable::Parameter(w_f.value());
    Variable b_u = Variable::Parameter(b_f.value());

    Variable fused = nn::LinearActivate(x_f, w_f, b_f, act);
    Variable unfused =
        nn::Activate(nn::AddRowVector(nn::MatMul(x_u, w_u), b_u), act);
    const std::string tag = "act " + std::to_string(static_cast<int>(act));
    ExpectBitEqual(fused.value(), unfused.value(), "value " + tag);

    // Backpropagate a non-trivial seed through both graphs.
    Tensor seed = RandomTensor(5, 4, rng);
    fused.Backward(seed);
    unfused.Backward(seed);
    ExpectBitEqual(x_f.grad(), x_u.grad(), "dX " + tag);
    ExpectBitEqual(w_f.grad(), w_u.grad(), "dW " + tag);
    ExpectBitEqual(b_f.grad(), b_u.grad(), "db " + tag);
  }
}

TEST(FusedOpsTest, AddScaledMatchesAddOfScalarMul) {
  util::Rng rng(8);
  const float s = -0.37f;
  Variable a_f = Variable::Parameter(RandomTensor(4, 6, rng));
  Variable b_f = Variable::Parameter(RandomTensor(4, 6, rng));
  Variable a_u = Variable::Parameter(a_f.value());
  Variable b_u = Variable::Parameter(b_f.value());

  Variable fused = nn::AddScaled(a_f, b_f, s);
  Variable unfused = nn::Add(a_u, nn::ScalarMul(b_u, s));
  ExpectBitEqual(fused.value(), unfused.value(), "AddScaled value");

  util::Rng seed_rng(81);
  Tensor seed = RandomTensor(4, 6, seed_rng);
  fused.Backward(seed);
  unfused.Backward(seed);
  ExpectBitEqual(a_f.grad(), a_u.grad(), "AddScaled dA");
  ExpectBitEqual(b_f.grad(), b_u.grad(), "AddScaled dB");
}

TEST(FusedOpsTest, SquareScaleMatchesScalarMulOfSquare) {
  util::Rng rng(9);
  const float s = -0.5f;
  Variable a_f = Variable::Parameter(RandomTensor(3, 5, rng));
  Variable a_u = Variable::Parameter(a_f.value());

  Variable fused = nn::SquareScale(a_f, s);
  Variable unfused = nn::ScalarMul(nn::Square(a_u), s);
  ExpectBitEqual(fused.value(), unfused.value(), "SquareScale value");

  util::Rng seed_rng(91);
  Tensor seed = RandomTensor(3, 5, seed_rng);
  fused.Backward(seed);
  unfused.Backward(seed);
  ExpectBitEqual(a_f.grad(), a_u.grad(), "SquareScale dA");
}

// ---------------------------------------------------------------------------
// Buffer pool: steady-state training allocates nothing new.
// ---------------------------------------------------------------------------

TEST(BufferPoolTest, TrainStepIsAllocationFreeAfterWarmup) {
  if (!nn::internal::BufferPoolEnabled()) {
    GTEST_SKIP() << "buffer pool compiled out (sanitizer build)";
  }
  KernelConfigGuard guard;
  KernelConfig config;  // Blocked kernels.
  nn::SetKernelConfig(config);

  util::Rng rng(42);
  nn::Mlp mlp({12, 32, 32, 4}, rng);
  nn::Adam adam(mlp.Parameters(), 1e-3f);
  const Tensor x = RandomTensor(16, 12, rng);
  const Tensor target = RandomTensor(16, 4, rng);

  auto step = [&] {
    adam.ZeroGrad();
    Variable loss = nn::MseLoss(mlp.Forward(x), target);
    loss.Backward();
    adam.Step();
  };

  for (int i = 0; i < 8; ++i) step();  // Warm the pool and Adam state.

  const auto before = nn::internal::GetBufferPoolStats();
  for (int i = 0; i < 16; ++i) step();
  const auto after = nn::internal::GetBufferPoolStats();

  EXPECT_GT(after.acquires, before.acquires);  // Work definitely happened...
  EXPECT_EQ(after.heap_allocs, before.heap_allocs)  // ...with no new heap.
      << "steady-state train steps should be served entirely from the pool";
}

// ---------------------------------------------------------------------------
// Adam: the vectorized step keeps the scalar loop's bits.
// ---------------------------------------------------------------------------

TEST(AdamTest, StepMatchesScalarReference) {
  constexpr float kLr = 3e-4f, kBeta1 = 0.9f, kBeta2 = 0.999f, kEps = 1e-8f;
  util::Rng rng(23);
  std::vector<Variable> params;
  // One size below every lane count, an odd one, and two with tails.
  for (int n : {1, 3, 17, 1025}) {
    params.push_back(Variable::Parameter(RandomTensor(1, n, rng)));
  }
  nn::Adam adam(params, kLr, kBeta1, kBeta2, kEps);
  std::vector<Tensor> value, m, v;
  for (const Variable& p : params) {
    value.push_back(p.value());
    m.emplace_back(p.rows(), p.cols());
    v.emplace_back(p.rows(), p.cols());
  }
  for (int step = 1; step <= 6; ++step) {
    for (Variable& p : params) {
      p.grad() = RandomTensor(p.rows(), p.cols(), rng);
      p.grad().Scale(step % 3 == 0 ? 1e-6f : 1.0f);  // tiny v: eps matters
    }
    adam.Step();
    // The scalar loop the vectorized step replaced.
    const float bc1 = 1.0f - std::pow(kBeta1, static_cast<float>(step));
    const float bc2 = 1.0f - std::pow(kBeta2, static_cast<float>(step));
    for (size_t k = 0; k < params.size(); ++k) {
      const Tensor& g = params[k].grad();
      for (int i = 0; i < g.size(); ++i) {
        m[k][i] = kBeta1 * m[k][i] + (1.0f - kBeta1) * g[i];
        v[k][i] = kBeta2 * v[k][i] + (1.0f - kBeta2) * g[i] * g[i];
        const float mhat = m[k][i] / bc1;
        const float vhat = v[k][i] / bc2;
        value[k][i] -= kLr * mhat / (std::sqrt(vhat) + kEps);
      }
    }
    const nn::Adam::State state = adam.ExportState();
    for (size_t k = 0; k < params.size(); ++k) {
      SCOPED_TRACE("step " + std::to_string(step) + ", size " +
                   std::to_string(m[k].size()));
      for (int i = 0; i < m[k].size(); ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(params[k].value()[i]),
                  std::bit_cast<uint32_t>(value[k][i])) << "value " << i;
        ASSERT_EQ(std::bit_cast<uint32_t>(state.m[k][i]),
                  std::bit_cast<uint32_t>(m[k][i])) << "m " << i;
        ASSERT_EQ(std::bit_cast<uint32_t>(state.v[k][i]),
                  std::bit_cast<uint32_t>(v[k][i])) << "v " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: the kernel choice never changes training results.
// ---------------------------------------------------------------------------

const map::Dataset& SmallDataset() {
  static const map::Dataset* dataset =
      new map::Dataset(map::BuildDataset(map::CampusId::kPurdue, 10));
  return *dataset;
}

env::EnvConfig SmallEnvConfig() {
  env::EnvConfig config;
  config.num_timeslots = 6;
  config.num_pois = 10;
  config.num_uavs = 1;
  config.num_ugvs = 1;
  return config;
}

core::TrainConfig SmallTrainConfig() {
  core::TrainConfig train;
  train.iterations = 2;
  train.episodes_per_iteration = 2;
  train.policy_epochs = 1;
  train.lcf_epochs = 1;
  train.minibatch = 64;
  train.net.hidden = {16};
  train.eoi.hidden = {12};
  train.seed = 11;
  train.verbose = false;
  return train;
}

std::string TempPath(const std::string& name) {
  // pid-scoped: gtest's TempDir is shared across concurrent test processes.
  return ::testing::TempDir() + "/p" + std::to_string(::getpid()) + "_" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(KernelInvarianceTest, TrainingCheckpointBytesIdenticalAcrossKernels) {
  KernelConfigGuard guard;
  struct Case {
    bool naive;
    const char* name;
  };
  const Case cases[] = {
      {true, "naive"},
      {false, "blocked"},
  };
  std::vector<std::string> bytes;
  for (const Case& c : cases) {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::TrainConfig train = SmallTrainConfig();
    train.nn_naive_kernels = c.naive;
    core::HiMadrlTrainer trainer(env, train);
    for (int i = 0; i < train.iterations; ++i) trainer.TrainIteration();
    const std::string path = TempPath(std::string("kinv_") + c.name + ".agsc");
    ASSERT_TRUE(trainer.SaveCheckpoint(path));
    bytes.push_back(ReadFileBytes(path));
    std::remove(path.c_str());
  }
  for (size_t i = 1; i < bytes.size(); ++i) {
    EXPECT_EQ(bytes[0], bytes[i])
        << "checkpoint bytes diverge between " << cases[0].name << " and "
        << cases[i].name;
  }
}

}  // namespace
}  // namespace agsc
