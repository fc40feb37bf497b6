// Tests for the batched SoA channel kernels (env/channel_batch.{h,cc}):
//  - ISA-equivalence sweep: every dispatch variant (generic/AVX2/AVX-512,
//    clamped to the host) produces gains/SINRs/capacities bit-identical to
//    the scalar ChannelModel oracle, including coincident and near-zero
//    link distances;
//  - the batched env path is lock-step bit-identical to the scalar channel
//    path over whole episodes, and fixed-seed training runs write
//    byte-identical checkpoints across channel paths and ISA variants;
//  - the --env-fast-math tier carries a bounded per-gain relative error, is
//    bit-identical across ISA variants (deterministic), and its
//    action-distribution divergence against the exact tier stays below
//    threshold over a fixed-seed episode sweep;
//  - EnvConfig::Validate rejects non-finite / non-positive channel
//    parameters and fast-math without the batched path;
//  - core/oracle_guard's channel lock-step check passes on the default path
//    and trivially passes on the scalar / fast-math paths.

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hi_madrl.h"
#include "core/oracle_guard.h"
#include "env/channel.h"
#include "env/channel_batch.h"
#include "env/config.h"
#include "env/sc_env.h"
#include "map/campus.h"
#include "map/geometry.h"
#include "util/rng.h"

namespace agsc {
namespace {

using env::AirGainsBatch;
using env::AirGainsFast;
using env::AirGainSingle;
using env::CapacityBatch;
using env::CapacityBatchFast;
using env::ChannelBatchParams;
using env::ChannelIsa;
using env::ChannelModel;
using env::GroundGainsBatch;
using env::GroundGainsFast;
using env::GroundGainSingle;
using env::InterferencePower;
using env::PoiSoa;
using env::UplinkSinrBatch;
using env::VisibleMask;

/// Restores the process-wide channel ISA selection on scope exit so a
/// failing test cannot leak a forced variant into later tests.
struct ChannelIsaGuard {
  ChannelIsaGuard() : saved(env::ActiveChannelIsa()) {}
  ~ChannelIsaGuard() { env::SetChannelIsa(saved); }
  ChannelIsa saved;
};

/// The ISA levels this host can actually run (requests above the detected
/// capability are clamped by SetChannelIsa, so sweeping the full enum would
/// silently re-test the same variant).
std::vector<ChannelIsa> HostIsaLevels() {
  std::vector<ChannelIsa> levels = {ChannelIsa::kGeneric};
  if (env::DetectedChannelIsa() >= ChannelIsa::kAvx2) {
    levels.push_back(ChannelIsa::kAvx2);
  }
  if (env::DetectedChannelIsa() >= ChannelIsa::kAvx512) {
    levels.push_back(ChannelIsa::kAvx512);
  }
  return levels;
}

/// PoI layout mixing random positions with the adversarial cases: a PoI
/// exactly under the receiver, sub-meter offsets (inside the d >= 1 clamp),
/// points near the visibility-range boundary, and far corners.
std::vector<map::Point2> AdversarialLayout(const map::Point2& rx, int n,
                                           uint64_t seed) {
  util::Rng rng(seed);
  std::vector<map::Point2> pts(static_cast<size_t>(n));
  for (map::Point2& p : pts) {
    p = {rng.Uniform(0.0, 2000.0), rng.Uniform(0.0, 2000.0)};
  }
  pts[0] = rx;                          // Coincident.
  pts[1] = {rx.x + 1e-12, rx.y};        // Denormal-scale offset.
  pts[2] = {rx.x + 0.25, rx.y - 0.25};  // Inside the 1 m clamp.
  pts[3] = {rx.x + 1.0, rx.y};          // Exactly on the clamp boundary.
  pts[4] = {0.0, 0.0};
  pts[5] = {2000.0, 2000.0};
  return pts;
}

double BitCastDiff(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0 ? 0.0 : std::abs(a - b);
}

// ---------------------------------------------------------------------------
// Kernel-level bit-exactness across the ISA sweep.
// ---------------------------------------------------------------------------

TEST(ChannelBatchTest, IsaSweepGainsBitIdenticalToScalarOracle) {
  ChannelIsaGuard guard;
  env::EnvConfig config;
  const ChannelModel model(config);
  const ChannelBatchParams params = ChannelBatchParams::FromConfig(config);
  const map::Point2 rx{777.5, 901.25};
  const int n = 1031;  // Odd, so every vector width has a scalar tail.
  const std::vector<map::Point2> pts = AdversarialLayout(rx, n, 0xC4A77EL);
  PoiSoa soa;
  soa.Build(pts, n);
  std::vector<double> air(n), ground(n);
  const double fading = 1.37;
  for (ChannelIsa isa : HostIsaLevels()) {
    ASSERT_EQ(env::SetChannelIsa(isa), isa);
    AirGainsBatch(params, soa, nullptr, n, rx, config.uav_height, air.data());
    GroundGainsBatch(params, soa, nullptr, n, rx, fading, ground.data());
    for (int i = 0; i < n; ++i) {
      const double air_ref = model.AirLinkGain(pts[i], rx, config.uav_height);
      const double ground_ref = model.GroundLinkGain(pts[i], rx, fading);
      ASSERT_EQ(BitCastDiff(air[i], air_ref), 0.0)
          << env::ChannelIsaName(isa) << " air gain " << i;
      ASSERT_EQ(BitCastDiff(ground[i], ground_ref), 0.0)
          << env::ChannelIsaName(isa) << " ground gain " << i;
    }
    // Indexed (gather) form and the single-link conveniences.
    const std::vector<int> idx = {0, 5, 1, 1030, 2, 512, 3};
    std::vector<double> gathered(idx.size());
    AirGainsBatch(params, soa, idx.data(), static_cast<int>(idx.size()), rx,
                  config.uav_height, gathered.data());
    for (size_t j = 0; j < idx.size(); ++j) {
      ASSERT_EQ(gathered[j], air[idx[j]]) << "indexed air gain " << j;
    }
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(AirGainSingle(params, pts[i], rx, config.uav_height, false),
                air[i]);
      ASSERT_EQ(GroundGainSingle(params, pts[i], rx, fading, false),
                ground[i]);
    }
  }
}

TEST(ChannelBatchTest, IsaSweepSinrCapacityInterferenceBitIdentical) {
  ChannelIsaGuard guard;
  env::EnvConfig config;
  const ChannelModel model(config);
  const ChannelBatchParams params = ChannelBatchParams::FromConfig(config);
  const map::Point2 rx{321.0, 1234.5};
  const int n = 257;
  const std::vector<map::Point2> pts = AdversarialLayout(rx, n, 0x51AEL);
  PoiSoa soa;
  soa.Build(pts, n);
  std::vector<double> gains(n), sinr(n), cap(n);
  std::vector<int> pois(n);
  for (int i = 0; i < n; ++i) pois[i] = i;
  for (ChannelIsa isa : HostIsaLevels()) {
    env::SetChannelIsa(isa);
    AirGainsBatch(params, soa, nullptr, n, rx, config.uav_height,
                  gains.data());
    // Interference: exact scalar accumulation order with the skip slots.
    const double intf = InterferencePower(gains.data(), pois.data(), n,
                                          config.rho_poi_w, 3, 100);
    double ref_intf = 0.0;
    for (int i = 0; i < n; ++i) {
      if (i == 3 || i == 100) continue;
      ref_intf +=
          model.AirLinkGain(pts[i], rx, config.uav_height) * config.rho_poi_w;
    }
    ASSERT_EQ(BitCastDiff(intf, ref_intf), 0.0) << env::ChannelIsaName(isa);

    const double noise = model.NoisePower();
    UplinkSinrBatch(gains.data(), n, config.rho_poi_w, noise, intf,
                    sinr.data());
    CapacityBatch(config.bandwidth_hz, sinr.data(), n, cap.data());
    for (int i = 0; i < n; ++i) {
      const double ref_sinr = gains[i] * config.rho_poi_w / (noise + intf);
      ASSERT_EQ(BitCastDiff(sinr[i], ref_sinr), 0.0) << "sinr " << i;
      ASSERT_EQ(BitCastDiff(cap[i], model.Capacity(sinr[i])), 0.0)
          << "capacity " << i;
    }
  }
}

TEST(ChannelBatchTest, VisibleMaskMatchesScalarPredicate) {
  ChannelIsaGuard guard;
  const map::Point2 pos{1000.0, 1000.0};
  const double range = 700.0;
  const int n = 2048;
  util::Rng rng(0x5150ULL);
  std::vector<map::Point2> pts(static_cast<size_t>(n));
  for (map::Point2& p : pts) {
    // Cluster radii tightly around the range so the guard band is
    // genuinely exercised, not just the cheap compare.
    const double r = range + rng.Uniform(-2.0, 2.0);
    const double a = rng.Uniform(0.0, 2.0 * M_PI);
    p = {pos.x + r * std::cos(a), pos.y + r * std::sin(a)};
  }
  pts[0] = pos;
  pts[1] = {pos.x + range, pos.y};  // Exactly on the boundary.
  PoiSoa soa;
  soa.Build(pts, n);
  std::vector<double> dist(n);
  std::vector<uint8_t> vis(n);
  for (ChannelIsa isa : HostIsaLevels()) {
    env::SetChannelIsa(isa);
    VisibleMask(soa, pos, range, dist.data(), vis.data());
    for (int i = 0; i < n; ++i) {
      const bool ref = map::Distance(pos, pts[i]) <= range;
      ASSERT_EQ(vis[i] != 0, ref)
          << env::ChannelIsaName(isa) << " visibility " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Coincident-position regression (the d -> 0 clamp, scalar AND batched).
// ---------------------------------------------------------------------------

TEST(ChannelBatchTest, CoincidentPositionsProduceFiniteClampedGains) {
  ChannelIsaGuard guard;
  env::EnvConfig config;
  const ChannelModel model(config);
  const ChannelBatchParams params = ChannelBatchParams::FromConfig(config);
  const map::Point2 p{500.0, 500.0};
  // Scalar oracle: a UV exactly on a PoI must clamp the link distance to
  // 1 m, not drive pow(d, -alpha) to infinity.
  const double air = model.AirLinkGain(p, p, config.uav_height);
  const double ground = model.GroundLinkGain(p, p, 1.0);
  EXPECT_TRUE(std::isfinite(air));
  EXPECT_TRUE(std::isfinite(ground));
  EXPECT_LE(ground, 1.0);  // fading * max(d,1)^-alpha2 <= fading.
  // Ground link at d = 0 clamps to exactly d = 1 => gain == fading.
  EXPECT_EQ(model.GroundLinkGain(p, p, 0.75), 0.75);
  // Batched kernels mirror the clamp bit-for-bit on every variant, and a
  // zero-height air link (slant 0) hits the 90-degree elevation branch.
  PoiSoa soa;
  soa.Build({p, {p.x + 0.5, p.y}}, 2);
  std::vector<double> out(2);
  for (ChannelIsa isa : HostIsaLevels()) {
    env::SetChannelIsa(isa);
    AirGainsBatch(params, soa, nullptr, 2, p, 0.0, out.data());
    EXPECT_EQ(out[0], model.AirLinkGain(p, p, 0.0));
    EXPECT_TRUE(std::isfinite(out[0]));
    EXPECT_TRUE(std::isfinite(out[1]));
    GroundGainsBatch(params, soa, nullptr, 2, p, 2.5, out.data());
    EXPECT_EQ(out[0], 2.5);
    EXPECT_TRUE(std::isfinite(out[1]));
    AirGainsFast(params, soa, nullptr, 2, p, 0.0, out.data());
    EXPECT_TRUE(std::isfinite(out[0]));
    GroundGainsFast(params, soa, nullptr, 2, p, 2.5, out.data());
    EXPECT_TRUE(std::isfinite(out[0]));
  }
}

// ---------------------------------------------------------------------------
// Fast-math tier: bounded error + cross-ISA determinism.
// ---------------------------------------------------------------------------

TEST(ChannelBatchTest, FastTierRelativeErrorBounded) {
  ChannelIsaGuard guard;
  env::EnvConfig config;
  const ChannelModel model(config);
  const ChannelBatchParams params = ChannelBatchParams::FromConfig(config);
  const map::Point2 rx{777.5, 901.25};
  const int n = 4099;
  const std::vector<map::Point2> pts = AdversarialLayout(rx, n, 0xFA57L);
  PoiSoa soa;
  soa.Build(pts, n);
  std::vector<double> air(n), ground(n), sinr(n), cap(n);
  constexpr double kBound = 1e-11;  // Kernels deliver ~1e-14; margin for
                                    // future coefficient tweaks.
  for (ChannelIsa isa : HostIsaLevels()) {
    env::SetChannelIsa(isa);
    AirGainsFast(params, soa, nullptr, n, rx, config.uav_height, air.data());
    GroundGainsFast(params, soa, nullptr, n, rx, 1.37, ground.data());
    for (int i = 0; i < n; ++i) {
      const double air_ref = model.AirLinkGain(pts[i], rx, config.uav_height);
      const double ground_ref = model.GroundLinkGain(pts[i], rx, 1.37);
      ASSERT_LT(std::abs(air[i] - air_ref), kBound * air_ref)
          << env::ChannelIsaName(isa) << " air " << i;
      ASSERT_LT(std::abs(ground[i] - ground_ref), kBound * ground_ref)
          << env::ChannelIsaName(isa) << " ground " << i;
    }
    util::Rng rng(7);
    for (int i = 0; i < n; ++i) sinr[i] = rng.Uniform(-0.5, 60.0);
    CapacityBatchFast(config.bandwidth_hz, sinr.data(), n, cap.data());
    for (int i = 0; i < n; ++i) {
      const double ref = model.Capacity(sinr[i]);
      if (ref > 0.0) {
        ASSERT_LT(std::abs(cap[i] - ref), kBound * ref) << "capacity " << i;
      } else {
        ASSERT_EQ(cap[i], 0.0) << "capacity " << i;
      }
    }
  }
}

TEST(ChannelBatchTest, FastTierBitIdenticalAcrossIsaVariants) {
  ChannelIsaGuard guard;
  env::EnvConfig config;
  const ChannelBatchParams params = ChannelBatchParams::FromConfig(config);
  const map::Point2 rx{50.0, 1950.0};
  const int n = 513;
  const std::vector<map::Point2> pts = AdversarialLayout(rx, n, 0xD37L);
  PoiSoa soa;
  soa.Build(pts, n);
  const std::vector<ChannelIsa> levels = HostIsaLevels();
  std::vector<std::vector<double>> air(levels.size(),
                                       std::vector<double>(n));
  std::vector<std::vector<double>> ground(levels.size(),
                                          std::vector<double>(n));
  for (size_t v = 0; v < levels.size(); ++v) {
    env::SetChannelIsa(levels[v]);
    AirGainsFast(params, soa, nullptr, n, rx, config.uav_height,
                 air[v].data());
    GroundGainsFast(params, soa, nullptr, n, rx, 0.8, ground[v].data());
  }
  for (size_t v = 1; v < levels.size(); ++v) {
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(BitCastDiff(air[0][i], air[v][i]), 0.0)
          << "fast air diverges between " << env::ChannelIsaName(levels[0])
          << " and " << env::ChannelIsaName(levels[v]) << " at " << i;
      ASSERT_EQ(BitCastDiff(ground[0][i], ground[v][i]), 0.0)
          << "fast ground diverges at " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Env-level equivalence and the oracle guard.
// ---------------------------------------------------------------------------

env::EnvConfig SmallEnvConfig() {
  env::EnvConfig config;
  config.num_timeslots = 8;
  config.num_pois = 12;
  config.num_uavs = 2;
  config.num_ugvs = 2;
  return config;
}

const map::Dataset& SmallDataset() {
  static const map::Dataset* dataset =
      new map::Dataset(map::BuildDataset(map::CampusId::kPurdue, 12));
  return *dataset;
}

TEST(ChannelBatchEnvTest, BatchedEpisodesBitIdenticalToScalarChannel) {
  ChannelIsaGuard guard;
  for (ChannelIsa isa : HostIsaLevels()) {
    env::SetChannelIsa(isa);
    env::ScEnv probe(SmallEnvConfig(), SmallDataset(), 42);
    const core::OracleCheckResult check =
        core::LockStepEnvCheck(probe, core::kFallbackChannel, 8);
    EXPECT_TRUE(check.ok) << env::ChannelIsaName(isa) << ": " << check.detail;
  }
}

TEST(ChannelBatchEnvTest, SelfCheckTriviallyPassesOffTheBitExactTier) {
  // Already-scalar env: nothing to compare.
  env::EnvConfig scalar = SmallEnvConfig();
  scalar.use_channel_batch = false;
  env::ScEnv scalar_env(scalar, SmallDataset(), 7);
  EXPECT_TRUE(core::LockStepEnvCheck(scalar_env, core::kFallbackChannel, 4).ok);
  // Fast-math env: intentionally not bit-comparable, must not be flagged.
  env::EnvConfig fast = SmallEnvConfig();
  fast.env_fast_math = true;
  env::ScEnv fast_env(fast, SmallDataset(), 7);
  EXPECT_TRUE(core::LockStepEnvCheck(fast_env, core::kFallbackChannel, 4).ok);
}

TEST(ChannelBatchEnvTest, DisableChannelBatchClearsFastMath) {
  env::EnvConfig config = SmallEnvConfig();
  config.env_fast_math = true;
  env::ScEnv e(config, SmallDataset(), 3);
  EXPECT_TRUE(e.config().use_channel_batch);
  EXPECT_TRUE(e.config().env_fast_math);
  // The channel fallback bit reaches ScEnv::DisableChannelBatch.
  core::ApplyEnvFallbacks(core::kFallbackChannel, e);
  EXPECT_FALSE(e.config().use_channel_batch);
  EXPECT_FALSE(e.config().env_fast_math);
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
  return ::testing::TempDir() + "/p" + std::to_string(::getpid()) + "_" +
         name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(ChannelBatchEnvTest, CheckpointBytesIdenticalAcrossChannelPathsAndIsas) {
  ChannelIsaGuard guard;
  struct Case {
    bool batch;
    ChannelIsa isa;
    std::string name;
  };
  std::vector<Case> cases = {{false, ChannelIsa::kGeneric, "scalar"}};
  for (ChannelIsa isa : HostIsaLevels()) {
    cases.push_back(
        {true, isa, std::string("batched_") + env::ChannelIsaName(isa)});
  }
  std::vector<std::string> bytes;
  for (const Case& c : cases) {
    env::SetChannelIsa(c.isa);
    env::EnvConfig config = SmallEnvConfig();
    config.use_channel_batch = c.batch;
    env::ScEnv e(config, SmallDataset(), 11);
    core::HiMadrlTrainer trainer(e, SmallTrainConfig());
    for (int i = 0; i < 2; ++i) trainer.TrainIteration();
    const std::string path = TempPath("chinv_" + c.name + ".agsc");
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

TEST(ChannelBatchEnvTest, FastMathActionDivergenceBelowThreshold) {
  // Statistical acceptance for the fast tier: train briefly on the exact
  // tier, then run fixed-seed greedy episodes on exact and fast envs and
  // compare the action streams. The per-gain error is ~1e-14, so actions
  // should track closely; the loose bound guards against systematic
  // divergence, not ulp noise.
  env::EnvConfig exact_cfg = SmallEnvConfig();
  exact_cfg.num_timeslots = 20;
  env::EnvConfig fast_cfg = exact_cfg;
  fast_cfg.env_fast_math = true;

  env::ScEnv train_env(exact_cfg, SmallDataset(), 11);
  core::HiMadrlTrainer trainer(train_env, SmallTrainConfig());
  for (int i = 0; i < 2; ++i) trainer.TrainIteration();

  env::ScEnv exact_env(exact_cfg, SmallDataset(), 99);
  env::ScEnv fast_env(fast_cfg, SmallDataset(), 99);
  env::StepResult re = exact_env.Reset();
  env::StepResult rf = fast_env.Reset();
  util::Rng act_rng_e(5), act_rng_f(5);
  double abs_diff_sum = 0.0;
  long samples = 0;
  const int agents = exact_env.num_agents();
  std::vector<env::UvAction> ae(static_cast<size_t>(agents));
  std::vector<env::UvAction> af(static_cast<size_t>(agents));
  while (!re.done) {
    for (int k = 0; k < agents; ++k) {
      ae[k] = trainer.Act(exact_env, k, re.observations[k], act_rng_e, true);
      af[k] = trainer.Act(fast_env, k, rf.observations[k], act_rng_f, true);
      abs_diff_sum += std::abs(ae[k].raw_direction - af[k].raw_direction) +
                      std::abs(ae[k].raw_speed - af[k].raw_speed);
      samples += 2;
    }
    re = exact_env.Step(ae);
    rf = fast_env.Step(af);
  }
  ASSERT_GT(samples, 0);
  const double mean_abs_divergence = abs_diff_sum / samples;
  // Actions live in [-1, 1]; demand the mean divergence stays well under
  // 1% of that scale across the sweep.
  EXPECT_LT(mean_abs_divergence, 0.02) << "fast-math tier shifted the "
                                          "action distribution";
  // The episode outcomes must agree to the same tolerance.
  EXPECT_NEAR(exact_env.EpisodeMetrics().data_collection_ratio,
              fast_env.EpisodeMetrics().data_collection_ratio, 0.02);
}

// ---------------------------------------------------------------------------
// Config validation.
// ---------------------------------------------------------------------------

TEST(ChannelBatchConfigTest, ValidateRejectsBadChannelParams) {
  const double kBad[] = {0.0, -1.0, std::nan(""),
                         std::numeric_limits<double>::infinity()};
  auto expect_rejected = [](env::EnvConfig c, const char* what) {
    EXPECT_FALSE(c.Validate().empty()) << what;
  };
  for (double bad : kBad) {
    env::EnvConfig c;
    c.bandwidth_hz = bad;
    expect_rejected(c, "bandwidth_hz");
    c = env::EnvConfig{};
    c.noise_psd = bad;
    expect_rejected(c, "noise_psd");
    c = env::EnvConfig{};
    c.alpha1 = bad;
    expect_rejected(c, "alpha1");
    c = env::EnvConfig{};
    c.alpha2 = bad;
    expect_rejected(c, "alpha2");
    c = env::EnvConfig{};
    c.omega_los = bad;
    expect_rejected(c, "omega_los");
    c = env::EnvConfig{};
    c.beta_los = bad;
    expect_rejected(c, "beta_los");
    c = env::EnvConfig{};
    c.rho_uav_w = bad;
    expect_rejected(c, "rho_uav_w");
    c = env::EnvConfig{};
    c.rho_poi_w = bad;
    expect_rejected(c, "rho_poi_w");
  }
  env::EnvConfig c;
  c.eta_los_db = std::nan("");
  EXPECT_FALSE(c.Validate().empty()) << "eta_los_db";
  c = env::EnvConfig{};
  c.eta_nlos_db = -std::numeric_limits<double>::infinity();
  EXPECT_FALSE(c.Validate().empty()) << "eta_nlos_db";
  c = env::EnvConfig{};
  c.use_channel_batch = false;
  c.env_fast_math = true;
  EXPECT_FALSE(c.Validate().empty()) << "fast math without batch";
  c = env::EnvConfig{};
  EXPECT_TRUE(c.Validate().empty()) << "defaults must stay valid";
}

TEST(ChannelBatchConfigTest, IsaNamesAndClampingAreStable) {
  ChannelIsaGuard guard;
  EXPECT_STREQ(env::ChannelIsaName(ChannelIsa::kGeneric), "generic");
  EXPECT_STREQ(env::ChannelIsaName(ChannelIsa::kAvx2), "avx2");
  EXPECT_STREQ(env::ChannelIsaName(ChannelIsa::kAvx512), "avx512");
  // Requests above the host capability clamp to the detected level.
  const ChannelIsa active = env::SetChannelIsa(ChannelIsa::kAvx512);
  EXPECT_LE(static_cast<int>(active),
            static_cast<int>(env::DetectedChannelIsa()));
  EXPECT_EQ(env::SetChannelIsa(ChannelIsa::kGeneric), ChannelIsa::kGeneric);
}

}  // namespace
}  // namespace agsc
