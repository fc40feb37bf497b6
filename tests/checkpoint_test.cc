// Tests for the fault-tolerant checkpoint + recovery layer: the v2
// ("AGSCNN02") checkpoint format, atomic writes and fault injection,
// all-or-nothing v1 parameter loading, exact training resume, auto-
// checkpoint retention/fallback, the divergence guard, and the strict
// CLI-number / EnvConfig validation satellites.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hi_madrl.h"
#include "env/config.h"
#include "env/sc_env.h"
#include "map/campus.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "util/fault_inject.h"
#include "util/parse.h"
#include "util/rng.h"

namespace agsc {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Shared fixtures.
// ---------------------------------------------------------------------------

const map::Dataset& SmallDataset() {
  static const map::Dataset* dataset =
      new map::Dataset(map::BuildDataset(map::CampusId::kPurdue, 12));
  return *dataset;
}

env::EnvConfig SmallEnvConfig() {
  env::EnvConfig config;
  config.num_timeslots = 8;
  config.num_pois = 12;
  config.num_uavs = 1;
  config.num_ugvs = 1;
  return config;
}

core::TrainConfig SmallTrainConfig() {
  core::TrainConfig train;
  train.iterations = 4;
  train.episodes_per_iteration = 1;
  train.policy_epochs = 1;
  train.lcf_epochs = 1;
  train.minibatch = 64;
  train.net.hidden = {16};
  train.eoi.hidden = {12};
  train.verbose = false;
  return train;
}

std::string TempPath(const std::string& name) {
  // gtest's TempDir is shared by every concurrently running test process
  // (ctest -j spawns one per test case); fixed names collide across
  // processes, so scope each path to this pid.
  return ::testing::TempDir() + "/p" + std::to_string(::getpid()) + "_" + name;
}

/// Clears injected faults on scope entry and exit so tests never leak
/// injector state into each other.
struct FaultInjectorGuard {
  FaultInjectorGuard() { util::FaultInjector::Instance().Reset(); }
  ~FaultInjectorGuard() { util::FaultInjector::Instance().Reset(); }
};

/// Snapshot of a trainer's actor parameters for bitwise comparison.
std::vector<nn::Tensor> ActorSnapshot(core::HiMadrlTrainer& trainer,
                                      env::ScEnv& env) {
  // Deterministic actions fully characterize the actor; instead compare the
  // raw parameter tensors gathered through a save/decode round (the
  // public surface).
  (void)env;
  const std::string path = TempPath("actor_probe.agsc");
  EXPECT_TRUE(trainer.SaveCheckpoint(path));
  nn::Checkpoint ckpt;
  EXPECT_EQ(nn::LoadCheckpointFile(path, ckpt), nn::CheckpointError::kOk);
  std::remove(path.c_str());
  const nn::CheckpointSection* params = ckpt.Find("params");
  EXPECT_NE(params, nullptr);
  if (params == nullptr) return {};  // EXPECT_NE is non-fatal; don't deref.
  return params->tensors;
}

// ---------------------------------------------------------------------------
// The raw v2 encode/decode layer (its CRC-32 is tested in util_test).
// ---------------------------------------------------------------------------

nn::Checkpoint SampleCheckpoint() {
  nn::Checkpoint ckpt;
  ckpt.fingerprint = 0xDEADBEEFCAFEF00DULL;
  nn::CheckpointSection& a = ckpt.AddSection("alpha");
  a.words = {1, 2, 3};
  util::Rng rng(7);
  a.tensors.push_back(nn::Tensor::Randn(3, 4, rng));
  a.tensors.push_back(nn::Tensor::Randn(1, 5, rng));
  nn::CheckpointSection& b = ckpt.AddSection("beta");
  b.words = {0xFFFFFFFFFFFFFFFFULL};
  return ckpt;
}

TEST(CheckpointV2FormatTest, EncodeDecodeRoundTrip) {
  const nn::Checkpoint ckpt = SampleCheckpoint();
  const std::string bytes = nn::EncodeCheckpoint(ckpt);
  nn::Checkpoint decoded;
  ASSERT_EQ(nn::DecodeCheckpoint(bytes, decoded), nn::CheckpointError::kOk);
  EXPECT_EQ(decoded.fingerprint, ckpt.fingerprint);
  ASSERT_EQ(decoded.sections.size(), 2u);
  EXPECT_EQ(decoded.sections[0].name, "alpha");
  EXPECT_EQ(decoded.sections[0].words, ckpt.sections[0].words);
  ASSERT_EQ(decoded.sections[0].tensors.size(), 2u);
  EXPECT_TRUE(
      decoded.sections[0].tensors[0].SameAs(ckpt.sections[0].tensors[0]));
  EXPECT_TRUE(
      decoded.sections[0].tensors[1].SameAs(ckpt.sections[0].tensors[1]));
  EXPECT_EQ(decoded.sections[1].words, ckpt.sections[1].words);
  EXPECT_NE(ckpt.Find("beta"), nullptr);
  EXPECT_EQ(ckpt.Find("gamma"), nullptr);
}

TEST(CheckpointV2FormatTest, TruncationIsDetected) {
  const std::string bytes = nn::EncodeCheckpoint(SampleCheckpoint());
  nn::Checkpoint out;
  // Every truncation point must be rejected (checksum or magic).
  for (size_t cut : {bytes.size() - 1, bytes.size() / 2, size_t{9}}) {
    const nn::CheckpointError err =
        nn::DecodeCheckpoint(bytes.substr(0, cut), out);
    EXPECT_NE(err, nn::CheckpointError::kOk) << "cut at " << cut;
  }
}

TEST(CheckpointV2FormatTest, EveryBitFlipIsDetected) {
  const std::string bytes = nn::EncodeCheckpoint(SampleCheckpoint());
  nn::Checkpoint out;
  // Flip one byte at a sampling of offsets across the file.
  for (size_t pos = 0; pos < bytes.size(); pos += 7) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    EXPECT_NE(nn::DecodeCheckpoint(corrupt, out), nn::CheckpointError::kOk)
        << "flip at " << pos;
  }
}

TEST(CheckpointV2FormatTest, WrongMagicRejected) {
  nn::Checkpoint out;
  EXPECT_EQ(nn::DecodeCheckpoint("AGSCNN01xxxxxxxxxxxx", out),
            nn::CheckpointError::kBadMagic);
  EXPECT_EQ(nn::DecodeCheckpoint("", out), nn::CheckpointError::kBadMagic);
}

// ---------------------------------------------------------------------------
// Atomic writes + fault injection.
// ---------------------------------------------------------------------------

TEST(AtomicWriteTest, WritesAndReplaces) {
  FaultInjectorGuard guard;
  const std::string path = TempPath("atomic_write.bin");
  ASSERT_TRUE(util::AtomicWriteFile(path, "first"));
  ASSERT_TRUE(util::AtomicWriteFile(path, "second"));
  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "second");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(AtomicWriteTest, InjectedFailureLeavesOldFileIntact) {
  FaultInjectorGuard guard;
  const std::string path = TempPath("atomic_fail.bin");
  ASSERT_TRUE(util::AtomicWriteFile(path, "precious"));

  util::FaultInjector::Config config;
  config.fail_write = 1;
  util::FaultInjector::Instance().set_config(config);
  EXPECT_FALSE(util::AtomicWriteFile(path, "clobber"));

  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "precious");
  std::remove(path.c_str());
}

TEST(AtomicWriteTest, InjectedTruncationAndBitFlip) {
  FaultInjectorGuard guard;
  const std::string path = TempPath("atomic_mutate.bin");

  util::FaultInjector::Config config;
  config.mutate_write = 1;
  config.truncate_at = 4;
  config.flip_byte = 2;
  util::FaultInjector::Instance().set_config(config);
  ASSERT_TRUE(util::AtomicWriteFile(path, "0123456789"));

  std::ifstream in(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  ASSERT_EQ(content.size(), 4u);
  EXPECT_EQ(content[2], static_cast<char>('2' ^ 0xFF));

  // The second write is untouched (counter moved past the target).
  ASSERT_TRUE(util::AtomicWriteFile(path, "clean"));
  std::ifstream in2(path, std::ios::binary);
  std::string content2((std::istreambuf_iterator<char>(in2)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(content2, "clean");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// v1 LoadParameters: all-or-nothing (partial-mutation regression).
// ---------------------------------------------------------------------------

TEST(LoadParametersTest, MidFileShapeMismatchLeavesParamsUntouched) {
  util::Rng rng(3);
  std::vector<nn::Variable> src = {
      nn::Variable::Parameter(nn::Tensor::Randn(4, 4, rng)),
      nn::Variable::Parameter(nn::Tensor::Randn(2, 3, rng))};
  const std::string path = TempPath("v1_mismatch.bin");
  ASSERT_TRUE(nn::SaveParameters(path, src));

  // First shape matches, second does not: the load must fail WITHOUT
  // having overwritten the first tensor (the old reader mutated in place).
  std::vector<nn::Variable> dst = {
      nn::Variable::Parameter(nn::Tensor(4, 4, 7.0f)),
      nn::Variable::Parameter(nn::Tensor(3, 2, 7.0f))};
  EXPECT_FALSE(nn::LoadParameters(path, dst));
  EXPECT_TRUE(dst[0].value().SameAs(nn::Tensor(4, 4, 7.0f)));
  EXPECT_TRUE(dst[1].value().SameAs(nn::Tensor(3, 2, 7.0f)));
  std::remove(path.c_str());
}

TEST(LoadParametersTest, ShortReadLeavesParamsUntouched) {
  util::Rng rng(4);
  std::vector<nn::Variable> src = {
      nn::Variable::Parameter(nn::Tensor::Randn(4, 4, rng)),
      nn::Variable::Parameter(nn::Tensor::Randn(4, 4, rng))};
  const std::string path = TempPath("v1_short.bin");
  ASSERT_TRUE(nn::SaveParameters(path, src));
  // Cut the file mid-way through the second tensor.
  fs::resize_file(path, fs::file_size(path) - 20);

  std::vector<nn::Variable> dst = {
      nn::Variable::Parameter(nn::Tensor(4, 4, 9.0f)),
      nn::Variable::Parameter(nn::Tensor(4, 4, 9.0f))};
  EXPECT_FALSE(nn::LoadParameters(path, dst));
  EXPECT_TRUE(dst[0].value().SameAs(nn::Tensor(4, 4, 9.0f)));
  EXPECT_TRUE(dst[1].value().SameAs(nn::Tensor(4, 4, 9.0f)));
  std::remove(path.c_str());
}

TEST(LoadParametersTest, MatchingFileStillLoads) {
  util::Rng rng(5);
  std::vector<nn::Variable> src = {
      nn::Variable::Parameter(nn::Tensor::Randn(3, 3, rng))};
  const std::string path = TempPath("v1_ok.bin");
  ASSERT_TRUE(nn::SaveParameters(path, src));
  std::vector<nn::Variable> dst = {
      nn::Variable::Parameter(nn::Tensor(3, 3))};
  EXPECT_TRUE(nn::LoadParameters(path, dst));
  EXPECT_TRUE(dst[0].value().SameAs(src[0].value()));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Rng and Adam state round-trips.
// ---------------------------------------------------------------------------

TEST(RngStateTest, SaveLoadReproducesStreamIncludingGaussianCache) {
  util::Rng rng(42);
  rng.Gaussian();  // Leaves a cached Box-Muller value behind.
  const auto state = rng.SaveState();
  std::vector<double> expected;
  for (int i = 0; i < 8; ++i) expected.push_back(rng.Gaussian());
  for (int i = 0; i < 8; ++i) expected.push_back(rng.Uniform());

  util::Rng restored(1);  // Different seed; state fully overwritten.
  restored.LoadState(state);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(restored.Gaussian(), expected[i]);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(restored.Uniform(), expected[8 + i]);
  }
}

TEST(AdamStateTest, ExportImportContinuesBitExactly) {
  util::Rng rng(6);
  const nn::Tensor init = nn::Tensor::Randn(3, 3, rng);
  const nn::Tensor grad = nn::Tensor::Randn(3, 3, rng);

  nn::Variable a = nn::Variable::Parameter(init);
  nn::Adam opt_a({a}, 0.01f);
  a.grad() = grad;
  opt_a.Step();
  nn::Adam::State state = opt_a.ExportState();
  a.grad() = grad;
  opt_a.Step();

  // A fresh optimizer resumed from the exported state takes the exact same
  // second step (same moments + bias-correction step count).
  nn::Variable b = nn::Variable::Parameter(init);
  nn::Adam opt_b({b}, 0.5f);  // Different lr: must be overwritten by import.
  ASSERT_TRUE(opt_b.ImportState(state));
  EXPECT_EQ(opt_b.step_count(), 1);
  EXPECT_EQ(opt_b.lr(), 0.01f);
  // Reproduce the post-step-1 parameter value, then step with same grad.
  nn::Variable a2 = nn::Variable::Parameter(init);
  nn::Adam opt_a2({a2}, 0.01f);
  a2.grad() = grad;
  opt_a2.Step();
  b.mutable_value() = a2.value();
  b.grad() = grad;
  opt_b.Step();
  EXPECT_TRUE(b.value().SameAs(a.value()));
}

TEST(AdamStateTest, ImportRejectsShapeMismatch) {
  nn::Variable p = nn::Variable::Parameter(nn::Tensor(2, 2));
  nn::Adam opt({p}, 0.01f);
  nn::Adam::State bad;
  bad.step_count = 1;
  bad.lr = 0.01f;
  bad.m = {nn::Tensor(3, 3)};
  bad.v = {nn::Tensor(3, 3)};
  EXPECT_FALSE(opt.ImportState(bad));
  EXPECT_EQ(opt.step_count(), 0);
}

// ---------------------------------------------------------------------------
// Trainer checkpoint v2: full state round-trip and exact resume.
// ---------------------------------------------------------------------------

TEST(TrainerCheckpointV2Test, ResumeIsBitExactWithUninterruptedRun) {
  FaultInjectorGuard guard;
  const env::EnvConfig env_config = SmallEnvConfig();
  const core::TrainConfig train = SmallTrainConfig();

  // Uninterrupted: 4 iterations straight.
  env::ScEnv env_a(env_config, SmallDataset(), 17);
  core::HiMadrlTrainer a(env_a, train);
  const std::vector<core::IterationStats> stats_a = a.Train(4);

  // Interrupted: 2 iterations, checkpoint, fresh trainer, 2 more.
  const std::string path = TempPath("resume.agsc");
  env::ScEnv env_b(env_config, SmallDataset(), 17);
  core::HiMadrlTrainer b(env_b, train);
  b.Train(2);
  ASSERT_TRUE(b.SaveCheckpoint(path));

  env::ScEnv env_c(env_config, SmallDataset(), 999);  // seed overwritten
  core::HiMadrlTrainer c(env_c, train);
  ASSERT_TRUE(c.LoadCheckpoint(path));
  EXPECT_EQ(c.iteration(), 2);
  EXPECT_EQ(c.total_env_steps(), b.total_env_steps());
  const std::vector<core::IterationStats> stats_c = c.Train(2);

  // The resumed run's diagnostics match iterations 3-4 of the straight run
  // exactly (same rollouts, same gradients, same Adam updates).
  ASSERT_EQ(stats_c.size(), 2u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(stats_c[i].iteration, stats_a[2 + i].iteration);
    EXPECT_EQ(stats_c[i].mean_reward_ext, stats_a[2 + i].mean_reward_ext);
    EXPECT_EQ(stats_c[i].actor_grad_norm, stats_a[2 + i].actor_grad_norm);
    EXPECT_EQ(stats_c[i].value_loss, stats_a[2 + i].value_loss);
    EXPECT_EQ(stats_c[i].total_env_steps, stats_a[2 + i].total_env_steps);
  }
  for (size_t k = 0; k < a.lcfs().size(); ++k) {
    EXPECT_EQ(a.lcfs()[k].phi_deg, c.lcfs()[k].phi_deg);
    EXPECT_EQ(a.lcfs()[k].chi_deg, c.lcfs()[k].chi_deg);
  }

  // Every network parameter is bit-identical.
  const std::vector<nn::Tensor> params_a = ActorSnapshot(a, env_a);
  const std::vector<nn::Tensor> params_c = ActorSnapshot(c, env_c);
  ASSERT_EQ(params_a.size(), params_c.size());
  for (size_t i = 0; i < params_a.size(); ++i) {
    EXPECT_TRUE(params_a[i].SameAs(params_c[i])) << "tensor " << i;
  }
  std::remove(path.c_str());
}

TEST(TrainerCheckpointV2Test, FingerprintMismatchRejectedLoudly) {
  FaultInjectorGuard guard;
  const env::EnvConfig env_config = SmallEnvConfig();
  core::TrainConfig train = SmallTrainConfig();
  env::ScEnv env_a(env_config, SmallDataset(), 1);
  core::HiMadrlTrainer a(env_a, train);
  const std::string path = TempPath("fingerprint.agsc");
  ASSERT_TRUE(a.SaveCheckpoint(path));

  // Different hidden width -> different architecture -> rejected.
  core::TrainConfig other = train;
  other.net.hidden = {24};
  env::ScEnv env_b(env_config, SmallDataset(), 1);
  core::HiMadrlTrainer b(env_b, other);
  EXPECT_NE(a.ArchitectureFingerprint(), b.ArchitectureFingerprint());
  EXPECT_FALSE(b.LoadCheckpoint(path));

  // Different plug-in set -> rejected too.
  core::TrainConfig no_copo = train;
  no_copo.use_copo = false;
  env::ScEnv env_c(env_config, SmallDataset(), 1);
  core::HiMadrlTrainer c(env_c, no_copo);
  EXPECT_FALSE(c.LoadCheckpoint(path));
  std::remove(path.c_str());
}

TEST(TrainerCheckpointV2Test, CorruptedFileRejectedAndTrainerUntouched) {
  FaultInjectorGuard guard;
  const env::EnvConfig env_config = SmallEnvConfig();
  const core::TrainConfig train = SmallTrainConfig();
  env::ScEnv env_a(env_config, SmallDataset(), 21);
  core::HiMadrlTrainer a(env_a, train);
  a.Train(1);

  // Save a corrupted checkpoint via the fault-injection hook: the payload
  // has one byte flipped on its way to disk.
  const std::string path = TempPath("corrupt.agsc");
  util::FaultInjector::Config config;
  config.mutate_write = 1;
  config.flip_byte = 200;
  util::FaultInjector::Instance().set_config(config);
  ASSERT_TRUE(a.SaveCheckpoint(path));
  util::FaultInjector::Instance().Reset();

  env::ScEnv env_b(env_config, SmallDataset(), 21);
  core::HiMadrlTrainer b(env_b, train);
  const std::vector<nn::Tensor> before = ActorSnapshot(b, env_b);
  EXPECT_FALSE(b.LoadCheckpoint(path));
  const std::vector<nn::Tensor> after = ActorSnapshot(b, env_b);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(before[i].SameAs(after[i])) << "tensor " << i;
  }
  std::remove(path.c_str());
}

TEST(TrainerCheckpointV2Test, LegacyV1FilesStillLoad) {
  FaultInjectorGuard guard;
  // Emulate an old v1 checkpoint (params + LCF tensor) and load it through
  // the new LoadCheckpoint dispatch.
  const env::EnvConfig env_config = SmallEnvConfig();
  const core::TrainConfig train = SmallTrainConfig();
  env::ScEnv env_a(env_config, SmallDataset(), 31);
  core::HiMadrlTrainer a(env_a, train);
  a.Train(1);

  // Produce a v1 file from a's current state via the public v2 data: save
  // v2, decode, re-encode as v1 (params section + LCF tensor appended).
  const std::string v2_path = TempPath("legacy_src.agsc");
  ASSERT_TRUE(a.SaveCheckpoint(v2_path));
  nn::Checkpoint ckpt;
  ASSERT_EQ(nn::LoadCheckpointFile(v2_path, ckpt), nn::CheckpointError::kOk);
  const nn::CheckpointSection* params = ckpt.Find("params");
  ASSERT_NE(params, nullptr);
  std::vector<nn::Variable> v1_vars;
  for (const nn::Tensor& t : params->tensors) {
    v1_vars.push_back(nn::Variable::Parameter(t));
  }
  nn::Tensor lcf_tensor(static_cast<int>(a.lcfs().size()), 2);
  for (size_t k = 0; k < a.lcfs().size(); ++k) {
    lcf_tensor(static_cast<int>(k), 0) =
        static_cast<float>(a.lcfs()[k].phi_deg);
    lcf_tensor(static_cast<int>(k), 1) =
        static_cast<float>(a.lcfs()[k].chi_deg);
  }
  v1_vars.push_back(nn::Variable::Parameter(lcf_tensor));
  const std::string v1_path = TempPath("legacy.bin");
  ASSERT_TRUE(nn::SaveParameters(v1_path, v1_vars));

  env::ScEnv env_b(env_config, SmallDataset(), 32);
  core::HiMadrlTrainer b(env_b, train);
  ASSERT_TRUE(b.LoadCheckpoint(v1_path));
  // Policies match exactly after the v1 load.
  const env::StepResult r = env_a.Reset();
  util::Rng act_rng(1);
  for (int k = 0; k < env_a.num_agents(); ++k) {
    const env::UvAction ua = a.Act(env_a, k, r.observations[k], act_rng, true);
    const env::UvAction ub = b.Act(env_a, k, r.observations[k], act_rng, true);
    EXPECT_EQ(ua.raw_direction, ub.raw_direction);
    EXPECT_EQ(ua.raw_speed, ub.raw_speed);
  }
  std::remove(v2_path.c_str());
  std::remove(v1_path.c_str());
}

// ---------------------------------------------------------------------------
// Auto-checkpointing: retention, latest pointer, corruption fallback.
// ---------------------------------------------------------------------------

TEST(AutoCheckpointTest, RetentionAndLatestPointer) {
  FaultInjectorGuard guard;
  const std::string dir = TempPath("auto_ckpt_retention");
  fs::remove_all(dir);
  const env::EnvConfig env_config = SmallEnvConfig();
  core::TrainConfig train = SmallTrainConfig();
  train.checkpoint_dir = dir;
  train.checkpoint_every = 1;
  train.checkpoint_keep = 2;
  env::ScEnv env(env_config, SmallDataset(), 51);
  core::HiMadrlTrainer trainer(env, train);
  trainer.Train(3);

  // Only the newest two checkpoints are retained.
  EXPECT_FALSE(fs::exists(fs::path(dir) / "ckpt_000001.agsc"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "ckpt_000002.agsc"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "ckpt_000003.agsc"));
  std::ifstream latest(fs::path(dir) / "latest");
  std::string latest_name;
  ASSERT_TRUE(static_cast<bool>(std::getline(latest, latest_name)));
  EXPECT_EQ(latest_name, "ckpt_000003.agsc");
  fs::remove_all(dir);
}

TEST(AutoCheckpointTest, FallsBackPastCorruptedNewestCheckpoint) {
  FaultInjectorGuard guard;
  const std::string dir = TempPath("auto_ckpt_fallback");
  fs::remove_all(dir);
  const env::EnvConfig env_config = SmallEnvConfig();
  core::TrainConfig train = SmallTrainConfig();
  train.checkpoint_dir = dir;
  train.checkpoint_every = 1;
  train.checkpoint_keep = 3;
  env::ScEnv env(env_config, SmallDataset(), 52);
  core::HiMadrlTrainer trainer(env, train);
  trainer.Train(3);

  // Corrupt the newest checkpoint on disk (simulating a torn/bit-rotted
  // file that somehow bypassed the atomic write, e.g. disk corruption).
  const std::string newest = (fs::path(dir) / "ckpt_000003.agsc").string();
  {
    std::fstream f(newest,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(f));
    f.seekp(static_cast<std::streamoff>(fs::file_size(newest) / 2));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0xFF);
    f.write(&byte, 1);
  }

  env::ScEnv env_b(env_config, SmallDataset(), 52);
  core::HiMadrlTrainer resumed(env_b, train);
  ASSERT_TRUE(resumed.LoadLatestCheckpoint(dir));
  // The corrupted iteration-3 file was rejected; iteration 2 loaded.
  EXPECT_EQ(resumed.iteration(), 2);
  fs::remove_all(dir);
}

TEST(AutoCheckpointTest, LoadLatestFailsOnEmptyDir) {
  FaultInjectorGuard guard;
  const std::string dir = TempPath("auto_ckpt_empty");
  fs::remove_all(dir);
  fs::create_directories(dir);
  const env::EnvConfig env_config = SmallEnvConfig();
  env::ScEnv env(env_config, SmallDataset(), 53);
  core::HiMadrlTrainer trainer(env, SmallTrainConfig());
  EXPECT_FALSE(trainer.LoadLatestCheckpoint(dir));
  EXPECT_FALSE(trainer.LoadLatestCheckpoint(dir + "_nonexistent"));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Divergence guard.
// ---------------------------------------------------------------------------

TEST(DivergenceGuardTest, InjectedNanLossIsCaughtAndRolledBack) {
  FaultInjectorGuard guard;
  const env::EnvConfig env_config = SmallEnvConfig();
  core::TrainConfig train = SmallTrainConfig();
  train.anomaly_backoff_after = 100;  // No backoff in this test.
  env::ScEnv env(env_config, SmallDataset(), 61);
  core::HiMadrlTrainer trainer(env, train);

  util::FaultInjector::Config config;
  config.nan_loss = 1;  // Poison the first guarded actor loss.
  util::FaultInjector::Instance().set_config(config);
  const core::IterationStats stats = trainer.TrainIteration();
  util::FaultInjector::Instance().Reset();

  EXPECT_GE(stats.anomalies, 1);
  EXPECT_FALSE(stats.lr_backoff);
  // No NaN propagated into the diagnostics or the policy.
  EXPECT_TRUE(std::isfinite(stats.mean_reward_ext));
  EXPECT_TRUE(std::isfinite(stats.actor_grad_norm));
  EXPECT_TRUE(std::isfinite(stats.value_loss));
  const env::StepResult r = env.Reset();
  util::Rng act_rng(2);
  for (int k = 0; k < env.num_agents(); ++k) {
    const env::UvAction action =
        trainer.Act(env, k, r.observations[k], act_rng, true);
    EXPECT_TRUE(std::isfinite(action.raw_direction));
    EXPECT_TRUE(std::isfinite(action.raw_speed));
  }
}

TEST(DivergenceGuardTest, RepeatedAnomaliesTriggerLrBackoff) {
  FaultInjectorGuard guard;
  const env::EnvConfig env_config = SmallEnvConfig();
  core::TrainConfig train = SmallTrainConfig();
  train.anomaly_backoff_after = 2;
  env::ScEnv env(env_config, SmallDataset(), 62);
  core::HiMadrlTrainer trainer(env, train);
  const float lr0 = trainer.config().actor_lr;

  // Poison one loss in each of two consecutive iterations.
  util::FaultInjector::Config config;
  config.nan_loss = 1;
  util::FaultInjector::Instance().set_config(config);
  const core::IterationStats s1 = trainer.TrainIteration();
  util::FaultInjector::Instance().set_config(config);
  const core::IterationStats s2 = trainer.TrainIteration();
  util::FaultInjector::Instance().Reset();

  EXPECT_GE(s1.anomalies, 1);
  EXPECT_FALSE(s1.lr_backoff);
  EXPECT_GE(s2.anomalies, 1);
  EXPECT_TRUE(s2.lr_backoff);
  EXPECT_EQ(trainer.config().actor_lr, lr0 * train.lr_backoff_factor);

  // A clean iteration afterwards reports no anomalies and no backoff.
  const core::IterationStats s3 = trainer.TrainIteration();
  EXPECT_EQ(s3.anomalies, 0);
  EXPECT_FALSE(s3.lr_backoff);
}

TEST(DivergenceGuardTest, GuardCanBeDisabled) {
  FaultInjectorGuard guard;
  const env::EnvConfig env_config = SmallEnvConfig();
  core::TrainConfig train = SmallTrainConfig();
  train.divergence_guard = false;
  env::ScEnv env(env_config, SmallDataset(), 63);
  core::HiMadrlTrainer trainer(env, train);

  // Without the guard the poisoned-loss hook is still called but no
  // anomaly is recorded (the injected NaN only affects the guard check).
  util::FaultInjector::Config config;
  config.nan_loss = 1;
  util::FaultInjector::Instance().set_config(config);
  const core::IterationStats stats = trainer.TrainIteration();
  util::FaultInjector::Instance().Reset();
  EXPECT_EQ(stats.anomalies, 0);
}

// ---------------------------------------------------------------------------
// Satellites: strict numeric parsing + EnvConfig validation.
// ---------------------------------------------------------------------------

TEST(ParseTest, IntAcceptsValidRejectsGarbage) {
  int v = -1;
  EXPECT_TRUE(util::ParseInt("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(util::ParseInt("-7", &v));
  EXPECT_EQ(v, -7);
  v = 123;
  EXPECT_FALSE(util::ParseInt("abc", &v));
  EXPECT_FALSE(util::ParseInt("12abc", &v));
  EXPECT_FALSE(util::ParseInt("", &v));
  EXPECT_FALSE(util::ParseInt("4.5", &v));
  EXPECT_FALSE(util::ParseInt("99999999999999999999", &v));  // Overflow.
  EXPECT_EQ(v, 123);  // Untouched on failure.
}

TEST(ParseTest, IntInRange) {
  int v = 0;
  EXPECT_TRUE(util::ParseIntInRange("5", 1, 10, &v));
  EXPECT_EQ(v, 5);
  EXPECT_FALSE(util::ParseIntInRange("-3", 0, 10, &v));
  EXPECT_FALSE(util::ParseIntInRange("11", 0, 10, &v));
}

TEST(ParseTest, Uint64RejectsNegative) {
  uint64_t v = 0;
  EXPECT_TRUE(util::ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, 18446744073709551615ULL);
  EXPECT_FALSE(util::ParseUint64("-1", &v));
  EXPECT_FALSE(util::ParseUint64("1e3", &v));
}

TEST(ParseTest, DoubleAcceptsValidRejectsGarbage) {
  double v = 0.0;
  EXPECT_TRUE(util::ParseDouble("60.5", &v));
  EXPECT_DOUBLE_EQ(v, 60.5);
  EXPECT_TRUE(util::ParseDouble("-2e3", &v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
  EXPECT_FALSE(util::ParseDouble("sixty", &v));
  EXPECT_FALSE(util::ParseDouble("1.5x", &v));
  EXPECT_FALSE(util::ParseDouble("", &v));
  double r = 0.0;
  EXPECT_TRUE(util::ParseDoubleInRange("0.5", 0.0, 1.0, &r));
  EXPECT_FALSE(util::ParseDoubleInRange("1.5", 0.0, 1.0, &r));
  EXPECT_FALSE(util::ParseDoubleInRange("nan", 0.0, 1.0, &r));
}

TEST(EnvConfigValidateTest, DefaultConfigIsValid) {
  EXPECT_EQ(env::EnvConfig{}.Validate(), "");
}

TEST(EnvConfigValidateTest, RejectsDegenerateConfigs) {
  env::EnvConfig c;
  c.num_timeslots = 0;
  EXPECT_NE(c.Validate(), "");
  c = env::EnvConfig{};
  c.num_pois = 0;
  EXPECT_NE(c.Validate(), "");
  c = env::EnvConfig{};
  c.num_uavs = 0;
  c.num_ugvs = 0;
  EXPECT_NE(c.Validate(), "");
  c = env::EnvConfig{};
  c.num_uavs = -3;
  EXPECT_NE(c.Validate(), "");
  c = env::EnvConfig{};
  c.num_subchannels = 0;
  EXPECT_NE(c.Validate(), "");
  c = env::EnvConfig{};
  c.uav_height = 0.0;
  EXPECT_NE(c.Validate(), "");
  c = env::EnvConfig{};
  c.bandwidth_hz = -1.0;
  EXPECT_NE(c.Validate(), "");
}

TEST(EnvConfigValidateTest, ScEnvConstructorSurfacesValidationError) {
  env::EnvConfig c = SmallEnvConfig();
  c.num_uavs = 0;
  c.num_ugvs = 0;
  EXPECT_THROW(env::ScEnv(c, SmallDataset(), 1), std::invalid_argument);
  c = SmallEnvConfig();
  c.uav_height = -5.0;
  EXPECT_THROW(env::ScEnv(c, SmallDataset(), 1), std::invalid_argument);
}

}  // namespace
}  // namespace agsc
