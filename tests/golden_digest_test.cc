// Golden checkpoint digests. Each case trains a fixed-seed configuration the
// way `agsc_train --seed 5 --eval 0 --save F` does and compares the CRC-32 of
// the saved checkpoint against a committed table, so any change to the
// numerics of sampling, the optimize phase or nn/ fails here instead of
// waiting for a hand-run cmp against the parent commit.
//
// The bytes depend on the compiler and on the libm that the remaining
// std::exp/std::log calls reach, so the table is keyed by
// util::BuildInfoString() plus the glibc version. Sanitizers do not change
// float results, so the key leaves out the sanitize= field and ASan/UBSan
// and TSan builds check the same table. On any other key the cases skip
// and print the key. The GEMM ISA tier is not part of the key: every
// tier computes identical bits (nn_kernel_test). A change that means to move
// the numerics regenerates the table and says why.

#include <gnu/libc-version.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "core/hi_madrl.h"
#include "map/campus.h"
#include "util/build_info.h"
#include "util/ipc.h"

namespace agsc::core {
namespace {

struct DigestCase {
  const char* name;
  int timeslots;
  int pois;
  int iterations;
  void (*configure)(TrainConfig&);
};

void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.name; }

// The verify skill's in-process agsc_train modes at T = 20, I = 30, the
// three TrainConfig variants the CLI cannot set, and one iteration at the
// train_w1 benchmark's T = I = 100.
const DigestCase kCases[] = {
    {"Default", 20, 30, 2, [](TrainConfig&) {}},
    {"NumWorkers3", 20, 30, 2, [](TrainConfig& c) { c.num_workers = 3; }},
    {"Mappo", 20, 30, 2, [](TrainConfig& c) { c.base = BaseAlgo::kMappo; }},
    {"PlainCopo", 20, 30, 2, [](TrainConfig& c) { c.hetero_copo = false; }},
    {"NoCopo", 20, 30, 2, [](TrainConfig& c) { c.use_copo = false; }},
    {"ShareParams", 20, 30, 2, [](TrainConfig& c) { c.share_params = true; }},
    {"CentralizedCritic", 20, 30, 2,
     [](TrainConfig& c) { c.centralized_critic = true; }},
    {"Gae", 20, 30, 2, [](TrainConfig& c) { c.gae_lambda = 0.95f; }},
    {"TrainW1Scale", 100, 100, 1, [](TrainConfig&) {}},
};

struct Digest {
  const char* key;
  const char* name;
  std::uint32_t crc;
};

constexpr const char* kGcc12Glibc236 =
    "compiler=gcc-12.2.0 build=RelWithDebInfo std=202002 glibc=2.36";

const Digest kDigests[] = {
    {kGcc12Glibc236, "Default", 0xad97422du},
    {kGcc12Glibc236, "NumWorkers3", 0x1adb9ed8u},
    {kGcc12Glibc236, "Mappo", 0x62815f7eu},
    {kGcc12Glibc236, "PlainCopo", 0x041f368cu},
    {kGcc12Glibc236, "NoCopo", 0x43e86fefu},
    {kGcc12Glibc236, "ShareParams", 0x544fa72du},
    {kGcc12Glibc236, "CentralizedCritic", 0x902e7094u},
    {kGcc12Glibc236, "Gae", 0x6820dcd4u},
    {kGcc12Glibc236, "TrainW1Scale", 0xb910adb1u},
};

std::string Key() {
  std::string build = util::BuildInfoString();
  const size_t at = build.find(" sanitize=");
  if (at != std::string::npos) build.erase(at, build.find(' ', at + 1) - at);
  return build + " glibc=" + gnu_get_libc_version();
}

/// The saved checkpoint's bytes after training `c` as agsc_train would.
std::string TrainAndSave(const DigestCase& c) {
  constexpr std::uint64_t kSeed = 5;
  const map::Dataset dataset =
      map::BuildDataset(map::CampusId::kPurdue, c.pois);
  env::EnvConfig env_config;
  env_config.num_timeslots = c.timeslots;
  env_config.num_pois = c.pois;
  env_config.record_event_log = false;
  env::ScEnv env(env_config, dataset, kSeed);
  TrainConfig train;
  train.iterations = c.iterations;
  train.seed = kSeed;
  train.verbose = false;
  c.configure(train);
  HiMadrlTrainer trainer(env, train);
  trainer.TrainTo(c.iterations);
  const std::string path = ::testing::TempDir() + "/p" +
                           std::to_string(::getpid()) + "_digest_" + c.name +
                           ".agsc";
  EXPECT_TRUE(trainer.SaveCheckpoint(path));
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

class GoldenDigestTest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(GoldenDigestTest, CheckpointCrcMatchesTable) {
  const DigestCase& c = GetParam();
  const std::string key = Key();
  bool key_known = false;
  const Digest* expected = nullptr;
  for (const Digest& d : kDigests) {
    if (key != d.key) continue;
    key_known = true;
    if (std::string(d.name) == c.name) expected = &d;
  }
  if (!key_known) {
    GTEST_SKIP() << "no digests recorded for '" << key << "'";
  }
  const std::string bytes = TrainAndSave(c);
  ASSERT_GT(bytes.size(), 4u);
  // A checkpoint ends with the CRC-32 of everything before it, and a CRC-32
  // over a message plus its own CRC is a constant. So digest the payload.
  const std::uint32_t crc = util::Crc32(bytes.data(), bytes.size() - 4);
  char hex[16];
  std::snprintf(hex, sizeof(hex), "0x%08xu", crc);
  ASSERT_NE(expected, nullptr)
      << "no digest recorded for " << c.name << "; this build gives {\""
      << c.name << "\", " << hex << "}";
  EXPECT_EQ(crc, expected->crc)
      << c.name << " checkpoint (" << bytes.size() << " bytes) has CRC-32 "
      << hex;
}

INSTANTIATE_TEST_SUITE_P(
    Configs, GoldenDigestTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace agsc::core
