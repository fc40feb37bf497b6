// Mutation fuzz sweep over the core/worker_protocol payload decoders. Each
// payload starts as a real encoding: Init of agsc_train's default config,
// Register, Hello, an EpisodePrefix that replays three slots, one slot's
// Actions, and StepResults of a real 1000-PoI environment (the 60 KB
// payloads a rollout worker sends every slot). Each is cut at every
// offset, bit-flipped (every bit of its first 256 bytes, then seeded bits
// anywhere), and has each length prefix inflated up to and past the bytes
// that remain. A Decode* must return false, or return a value that
// re-encodes to exactly the mutated bytes: it never throws, and it never
// reads past the payload, which the ASan/UBSan build (with
// -D_GLIBCXX_ASSERTIONS) checks on every mutant. Nor does it size a
// container by a count the bytes cannot hold: this binary replaces
// operator new to record the largest single allocation of each mutant's
// round trip. The Init payload's bytes are also pinned, for the default
// config and for one whose every field differs from its default and from
// the other fields of its type.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/oracle_guard.h"
#include "core/worker_protocol.h"
#include "env/config.h"
#include "env/sc_env.h"
#include "map/campus.h"
#include "tests/crc_reference.h"
#include "util/rng.h"

namespace {

std::atomic<size_t> g_largest_allocation{0};

void* Allocate(size_t n) {
  size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (n > seen && !g_largest_allocation.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(size_t n) { return Allocate(n); }
void* operator new[](size_t n) { return Allocate(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace agsc::core {
namespace {

// The largest container a decoder may size, per payload byte: a replay
// step is a 24-byte WorkerActions that encodes in at least 4 bytes. The
// slack covers the re-encoding of a short accepted payload.
constexpr size_t kAllocationPerPayloadByte = 6;
constexpr size_t kAllocationSlack = 64;

/// A length or count field inside an encoding: `width` bytes at `at`,
/// counting elements of `elem` bytes each (1 where an element is itself a
/// variable-length record).
struct LengthField {
  size_t at;
  size_t width;
  size_t elem;
};

/// Decodes bytes; on success stores the value's re-encoding in `again`.
using RoundTrip = std::function<bool(const std::string&, std::string&)>;

struct Codec {
  std::string name;
  std::string encoded;
  std::vector<LengthField> lengths;
  RoundTrip round_trip;
};

template <typename T>
RoundTrip MakeRoundTrip(bool (*decode)(const std::string&, T&),
                        std::string (*encode)(const T&)) {
  return [decode, encode](const std::string& bytes, std::string& again) {
    T value;
    if (!decode(bytes, value)) return false;
    again = encode(value);
    return true;
  };
}

/// Runs one mutant; returns whether the decoder accepted it.
bool CheckMutant(const Codec& codec, const std::string& bytes,
                 const std::string& what) {
  std::string again;
  bool accepted = false;
  g_largest_allocation.store(0);
  try {
    accepted = codec.round_trip(bytes, again);
  } catch (const std::exception& e) {
    ADD_FAILURE() << codec.name << " " << what << ": threw " << e.what();
    return false;
  }
  EXPECT_LE(g_largest_allocation.load(),
            kAllocationPerPayloadByte * bytes.size() + kAllocationSlack)
      << codec.name << " " << what << ": " << bytes.size() << " bytes";
  // Compared as a bool: a failure must not print two 60 KB strings.
  if (accepted) {
    EXPECT_TRUE(again == bytes)
        << codec.name << " " << what << ": accepted " << bytes.size()
        << " bytes that re-encode to " << again.size() << " different bytes";
  }
  return accepted;
}

std::array<float, 2> RandomAction(util::Rng& rng) {
  return {static_cast<float>(rng.Uniform() * 2.0 - 1.0),
          static_cast<float>(rng.Uniform())};
}

WorkerActions RandomActions(util::Rng& rng, int agents) {
  WorkerActions actions;
  for (int k = 0; k < agents; ++k) {
    actions.per_agent.push_back(RandomAction(rng));
  }
  return actions;
}

/// The worker's packaging of one Reset/Step (agsc_worker's BuildResult).
WorkerStepResult ToWire(env::ScEnv& env, const env::StepResult& step,
                        bool is_reset) {
  WorkerStepResult result;
  result.is_reset = is_reset;
  result.done = step.done;
  result.observations = step.observations;
  result.state = step.state;
  if (!is_reset) {
    result.rewards = step.rewards;
    for (int k = 0; k < env.num_agents(); ++k) {
      const std::vector<int> he = env.HeterogeneousNeighbors(k);
      const std::vector<int> ho = env.HomogeneousNeighbors(k);
      result.he_neighbors.emplace_back(he.begin(), he.end());
      result.ho_neighbors.emplace_back(ho.begin(), ho.end());
    }
    if (step.done) result.metrics = env.EpisodeMetrics();
  }
  result.rng_state = env.rng().SaveState();
  return result;
}

std::vector<LengthField> StepResultLengths(const WorkerStepResult& r) {
  std::vector<LengthField> fields;
  size_t at = 8;  // kind, done
  fields.push_back({at, 4, 1});
  at += 4;
  const auto vec = [&](size_t n, size_t elem) {
    fields.push_back({at, 8, elem});
    at += 8 + n * elem;
  };
  for (const std::vector<float>& obs : r.observations) vec(obs.size(), 4);
  vec(r.state.size(), 4);
  vec(r.rewards.size(), 8);
  for (const auto* lists : {&r.he_neighbors, &r.ho_neighbors}) {
    fields.push_back({at, 4, 1});
    at += 4;
    for (const std::vector<int32_t>& list : *lists) vec(list.size(), 4);
  }
  return fields;
}

std::vector<Codec> RealEncodings() {
  std::vector<Codec> codecs;
  util::Rng rng(31);

  WorkerInit init;
  init.campus = map::CampusId::kNcsu;
  init.config.num_pois = 1000;
  codecs.push_back({"Init", EncodeWorkerInit(init), {},
                    MakeRoundTrip(&DecodeWorkerInit, &EncodeWorkerInit)});

  WorkerRegister reg;
  reg.worker_id = 3;
  reg.connect_seq = 2;
  codecs.push_back(
      {"Register", EncodeWorkerRegister(reg), {},
       MakeRoundTrip(&DecodeWorkerRegister, &EncodeWorkerRegister)});

  WorkerHello hello;
  hello.worker_id = 3;
  hello.num_agents = 4;
  hello.obs_dim = 3012;
  hello.state_dim = 3012;
  codecs.push_back({"Hello", EncodeWorkerHello(hello), {},
                    MakeRoundTrip(&DecodeWorkerHello, &EncodeWorkerHello)});

  EpisodePrefix prefix;
  prefix.flags = kAllFallbacks;
  for (uint64_t& word : prefix.rng_state) word = rng.NextU64();
  std::vector<LengthField> prefix_lengths;
  size_t at = 4 + 8 * util::Rng::kStateWords;
  prefix_lengths.push_back({at, 4, 1});
  at += 4;
  for (int step = 0; step < 3; ++step) {
    prefix.replay.push_back(RandomActions(rng, 4));
    prefix_lengths.push_back({at, 4, 8});
    at += 4 + 8 * 4;
  }
  codecs.push_back(
      {"EpisodePrefix", EncodeEpisodePrefix(prefix), prefix_lengths,
       MakeRoundTrip(&DecodeEpisodePrefix, &EncodeEpisodePrefix)});

  const WorkerActions actions = RandomActions(rng, 4);
  codecs.push_back(
      {"Actions", EncodeWorkerActions(actions), {{0, 4, 8}},
       MakeRoundTrip(&DecodeWorkerActions, &EncodeWorkerActions)});

  // A two-slot episode at 1000 PoIs: a mid-episode step result (what every
  // rollout slot sends) and the last one, which carries the metrics.
  env::EnvConfig config;
  config.num_timeslots = 2;
  config.num_pois = 1000;
  env::ScEnv env(config, map::BuildDataset(map::CampusId::kPurdue, 1000), 7);
  env.Reset();
  for (const char* name : {"StepResult", "StepResult(done)"}) {
    std::vector<env::UvAction> uv;
    for (int k = 0; k < env.num_agents(); ++k) {
      const std::array<float, 2> a = RandomAction(rng);
      uv.push_back({a[0], a[1]});
    }
    const env::StepResult step = env.Step(uv);
    const WorkerStepResult result = ToWire(env, step, /*is_reset=*/false);
    EXPECT_EQ(result.done, std::string(name) == "StepResult(done)");
    codecs.push_back(
        {name, EncodeWorkerStepResult(result), StepResultLengths(result),
         MakeRoundTrip(&DecodeWorkerStepResult, &EncodeWorkerStepResult)});
  }
  return codecs;
}

const std::vector<Codec>& Codecs() {
  static const std::vector<Codec> codecs = RealEncodings();
  return codecs;
}

TEST(WorkerProtocolFuzzTest, RealEncodingsRoundTrip) {
  for (const Codec& codec : Codecs()) {
    EXPECT_TRUE(CheckMutant(codec, codec.encoded, "unmutated"))
        << codec.name;
  }
  // The rollout payload at 1000 PoIs: four 3012-float observations and the
  // 3012-float state, about 60 KB as perfbench's rollout_proc4_poi1k sends.
  const auto step = std::find_if(
      Codecs().begin(), Codecs().end(),
      [](const Codec& codec) { return codec.name == "StepResult"; });
  ASSERT_NE(step, Codecs().end());
  WorkerStepResult result;
  ASSERT_TRUE(DecodeWorkerStepResult(step->encoded, result));
  ASSERT_EQ(result.observations.size(), 4u);
  for (const std::vector<float>& obs : result.observations) {
    EXPECT_EQ(obs.size(), 3012u);
  }
  EXPECT_EQ(result.state.size(), 3012u);
  EXPECT_GT(step->encoded.size(), 60000u);
}

TEST(WorkerProtocolFuzzTest, TruncationAtEveryOffsetIsRejected) {
  for (const Codec& codec : Codecs()) {
    for (size_t cut = 0; cut < codec.encoded.size(); ++cut) {
      // Every payload ends in a fixed-width field its decoder needs.
      EXPECT_FALSE(CheckMutant(codec, codec.encoded.substr(0, cut),
                               "cut at " + std::to_string(cut)))
          << codec.name << " accepted a cut at " << cut;
    }
  }
}

TEST(WorkerProtocolFuzzTest, BitFlipsRejectOrRoundTrip) {
  util::Rng rng(32);
  for (const Codec& codec : Codecs()) {
    const size_t bits = codec.encoded.size() * 8;
    std::vector<size_t> flips;
    for (size_t bit = 0; bit < std::min<size_t>(bits, 256 * 8); ++bit) {
      flips.push_back(bit);
    }
    for (int i = 0; i < 2048; ++i) flips.push_back(rng.UniformInt(bits));
    for (size_t bit : flips) {
      std::string bytes = codec.encoded;
      bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
      CheckMutant(codec, bytes, "bit " + std::to_string(bit));
    }
    // Two and three bits at once, anywhere.
    for (int i = 0; i < 512; ++i) {
      std::string bytes = codec.encoded;
      const int count = 2 + static_cast<int>(rng.UniformInt(uint64_t{2}));
      for (int j = 0; j < count; ++j) {
        const size_t bit = rng.UniformInt(bits);
        bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
      }
      CheckMutant(codec, bytes, "multi-bit mutant " + std::to_string(i));
    }
  }
}

TEST(WorkerProtocolFuzzTest, PrefixFlagsOutsideTheFallbackSetAreRejected) {
  // Like WireReader::Bool, the decoder refuses values it has no meaning
  // for instead of leaving the worker to ignore them.
  EpisodePrefix prefix;
  EpisodePrefix out;
  for (int bit = 0; bit < 32; ++bit) {
    prefix.flags = 1u << bit;
    EXPECT_EQ(DecodeEpisodePrefix(EncodeEpisodePrefix(prefix), out),
              (prefix.flags & kAllFallbacks) != 0)
        << "bit " << bit;
    prefix.flags |= kFallbackChannel;
    EXPECT_EQ(DecodeEpisodePrefix(EncodeEpisodePrefix(prefix), out),
              (prefix.flags & ~kAllFallbacks) == 0)
        << "bit " << bit << " beside the channel bit";
  }
}

TEST(WorkerProtocolFuzzTest, InflatedLengthPrefixesRejectOrRoundTrip) {
  for (const Codec& codec : Codecs()) {
    for (const LengthField& field : codec.lengths) {
      ASSERT_LE(field.at + field.width, codec.encoded.size()) << codec.name;
      uint64_t original = 0;
      std::memcpy(&original, codec.encoded.data() + field.at, field.width);
      const uint64_t remaining =
          codec.encoded.size() - field.at - field.width;
      const uint64_t max = field.width == 4 ? 0xFFFFFFFFull : ~0ull;
      const uint64_t fits = remaining / field.elem;
      for (const uint64_t value :
           {original + 1, original + 2, original + 16, fits, fits + 1,
            remaining, remaining + 1, uint64_t{1} << 16,
            (uint64_t{1} << 16) + 1, uint64_t{1} << 20,
            (uint64_t{1} << 20) + 1, uint64_t{0x7FFFFFFF},
            uint64_t{0xFFFFFFFF}, uint64_t{1} << 32, max / field.elem + 1,
            max}) {
        // Inflations only, and only values the field can hold.
        if (value <= original || value > max) continue;
        std::string bytes = codec.encoded;
        std::memcpy(&bytes[field.at], &value, field.width);
        const std::string what = "length at " + std::to_string(field.at) +
                                 " = " + std::to_string(value);
        const bool accepted = CheckMutant(codec, bytes, what);
        // Past the remaining bytes the elements cannot all be there.
        if (value > fits) {
          EXPECT_FALSE(accepted) << codec.name << " accepted " << what;
        }
      }
    }
  }
}

// Every EnvConfig field. The test's own list: the Init codecs' field list
// sets the wire order, and a reordered, dropped or retyped field there
// changes the pinned lengths and CRC-32s below.
#define AGSC_ENV_CONFIG_FIELDS(X)                                          \
  X(num_timeslots) X(tau_move) X(tau_coll) X(num_pois) X(initial_data_gbit) \
  X(num_uavs) X(num_ugvs) X(uav_vmax) X(ugv_vmax) X(uav_height)             \
  X(uav_energy_kj) X(ugv_energy_kj) X(uav_idle_power_w) X(uav_move_power_w) \
  X(ugv_idle_power_w) X(ugv_move_power_w) X(num_subchannels)               \
  X(bandwidth_hz) X(noise_psd) X(alpha1) X(alpha2) X(eta_los_db)            \
  X(eta_nlos_db) X(omega_los) X(beta_los) X(rho_uav_w) X(rho_poi_w)         \
  X(sinr_threshold_db) X(throughput_factor) X(medium_access)                \
  X(rayleigh_mean_gain) X(rayleigh_fading) X(omega_coll) X(omega_move)      \
  X(observe_range_fraction) X(neighbor_range_fraction) X(record_event_log)  \
  X(use_spatial_index) X(use_channel_batch) X(env_fast_math)

// The k-th field's value in DistinctInit: unequal to its default and to
// every other field of its type, so two swapped fields cannot round-trip.
void SetDistinct(int& v, int k) { v = 1000 + k; }
void SetDistinct(double& v, int k) { v = 1000.25 + k; }
void SetDistinct(bool& v, int) { v = !v; }
void SetDistinct(env::MediumAccess& v, int) { v = env::MediumAccess::kTdma; }

WorkerInit DistinctInit() {
  WorkerInit init;
  init.campus = map::CampusId::kNcsu;
  int k = 0;
#define AGSC_SET_DISTINCT(field) SetDistinct(init.config.field, k++);
  AGSC_ENV_CONFIG_FIELDS(AGSC_SET_DISTINCT)
#undef AGSC_SET_DISTINCT
  return init;
}

uint32_t PayloadCrc(const std::string& payload) {
  return testing::BytewiseCrc32(payload.data(), payload.size());
}

TEST(WorkerProtocolInitTest, PayloadBytesArePinned) {
  const std::string defaults = EncodeWorkerInit(WorkerInit{});
  const std::string distinct = EncodeWorkerInit(DistinctInit());
  // Version and campus words, 5 I32 and 29 F64 fields, the medium and
  // 5 Bool words. The CRC-32s cover the version word, so they move with
  // kWorkerProtocolVersion (4 here) as well as with the field list.
  EXPECT_EQ(defaults.size(), 284u);
  EXPECT_EQ(PayloadCrc(defaults), 0x5AD620D5u);
  EXPECT_EQ(distinct.size(), 284u);
  EXPECT_EQ(PayloadCrc(distinct), 0xC04A084Au);
}

TEST(WorkerProtocolInitTest, EveryFieldRoundTrips) {
  const WorkerInit sent = DistinctInit();
  WorkerInit got;
  ASSERT_TRUE(DecodeWorkerInit(EncodeWorkerInit(sent), got));
  EXPECT_EQ(got.campus, sent.campus);
#define AGSC_EXPECT_FIELD(field) \
  EXPECT_EQ(got.config.field, sent.config.field) << #field;
  AGSC_ENV_CONFIG_FIELDS(AGSC_EXPECT_FIELD)
#undef AGSC_EXPECT_FIELD
}

}  // namespace
}  // namespace agsc::core
