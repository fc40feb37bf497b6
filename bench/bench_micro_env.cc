// Microbenchmarks of the environment substrate: env step/reset with
// per-phase timings (MoveAgents / CollectData / BuildObservation), channel
// evaluation, road-graph queries (cached/indexed vs naive), the
// PathDistance-heavy UGV stepping path, and the GA tour planner.
//
// main() first runs a naive-vs-indexed self-check: every cached/indexed
// query must be bit-identical to its naive oracle on randomized inputs,
// and a full episode stepped with use_spatial_index on/off must produce
// identical StepResults. The process exits non-zero on any mismatch, so
// the ctest smoke run doubles as a CI equivalence check.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "algorithms/shortest_path.h"
#include "bench/bench_common.h"
#include "core/oracle_guard.h"
#include "env/channel_batch.h"

namespace {

using namespace agsc;

const map::Dataset& Dataset100() {
  return bench::GetDataset(map::CampusId::kPurdue, 100);
}

env::ScEnv MakeEnv(bool indexed, int uavs = -1, int ugvs = -1,
                   bool batch_channel = true) {
  env::EnvConfig config;
  config.use_spatial_index = indexed;
  config.use_channel_batch = batch_channel;
  config.record_event_log = false;
  if (uavs >= 0) config.num_uavs = uavs;
  if (ugvs >= 0) config.num_ugvs = ugvs;
  return env::ScEnv(config, Dataset100(), 1);
}

void RandomActions(util::Rng& rng, std::vector<env::UvAction>& actions) {
  for (env::UvAction& a : actions) {
    a = {rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)};
  }
}

void BM_EnvReset(benchmark::State& state) {
  env::ScEnv env = MakeEnv(true);
  env::StepResult step;
  for (auto _ : state) {
    env.Reset(step);
    benchmark::DoNotOptimize(step.observations[0][0]);
  }
}
BENCHMARK(BM_EnvReset)->Unit(benchmark::kMicrosecond);

void EnvStep(benchmark::State& state, bool indexed) {
  env::ScEnv env = MakeEnv(indexed);
  env::StepResult step;
  env.Reset(step);
  util::Rng rng(2);
  std::vector<env::UvAction> actions(env.num_agents());
  for (auto _ : state) {
    if (env.timeslot() >= env.config().num_timeslots) env.Reset(step);
    RandomActions(rng, actions);
    env.Step(actions, step);
    benchmark::DoNotOptimize(step.rewards[0]);
  }
}
void BM_EnvStep(benchmark::State& state) { EnvStep(state, true); }
void BM_EnvStepNaive(benchmark::State& state) { EnvStep(state, false); }
BENCHMARK(BM_EnvStep)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_EnvStepNaive)->Unit(benchmark::kMicrosecond);

// --- Per-phase timings (through the ScEnvHotPathPeer backdoor). ---

void BM_EnvMoveAgents(benchmark::State& state) {
  env::ScEnv env = MakeEnv(true);
  env.Reset();
  util::Rng rng(3);
  std::vector<env::UvAction> actions(env.num_agents());
  std::vector<double> energy(env.num_agents(), 0.0);
  for (auto _ : state) {
    RandomActions(rng, actions);
    env::ScEnvHotPathPeer::MoveAgents(env, actions, energy);
    benchmark::DoNotOptimize(energy[0]);
  }
}
BENCHMARK(BM_EnvMoveAgents)->Unit(benchmark::kMicrosecond);

void EnvCollectData(benchmark::State& state, bool batch_channel) {
  env::ScEnv env = MakeEnv(true, -1, -1, batch_channel);
  env.Reset();
  std::vector<double> rewards(env.num_agents(), 0.0);
  std::vector<env::CollectionEvent> events;
  int calls = 0;
  for (auto _ : state) {
    // Refresh PoI data periodically so the collection never runs dry.
    if (++calls % 256 == 0) env.Reset();
    std::fill(rewards.begin(), rewards.end(), 0.0);
    env::ScEnvHotPathPeer::CollectData(env, rewards, events);
    benchmark::DoNotOptimize(rewards[0]);
  }
}
void BM_EnvCollectData(benchmark::State& state) {
  EnvCollectData(state, true);
}
void BM_EnvCollectDataScalarChannel(benchmark::State& state) {
  EnvCollectData(state, false);
}
BENCHMARK(BM_EnvCollectData)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_EnvCollectDataScalarChannel)->Unit(benchmark::kMicrosecond);

void BM_EnvBuildObservation(benchmark::State& state) {
  env::ScEnv env = MakeEnv(true);
  env.Reset();
  std::vector<float> obs;
  for (auto _ : state) {
    env.BuildObservation(0, &obs);
    benchmark::DoNotOptimize(obs[0]);
  }
}
BENCHMARK(BM_EnvBuildObservation)->Unit(benchmark::kMicrosecond);

// Observation build against PoI count, batched SoA sweep vs the scalar
// per-PoI path (--env-channel-scalar). The campus trace extractor yields at
// most ~1.1k distinct 60 m cells, so the env-level sweep stops at 1k; the
// 10k point is carried by the kernel-range cases below (BM_ObsVisible*,
// BM_ChannelGains*, BM_ChannelInterference*), which bench the same per-PoI
// math on synthetic layouts.
void EnvObsBuild(benchmark::State& state, bool batch_channel) {
  const int pois = static_cast<int>(state.range(0));
  env::EnvConfig config;
  config.num_pois = pois;
  config.use_channel_batch = batch_channel;
  config.record_event_log = false;
  env::ScEnv env(config, bench::GetDataset(map::CampusId::kPurdue, pois), 1);
  env.Reset();
  std::vector<float> obs;
  for (auto _ : state) {
    env.BuildObservation(0, &obs);
    benchmark::DoNotOptimize(obs[0]);
  }
}
void BM_EnvObsBuildBatch(benchmark::State& state) {
  EnvObsBuild(state, true);
}
void BM_EnvObsBuildScalarChannel(benchmark::State& state) {
  EnvObsBuild(state, false);
}
BENCHMARK(BM_EnvObsBuildBatch)
    ->Arg(100)->Arg(1000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_EnvObsBuildScalarChannel)
    ->Arg(100)->Arg(1000)->Unit(benchmark::kMicrosecond);

// Synthetic PoI layout shared by the kernel-range channel benches.
env::PoiSoa BenchSoa(int n, std::vector<map::Point2>& pts) {
  util::Rng rng(29);
  pts.resize(static_cast<size_t>(n));
  for (map::Point2& p : pts) {
    p = {rng.Uniform(0.0, 2000.0), rng.Uniform(0.0, 2000.0)};
  }
  env::PoiSoa soa;
  soa.Build(pts, n);
  return soa;
}

// The observation-build channel phase in isolation: the per-PoI visibility
// test over the whole PoI set, scalar map::Distance loop vs the vectorized
// VisibleMask kernel, at 100 / 1k / 10k PoIs.
void ObsVisible(benchmark::State& state, bool batch) {
  const int n = static_cast<int>(state.range(0));
  std::vector<map::Point2> pts;
  const env::PoiSoa soa = BenchSoa(n, pts);
  const map::Point2 pos{977.0, 1041.0};
  const double range = 600.0;
  std::vector<double> dist(static_cast<size_t>(n));
  std::vector<uint8_t> vis(static_cast<size_t>(n));
  for (auto _ : state) {
    if (batch) {
      env::VisibleMask(soa, pos, range, dist.data(), vis.data());
    } else {
      for (int i = 0; i < n; ++i) {
        vis[i] = map::Distance(pos, pts[i]) <= range ? 1 : 0;
      }
    }
    benchmark::DoNotOptimize(vis[0]);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
void BM_ObsVisibleScalar(benchmark::State& state) {
  ObsVisible(state, false);
}
void BM_ObsVisibleBatch(benchmark::State& state) { ObsVisible(state, true); }
BENCHMARK(BM_ObsVisibleScalar)
    ->Arg(100)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ObsVisibleBatch)
    ->Arg(100)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

void BM_ChannelAirLinkGain(benchmark::State& state) {
  env::EnvConfig config;
  env::ChannelModel channel(config);
  double x = 0.0;
  for (auto _ : state) {
    x += channel.AirLinkGain({x - std::floor(x), 200.0}, {500.0, 500.0},
                             60.0);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_ChannelAirLinkGain);

// --- Batched channel kernels vs the scalar ChannelModel oracle. ---
//
// The kernel-range cases isolate the CollectData channel phase: computing a
// whole gain vector (one receiver against every PoI) and folding it into an
// interference sum, at 100 / 1k / 10k PoIs. "Scalar" calls
// ChannelModel::AirLinkGain per PoI exactly as the pre-SoA env did; "Batch"
// is the bit-exact SIMD tier; "Fast" the --env-fast-math tier.

enum class GainTier { kScalar, kBatch, kFast };

void ChannelGainVector(benchmark::State& state, GainTier tier) {
  const int n = static_cast<int>(state.range(0));
  env::EnvConfig config;
  const env::ChannelModel model(config);
  const env::ChannelBatchParams params =
      env::ChannelBatchParams::FromConfig(config);
  std::vector<map::Point2> pts;
  const env::PoiSoa soa = BenchSoa(n, pts);
  const map::Point2 rx{977.0, 1041.0};
  std::vector<double> gains(static_cast<size_t>(n));
  for (auto _ : state) {
    switch (tier) {
      case GainTier::kScalar:
        for (int i = 0; i < n; ++i) {
          gains[i] = model.AirLinkGain(pts[i], rx, config.uav_height);
        }
        break;
      case GainTier::kBatch:
        env::AirGainsBatch(params, soa, nullptr, n, rx, config.uav_height,
                           gains.data());
        break;
      case GainTier::kFast:
        env::AirGainsFast(params, soa, nullptr, n, rx, config.uav_height,
                          gains.data());
        break;
    }
    benchmark::DoNotOptimize(gains[0]);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
void BM_ChannelGainsScalar(benchmark::State& state) {
  ChannelGainVector(state, GainTier::kScalar);
}
void BM_ChannelGainsBatch(benchmark::State& state) {
  ChannelGainVector(state, GainTier::kBatch);
}
void BM_ChannelGainsFast(benchmark::State& state) {
  ChannelGainVector(state, GainTier::kFast);
}
BENCHMARK(BM_ChannelGainsScalar)
    ->Arg(100)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ChannelGainsBatch)
    ->Arg(100)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ChannelGainsFast)
    ->Arg(100)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

// The acceptance case: one per-slot interference sum over every
// transmitting PoI — gains plus the ordered accumulation, scalar vs batch.
void ChannelInterference(benchmark::State& state, GainTier tier) {
  const int n = static_cast<int>(state.range(0));
  env::EnvConfig config;
  const env::ChannelModel model(config);
  const env::ChannelBatchParams params =
      env::ChannelBatchParams::FromConfig(config);
  std::vector<map::Point2> pts;
  const env::PoiSoa soa = BenchSoa(n, pts);
  std::vector<int> ids(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) ids[i] = i;
  const map::Point2 rx{977.0, 1041.0};
  std::vector<double> gains(static_cast<size_t>(n));
  for (auto _ : state) {
    double intf = 0.0;
    if (tier == GainTier::kScalar) {
      for (int i = 0; i < n; ++i) {
        if (i == 7) continue;
        intf += model.AirLinkGain(pts[i], rx, config.uav_height) *
                config.rho_poi_w;
      }
    } else {
      (tier == GainTier::kFast ? env::AirGainsFast : env::AirGainsBatch)(
          params, soa, nullptr, n, rx, config.uav_height, gains.data());
      intf = env::InterferencePower(gains.data(), ids.data(), n,
                                    config.rho_poi_w, 7, -1);
    }
    benchmark::DoNotOptimize(intf);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
void BM_ChannelInterferenceScalar(benchmark::State& state) {
  ChannelInterference(state, GainTier::kScalar);
}
void BM_ChannelInterferenceBatch(benchmark::State& state) {
  ChannelInterference(state, GainTier::kBatch);
}
void BM_ChannelInterferenceFast(benchmark::State& state) {
  ChannelInterference(state, GainTier::kFast);
}
BENCHMARK(BM_ChannelInterferenceScalar)
    ->Arg(100)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ChannelInterferenceBatch)
    ->Arg(100)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ChannelInterferenceFast)
    ->Arg(100)->Arg(1000)->Arg(10000)->Unit(benchmark::kMicrosecond);

// --- Road-graph queries: grid/cache vs naive oracle. ---

void RoadProject(benchmark::State& state, bool indexed) {
  const map::RoadGraph& roads = Dataset100().campus.roads;
  roads.EnsureCaches();
  util::Rng rng(3);
  for (auto _ : state) {
    const map::Point2 p{rng.Uniform(0.0, 2000.0), rng.Uniform(0.0, 2000.0)};
    benchmark::DoNotOptimize(
        (indexed ? roads.Project(p) : roads.ProjectNaive(p)).edge);
  }
}
void BM_RoadProject(benchmark::State& state) { RoadProject(state, true); }
void BM_RoadProjectNaive(benchmark::State& state) {
  RoadProject(state, false);
}
BENCHMARK(BM_RoadProject)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RoadProjectNaive)->Unit(benchmark::kMicrosecond);

void RoadPathDistance(benchmark::State& state, bool cached) {
  const map::RoadGraph& roads = Dataset100().campus.roads;
  roads.EnsureCaches();
  util::Rng rng(6);
  for (auto _ : state) {
    const map::RoadPosition a = roads.Project(
        {rng.Uniform(0.0, 2000.0), rng.Uniform(0.0, 2000.0)});
    const map::RoadPosition b = roads.Project(
        {rng.Uniform(0.0, 2000.0), rng.Uniform(0.0, 2000.0)});
    benchmark::DoNotOptimize(cached ? roads.PathDistance(a, b)
                                    : roads.PathDistanceNaive(a, b));
  }
}
void BM_RoadPathDistance(benchmark::State& state) {
  RoadPathDistance(state, true);
}
void BM_RoadPathDistanceNaive(benchmark::State& state) {
  RoadPathDistance(state, false);
}
BENCHMARK(BM_RoadPathDistance)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RoadPathDistanceNaive)->Unit(benchmark::kMicrosecond);

void RoadMoveToward(benchmark::State& state, bool indexed) {
  const map::RoadGraph& roads = Dataset100().campus.roads;
  roads.EnsureCaches();
  util::Rng rng(4);
  map::RoadPosition pos = roads.Project({1000.0, 1000.0});
  for (auto _ : state) {
    const map::Point2 target{rng.Uniform(0.0, 2000.0),
                             rng.Uniform(0.0, 2000.0)};
    pos = indexed ? roads.MoveToward(pos, target, 100.0)
                  : roads.MoveTowardNaive(pos, target, 100.0);
    benchmark::DoNotOptimize(pos.t);
  }
}
void BM_RoadMoveToward(benchmark::State& state) {
  RoadMoveToward(state, true);
}
void BM_RoadMoveTowardNaive(benchmark::State& state) {
  RoadMoveToward(state, false);
}
BENCHMARK(BM_RoadMoveToward)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RoadMoveTowardNaive)->Unit(benchmark::kMicrosecond);

// The acceptance benchmark: a UGV-only fleet, where every step pays for
// road projection + shortest-path routing per vehicle. Naive runs up to
// four Dijkstras plus an O(E) projection per UGV per slot; the cached path
// reduces that to table lookups plus a grid query.
void UgvStepping(benchmark::State& state, bool indexed) {
  env::ScEnv env = MakeEnv(indexed, /*uavs=*/0, /*ugvs=*/4);
  env::StepResult step;
  env.Reset(step);
  util::Rng rng(8);
  std::vector<env::UvAction> actions(env.num_agents());
  for (auto _ : state) {
    if (env.timeslot() >= env.config().num_timeslots) env.Reset(step);
    RandomActions(rng, actions);
    env.Step(actions, step);
    benchmark::DoNotOptimize(step.rewards[0]);
  }
}
void BM_UgvStepping(benchmark::State& state) { UgvStepping(state, true); }
void BM_UgvSteppingNaive(benchmark::State& state) {
  UgvStepping(state, false);
}
BENCHMARK(BM_UgvStepping)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_UgvSteppingNaive)->Unit(benchmark::kMicrosecond);

void BM_GaTourPlanning(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  std::vector<int> points(count);
  for (int i = 0; i < count; ++i) points[i] = i;
  const auto& pois = Dataset100().pois;
  auto dist = [&](int a, int b) {
    return map::Distance(pois[a], pois[b]);
  };
  auto from_start = [&](int a) {
    return map::Distance(Dataset100().campus.spawn, pois[a]);
  };
  algorithms::GaConfig config;
  config.generations = 30;
  util::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        algorithms::GaTour(points, dist, from_start, config, rng).front());
  }
}
BENCHMARK(BM_GaTourPlanning)->Arg(25)->Arg(50)->Unit(benchmark::kMillisecond);

// --- Naive-vs-indexed equivalence self-check (run before benchmarks). ---

bool RoadPositionsEqual(const map::RoadPosition& a,
                        const map::RoadPosition& b) {
  return a.edge == b.edge && a.t == b.t;
}

bool RoadSelfCheck() {
  const map::RoadGraph& roads = Dataset100().campus.roads;
  util::Rng rng(17);
  for (int it = 0; it < 200; ++it) {
    const map::Point2 p{rng.Uniform(-200.0, 2200.0),
                        rng.Uniform(-200.0, 2200.0)};
    const map::Point2 q{rng.Uniform(-200.0, 2200.0),
                        rng.Uniform(-200.0, 2200.0)};
    if (!RoadPositionsEqual(roads.Project(p), roads.ProjectNaive(p))) {
      std::fprintf(stderr, "self-check FAILED: Project mismatch\n");
      return false;
    }
    const map::RoadPosition a = roads.Project(p);
    const map::RoadPosition b = roads.Project(q);
    if (roads.PathDistance(a, b) != roads.PathDistanceNaive(a, b)) {
      std::fprintf(stderr, "self-check FAILED: PathDistance mismatch\n");
      return false;
    }
    const double budget = rng.Uniform(0.0, 400.0);
    double moved_fast = 0.0, moved_naive = 0.0;
    const map::RoadPosition mf = roads.MoveAlong(a, b, budget, &moved_fast);
    const map::RoadPosition mn =
        roads.MoveAlongNaive(a, b, budget, &moved_naive);
    if (!RoadPositionsEqual(mf, mn) || moved_fast != moved_naive) {
      std::fprintf(stderr, "self-check FAILED: MoveAlong mismatch\n");
      return false;
    }
  }
  return true;
}

// A whole 40-slot episode on the default fast paths, lock-stepped by the
// trainer's oracle check against the reference paths of `downgrade`.
bool EpisodeSelfCheck(core::Fallbacks downgrade, uint64_t seed) {
  env::EnvConfig config;
  config.num_timeslots = 40;
  const env::ScEnv env(config, Dataset100(), seed);
  const core::OracleCheckResult check =
      core::LockStepEnvCheck(env, downgrade, config.num_timeslots);
  if (!check.ok) {
    std::fprintf(stderr, "self-check FAILED: fallback %u episode: %s\n",
                 downgrade, check.detail.c_str());
  }
  return check.ok;
}

// Batched-channel equivalence: the SIMD kernels must be bit-identical to
// the scalar ChannelModel per link, and a full episode stepped with
// use_channel_batch on/off must produce identical StepResults.
bool ChannelSelfCheck() {
  env::EnvConfig config;
  const env::ChannelModel model(config);
  const env::ChannelBatchParams params =
      env::ChannelBatchParams::FromConfig(config);
  std::vector<map::Point2> pts;
  const env::PoiSoa soa = BenchSoa(512, pts);
  std::vector<double> gains(pts.size());
  const map::Point2 rx{400.0, 1600.0};
  env::AirGainsBatch(params, soa, nullptr, 512, rx, config.uav_height,
                     gains.data());
  for (int i = 0; i < 512; ++i) {
    if (gains[i] != model.AirLinkGain(pts[i], rx, config.uav_height)) {
      std::fprintf(stderr, "self-check FAILED: air gain %d mismatch\n", i);
      return false;
    }
  }
  env::GroundGainsBatch(params, soa, nullptr, 512, rx, 1.2, gains.data());
  for (int i = 0; i < 512; ++i) {
    if (gains[i] != model.GroundLinkGain(pts[i], rx, 1.2)) {
      std::fprintf(stderr, "self-check FAILED: ground gain %d mismatch\n", i);
      return false;
    }
  }

  return EpisodeSelfCheck(core::kFallbackChannel, 13);
}

}  // namespace

int main(int argc, char** argv) {
  if (!RoadSelfCheck() || !EpisodeSelfCheck(core::kFallbackSpatialIndex, 11) ||
      !ChannelSelfCheck()) {
    return 1;
  }
  std::fprintf(stderr,
               "naive-vs-indexed + batched-channel self-check OK\n");
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
