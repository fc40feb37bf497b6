// Sampling-throughput harness for the in-process rollout sampler: measures
// env-steps/s of HiMadrlTrainer::CollectRollouts for worker counts
// {1, 2, 4, 8}, with the agents' actor forwards forced onto the calling
// thread and forced into optimize-pool lanes (core::internal::
// SetForwardPlacement), and reports which side the trainer's size rule
// picks and the rule's speedup over one worker.
//
// Progress and a human-readable table go to stderr; stdout is exactly one
// JSON object (date, build, scale, env, the actor's first-layer bytes, host
// core count and one row per worker count). BENCH_rollout.json holds two of
// them, the smoke scale and the 1000-PoI scale where the forwards run in
// lanes, and is regenerated with
//
//   ( echo '['; ./build/bench/bench_rollout_throughput; echo ','
//     export AGSC_BENCH_POIS=1000 AGSC_BENCH_TIMESLOTS=100
//     ./build/bench/bench_rollout_throughput; echo ']' ) > BENCH_rollout.json
//
// Worker counts above the host's core count cannot speed anything up —
// the harness still runs them (the determinism contract must hold at any
// W) and records the host concurrency so single-core numbers are not
// mistaken for a scaling regression. perfbench's rollout_proc4_poi1k times
// the subprocess transport end to end; this harness keeps the in-process
// worker-count and placement sweep, which perfbench does not run.
//
//   AGSC_BENCH_SCALE=paper   larger episode budget per measurement
//   AGSC_BENCH_TIMESLOTS, AGSC_BENCH_POIS   override the env scale

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/hi_madrl.h"
#include "env/sc_env.h"
#include "map/campus.h"
#include "nn/tensor.h"
#include "util/build_info.h"
#include "util/table.h"

namespace agsc {
namespace {

constexpr int kCollects = 5;

using core::internal::ForwardPlacement;

/// One placement at one worker count.
struct Timing {
  double seconds = 0.0;  ///< Median collect time.
  double steps_per_sec = 0.0;
};

struct Result {
  int num_workers = 1;
  long env_steps = 0;  ///< Per collect.
  Timing caller;       ///< Forwards one after another on the caller.
  Timing lanes;        ///< Forwards as optimize-pool lanes.
  bool rule_lanes = false;  ///< The size rule picks lanes.
  size_t first_layer_bytes = 0;  ///< What the rule reads.
  const Timing& rule() const { return rule_lanes ? lanes : caller; }
};

/// Times collects with the forwards at `placement`; records in `r` which
/// side the rule picks and what it reads.
Timing MeasureCollect(const bench::Settings& settings, int num_workers,
                      int episodes, ForwardPlacement placement, Result& r) {
  const map::Dataset& dataset =
      bench::GetDataset(map::CampusId::kPurdue, settings.num_pois);
  env::EnvConfig env_config = bench::BaseEnvConfig(settings);
  env::ScEnv env(env_config, dataset, /*seed=*/1);

  core::TrainConfig train = bench::BaseTrainConfig(settings, /*seed=*/1);
  train.episodes_per_iteration = episodes;
  train.num_workers = num_workers;
  core::HiMadrlTrainer trainer(env, train);
  r.rule_lanes = trainer.CollectForwardsInLanes();
  r.first_layer_bytes = trainer.ActorFirstLayerBytes();
  core::internal::SetForwardPlacement(placement);

  // Warm-up round (first collection touches cold caches), then the median
  // of kCollects measured collections: one collection takes tens of ms at
  // smoke scale, too short to read alone on a shared host.
  trainer.CollectRollouts();
  std::vector<double> seconds;
  for (int i = 0; i < kCollects; ++i) {
    const auto start = std::chrono::steady_clock::now();
    trainer.CollectRollouts();
    seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  core::internal::SetForwardPlacement(ForwardPlacement::kBySize);
  std::sort(seconds.begin(), seconds.end());

  const long env_steps = static_cast<long>(episodes) *
                         env_config.num_timeslots * env.num_agents();
  r.env_steps = env_steps;
  Timing t;
  t.seconds = seconds[seconds.size() / 2];
  t.steps_per_sec = t.seconds > 0 ? env_steps / t.seconds : 0.0;
  return t;
}

Result MeasureWorkers(const bench::Settings& settings, int num_workers,
                      int episodes) {
  Result r;
  r.num_workers = num_workers;
  r.caller = MeasureCollect(settings, num_workers, episodes,
                            ForwardPlacement::kCaller, r);
  r.lanes = MeasureCollect(settings, num_workers, episodes,
                           ForwardPlacement::kLanes, r);
  return r;
}

}  // namespace
}  // namespace agsc

int main() {
  using namespace agsc;
  const bench::Settings settings = bench::Settings::FromEnv();
  const env::EnvConfig env_config = bench::BaseEnvConfig(settings);
  const unsigned cores = std::thread::hardware_concurrency();
  const int episodes = settings.paper ? 64 : 16;

  std::vector<Result> results;
  for (const int workers : {1, 2, 4, 8}) {
    std::cerr << "  measuring num_workers=" << workers << "...\n";
    results.push_back(MeasureWorkers(settings, workers, episodes));
  }
  const double base_sps = results.front().rule().steps_per_sec;
  const auto speedup = [base_sps](const Result& r) {
    return base_sps > 0 ? r.rule().steps_per_sec / base_sps : 0.0;
  };
  const auto lanes_vs_caller = [](const Result& r) {
    return r.caller.steps_per_sec > 0
               ? r.lanes.steps_per_sec / r.caller.steps_per_sec
               : 0.0;
  };
  const char* rule_name = results.front().rule_lanes ? "lanes" : "caller";

  util::Table table({"num_workers", "env_steps", "caller steps/s",
                     "lanes steps/s", "lanes/caller", "rule",
                     "rule speedup_vs_w1"});
  for (const Result& r : results) {
    table.AddRow({std::to_string(r.num_workers), std::to_string(r.env_steps),
                  util::FormatDouble(r.caller.steps_per_sec, 1),
                  util::FormatDouble(r.lanes.steps_per_sec, 1),
                  util::FormatDouble(lanes_vs_caller(r), 3),
                  r.rule_lanes ? "lanes" : "caller",
                  util::FormatDouble(speedup(r), 3)});
  }
  std::cerr << "Rollout sampling throughput (env-steps/s), host hardware "
               "concurrency "
            << cores << "\n"
            << table.ToString();

  std::cout << "{\n"
            << "  \"bench\": \"bench_rollout_throughput\",\n"
            << "  \"date\": \"" << bench::UtcDate() << "\",\n"
            << "  \"build\": \""
            << util::BuildInfoString(std::string("gemm-isa=") +
                                     nn::ActiveGemmIsaName())
            << "\",\n"
            << "  \"scale\": \"" << (settings.paper ? "paper" : "smoke")
            << "\",\n"
            << "  \"env\": {\"campus\": \""
            << map::CampusName(map::CampusId::kPurdue)
            << "\", \"timeslots\": " << env_config.num_timeslots
            << ", \"pois\": " << env_config.num_pois
            << ", \"uavs\": " << env_config.num_uavs
            << ", \"ugvs\": " << env_config.num_ugvs << "},\n"
            << "  \"actor_first_layer_bytes\": "
            << results.front().first_layer_bytes << ",\n"
            << "  \"lane_forward_bytes\": "
            << core::HiMadrlTrainer::kLaneForwardBytes << ",\n"
            << "  \"rule\": \"" << rule_name << "\",\n"
            << "  \"hardware_concurrency\": " << cores << ",\n"
            << "  \"episodes_per_measurement\": " << episodes << ",\n"
            << "  \"timed_collects_per_measurement\": " << kCollects << ",\n"
            << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::cout << "    {\"num_workers\": " << r.num_workers
              << ", \"env_steps\": " << r.env_steps
              << ", \"caller_median_seconds\": " << r.caller.seconds
              << ", \"caller_steps_per_sec\": " << r.caller.steps_per_sec
              << ", \"lanes_median_seconds\": " << r.lanes.seconds
              << ", \"lanes_steps_per_sec\": " << r.lanes.steps_per_sec
              << ", \"lanes_vs_caller\": " << lanes_vs_caller(r)
              << ", \"speedup_vs_w1\": " << speedup(r) << "}"
              << (i + 1 < results.size() ? "," : "") << "\n";
  }
  std::cout << "  ]\n}\n";
  return 0;
}
