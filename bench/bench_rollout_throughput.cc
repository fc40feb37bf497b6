// Sampling-throughput harness for the in-process rollout sampler: measures
// env-steps/s of HiMadrlTrainer::CollectRollouts for worker counts
// {1, 2, 4, 8} and reports the speedup over one worker.
//
// Progress and a human-readable table go to stderr; stdout is exactly the
// BENCH_rollout.json object (date, build, scale, env, host core count and
// one row per worker count), so the file is regenerated with
//
//   ./build/bench/bench_rollout_throughput > BENCH_rollout.json
//
// Worker counts above the host's core count cannot speed anything up —
// the harness still runs them (the determinism contract must hold at any
// W) and records the host concurrency so single-core numbers are not
// mistaken for a scaling regression.
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

struct Result {
  int num_workers = 1;
  long env_steps = 0;   ///< Per collect.
  double seconds = 0.0;  ///< Median collect time.
  double steps_per_sec = 0.0;
};

Result MeasureWorkers(const bench::Settings& settings, int num_workers,
                      int episodes) {
  const map::Dataset& dataset =
      bench::GetDataset(map::CampusId::kPurdue, settings.num_pois);
  env::EnvConfig env_config = bench::BaseEnvConfig(settings);
  env::ScEnv env(env_config, dataset, /*seed=*/1);

  core::TrainConfig train = bench::BaseTrainConfig(settings, /*seed=*/1);
  train.episodes_per_iteration = episodes;
  train.num_workers = num_workers;
  core::HiMadrlTrainer trainer(env, train);

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
  std::sort(seconds.begin(), seconds.end());

  Result r;
  r.num_workers = num_workers;
  r.env_steps = static_cast<long>(episodes) * env_config.num_timeslots *
                env.num_agents();
  r.seconds = seconds[seconds.size() / 2];
  r.steps_per_sec = r.seconds > 0 ? r.env_steps / r.seconds : 0.0;
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
  const double base_sps = results.front().steps_per_sec;
  const auto speedup = [base_sps](const Result& r) {
    return base_sps > 0 ? r.steps_per_sec / base_sps : 0.0;
  };

  util::Table table({"num_workers", "env_steps", "median_s", "steps/s",
                     "speedup_vs_w1"});
  for (const Result& r : results) {
    table.AddRow({std::to_string(r.num_workers), std::to_string(r.env_steps),
                  util::FormatDouble(r.seconds, 4),
                  util::FormatDouble(r.steps_per_sec, 1),
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
            << "  \"hardware_concurrency\": " << cores << ",\n"
            << "  \"episodes_per_measurement\": " << episodes << ",\n"
            << "  \"timed_collects_per_measurement\": " << kCollects << ",\n"
            << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::cout << "    {\"num_workers\": " << r.num_workers
              << ", \"env_steps\": " << r.env_steps
              << ", \"median_seconds\": " << r.seconds
              << ", \"steps_per_sec\": " << r.steps_per_sec
              << ", \"speedup_vs_w1\": " << speedup(r) << "}"
              << (i + 1 < results.size() ? "," : "") << "\n";
  }
  std::cout << "  ]\n}\n";
  return 0;
}
