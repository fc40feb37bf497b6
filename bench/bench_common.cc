#include "bench/bench_common.h"

#include <ctime>
#include <iostream>
#include <map>

#include "algorithms/random_policy.h"
#include "algorithms/shortest_path.h"
#include "core/evaluator.h"
#include "util/env_flags.h"
#include "util/logging.h"

namespace agsc::bench {

Settings Settings::FromEnv() {
  Settings s;
  s.paper = util::GetBenchScale() == util::BenchScale::kPaper;
  if (s.paper) {
    s.timeslots = 100;
    s.num_pois = 100;
    s.train_iterations = 150;
    s.episodes_per_iteration = 4;
    s.eval_episodes = 50;
    s.num_seeds = 3;
    s.net_hidden = {128, 64};
  }
  s.train_iterations =
      util::GetEnvOr("AGSC_BENCH_ITERS", s.train_iterations);
  s.eval_episodes =
      util::GetEnvOr("AGSC_BENCH_EVAL_EPISODES", s.eval_episodes);
  s.timeslots = util::GetEnvOr("AGSC_BENCH_TIMESLOTS", s.timeslots);
  s.num_pois = util::GetEnvOr("AGSC_BENCH_POIS", s.num_pois);
  return s;
}

const std::vector<Method>& AllMethods() {
  static const std::vector<Method>* methods = new std::vector<Method>{
      Method::kHiMadrl,      Method::kHiMadrlCopo,  Method::kMappo,
      Method::kEDivert,      Method::kShortestPath, Method::kRandom};
  return *methods;
}

std::string MethodName(Method method) {
  switch (method) {
    case Method::kHiMadrl: return "h/i-MADRL";
    case Method::kHiMadrlCopo: return "h/i-MADRL(CoPO)";
    case Method::kMappo: return "MAPPO";
    case Method::kEDivert: return "e-Divert";
    case Method::kShortestPath: return "Shortest Path";
    case Method::kRandom: return "Random";
  }
  return "?";
}

env::EnvConfig BaseEnvConfig(const Settings& settings) {
  env::EnvConfig config;
  config.num_timeslots = settings.timeslots;
  config.num_pois = settings.num_pois;
  return config;
}

core::TrainConfig BaseTrainConfig(const Settings& settings, uint64_t seed) {
  core::TrainConfig config;
  config.iterations = settings.train_iterations;
  config.episodes_per_iteration = settings.episodes_per_iteration;
  config.net.hidden = settings.net_hidden;
  config.eoi.hidden = settings.net_hidden;
  config.seed = seed;
  if (!settings.paper) {
    // The smoke budget is tiny; trade some stability for learning speed.
    config.actor_lr = 5e-4f;
    config.critic_lr = 1.5e-3f;
    config.eoi.lr = 2e-3f;
  }
  return config;
}

const map::Dataset& GetDataset(map::CampusId campus, int num_pois) {
  static std::map<std::pair<int, int>, map::Dataset>* cache =
      new std::map<std::pair<int, int>, map::Dataset>;
  const std::pair<int, int> key{static_cast<int>(campus), num_pois};
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, map::BuildDataset(campus, num_pois)).first;
  }
  return it->second;
}

namespace {

env::Metrics RunOnce(Method method, const env::EnvConfig& config,
                     map::CampusId campus, const Settings& settings,
                     uint64_t seed) {
  const map::Dataset& dataset = GetDataset(campus, config.num_pois);
  env::ScEnv env(config, dataset, seed);
  const uint64_t eval_seed = seed * 7919 + 13;
  switch (method) {
    case Method::kHiMadrl:
    case Method::kHiMadrlCopo:
    case Method::kMappo: {
      core::TrainConfig train = BaseTrainConfig(settings, seed);
      if (method == Method::kHiMadrlCopo) train.hetero_copo = false;
      if (method == Method::kMappo) {
        train.base = core::BaseAlgo::kMappo;
        train.use_eoi = false;
        train.use_copo = false;
      }
      core::HiMadrlTrainer trainer(env, train);
      trainer.Train();
      return core::Evaluate(env, trainer, settings.eval_episodes, eval_seed)
          .mean;
    }
    case Method::kEDivert: {
      algorithms::EDivertConfig train;
      train.iterations = settings.train_iterations;
      train.episodes_per_iteration = settings.episodes_per_iteration;
      train.updates_per_iteration = settings.paper ? 64 : 16;
      train.hidden = settings.net_hidden.back();
      train.gru_hidden = settings.net_hidden.back();
      train.seed = seed;
      algorithms::EDivertTrainer trainer(env, train);
      trainer.Train();
      return core::Evaluate(env, trainer, settings.eval_episodes, eval_seed)
          .mean;
    }
    case Method::kShortestPath: {
      algorithms::ShortestPathPolicy policy;
      return core::Evaluate(env, policy, settings.eval_episodes, eval_seed)
          .mean;
    }
    case Method::kRandom: {
      algorithms::RandomPolicy policy;
      return core::Evaluate(env, policy, settings.eval_episodes, eval_seed,
                            /*deterministic=*/false)
          .mean;
    }
  }
  return env::Metrics{};
}

}  // namespace

env::Metrics RunMethod(Method method, const env::EnvConfig& config,
                       map::CampusId campus, const Settings& settings,
                       uint64_t seed) {
  std::vector<env::Metrics> per_seed;
  for (int s = 0; s < settings.num_seeds; ++s) {
    per_seed.push_back(
        RunOnce(method, config, campus, settings, seed + 1000 * s));
  }
  const env::Metrics mean = env::Metrics::Average(per_seed);
  std::cerr << "  [" << map::CampusName(campus) << "] "
            << MethodName(method) << ": lambda="
            << util::FormatDouble(mean.efficiency, 3) << "\n";
  return mean;
}

TrainedHiMadrl TrainHiMadrlVariant(const env::EnvConfig& config,
                                   map::CampusId campus,
                                   const Settings& settings,
                                   const core::TrainConfig& train_config) {
  TrainedHiMadrl out;
  const map::Dataset& dataset = GetDataset(campus, config.num_pois);
  out.env = std::make_unique<env::ScEnv>(config, dataset, train_config.seed);
  out.trainer =
      std::make_unique<core::HiMadrlTrainer>(*out.env, train_config);
  (void)settings;
  out.trainer->Train();
  return out;
}

std::string UtcDate() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char date[16];
  std::strftime(date, sizeof(date), "%Y-%m-%d", &utc);
  return date;
}

std::string OutDir() {
  const std::string dir = "bench_out";
  util::EnsureDirectory(dir);
  return dir;
}

void RunParameterSweep(
    const std::string& title, const std::string& param_name,
    const std::vector<double>& values,
    const std::function<void(env::EnvConfig&, double)>& apply,
    const Settings& settings, const std::string& csv_name) {
  PrintBanner(title, settings);
  util::CsvWriter csv(OutDir() + "/" + csv_name + ".csv",
                      {"campus", "method", param_name, "psi", "sigma", "xi",
                       "kappa", "lambda"});
  const char* metric_names[] = {"data collection ratio (psi)",
                                "data loss ratio (sigma)",
                                "energy consumption ratio (xi)",
                                "geographical fairness (kappa)",
                                "efficiency (lambda)"};
  for (const map::CampusId campus :
       {map::CampusId::kPurdue, map::CampusId::kNcsu}) {
    // results[method][value index] -> metrics.
    std::vector<std::vector<env::Metrics>> results(AllMethods().size());
    for (size_t vi = 0; vi < values.size(); ++vi) {
      env::EnvConfig config = BaseEnvConfig(settings);
      apply(config, values[vi]);
      for (size_t mi = 0; mi < AllMethods().size(); ++mi) {
        const Method method = AllMethods()[mi];
        const env::Metrics metrics =
            RunMethod(method, config, campus, settings,
                      /*seed=*/17 + vi * 101 + mi * 13);
        results[mi].push_back(metrics);
        csv.WriteRow(
            {map::CampusName(campus), MethodName(method),
             util::FormatDouble(values[vi], 3),
             util::FormatDouble(metrics.data_collection_ratio, 4),
             util::FormatDouble(metrics.data_loss_ratio, 4),
             util::FormatDouble(metrics.energy_consumption_ratio, 4),
             util::FormatDouble(metrics.geographical_fairness, 4),
             util::FormatDouble(metrics.efficiency, 4)});
        csv.Flush();
      }
    }
    std::cout << "\n--- " << map::CampusName(campus) << " ---\n";
    for (int metric = 0; metric < 5; ++metric) {
      std::vector<std::string> header = {std::string(metric_names[metric])};
      for (double v : values) {
        header.push_back(param_name + "=" + util::FormatDouble(v, 1));
      }
      util::Table table(header);
      for (size_t mi = 0; mi < AllMethods().size(); ++mi) {
        std::vector<double> row;
        for (const env::Metrics& m : results[mi]) {
          row.push_back(m.ToVector()[metric]);
        }
        table.AddRow(MethodName(AllMethods()[mi]), row);
      }
      table.Print();
      std::cout << "\n";
    }
  }
  std::cout << "CSV written to " << OutDir() << "/" << csv_name << ".csv\n";
}

void PrintBanner(const std::string& title, const Settings& settings) {
  std::cout << "=== " << title << " ===\n"
            << "scale=" << (settings.paper ? "paper" : "smoke")
            << " (AGSC_BENCH_SCALE), T=" << settings.timeslots
            << ", I=" << settings.num_pois
            << ", train_iters=" << settings.train_iterations
            << ", eval_episodes=" << settings.eval_episodes
            << ", seeds=" << settings.num_seeds << "\n";
}

}  // namespace agsc::bench
