#ifndef AGSC_BENCH_BENCH_COMMON_H_
#define AGSC_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "algorithms/e_divert.h"
#include "core/hi_madrl.h"
#include "env/sc_env.h"
#include "util/csv.h"
#include "util/table.h"

namespace agsc::bench {

/// Scale knobs shared by every table/figure harness. `AGSC_BENCH_SCALE=paper`
/// selects the full grid and training budget; the default smoke scale keeps
/// the whole suite runnable in minutes on one laptop core. Individual knobs
/// can be overridden via AGSC_BENCH_ITERS / AGSC_BENCH_EVAL_EPISODES /
/// AGSC_BENCH_TIMESLOTS / AGSC_BENCH_POIS.
struct Settings {
  bool paper = false;
  int timeslots = 40;              ///< T (paper: 100).
  int num_pois = 40;               ///< I (paper: 100).
  int train_iterations = 35;       ///< Outer iterations (paper: 150).
  int episodes_per_iteration = 3;  ///< (paper: 4).
  int eval_episodes = 5;           ///< Test episodes averaged (paper: 50).
  int num_seeds = 1;               ///< Independent seeds averaged (paper: 3).
  std::vector<int> net_hidden = {64, 32};

  /// Reads AGSC_BENCH_* environment variables.
  static Settings FromEnv();

  /// Picks the smoke or paper sweep list.
  template <typename T>
  std::vector<T> Sweep(std::vector<T> smoke, std::vector<T> full) const {
    return paper ? full : smoke;
  }
};

/// The six methods of the paper's comparison (Section VI-A) plus Greedy.
enum class Method {
  kHiMadrl,       ///< Full h/i-MADRL (IPPO + i-EOI + h-CoPO).
  kHiMadrlCopo,   ///< h/i-MADRL(CoPO): plain CoPO replaces h-CoPO.
  kMappo,         ///< MAPPO (no plug-ins, centralized critics).
  kEDivert,       ///< e-Divert (CTDE + prioritized replay + GRU).
  kShortestPath,  ///< GA-planned shortest tours.
  kRandom,        ///< Uniform random actions.
};

/// All six paper methods in display order.
const std::vector<Method>& AllMethods();

/// Display name, e.g. "h/i-MADRL".
std::string MethodName(Method method);

/// Environment config with Table II defaults scaled by `settings`.
env::EnvConfig BaseEnvConfig(const Settings& settings);

/// h/i-MADRL training config scaled by `settings`.
core::TrainConfig BaseTrainConfig(const Settings& settings, uint64_t seed);

/// Cached dataset per (campus, num_pois) — building traces is expensive.
const map::Dataset& GetDataset(map::CampusId campus, int num_pois);

/// Trains (if learning-based) and evaluates `method` under `config`;
/// averages `settings.num_seeds` independent runs. Prints one progress line
/// to stderr per run.
env::Metrics RunMethod(Method method, const env::EnvConfig& config,
                       map::CampusId campus, const Settings& settings,
                       uint64_t seed);

/// Trains an h/i-MADRL variant and returns the live trainer plus its env
/// (for trajectory/LCF inspection in the Fig. 2 / Fig. 11 harnesses).
struct TrainedHiMadrl {
  std::unique_ptr<env::ScEnv> env;
  std::unique_ptr<core::HiMadrlTrainer> trainer;
};
TrainedHiMadrl TrainHiMadrlVariant(const env::EnvConfig& config,
                                   map::CampusId campus,
                                   const Settings& settings,
                                   const core::TrainConfig& train_config);

/// Output directory for CSV dumps ("bench_out", created on demand).
std::string OutDir();

/// Today's UTC date as YYYY-MM-DD, for the "date" field of BENCH_*.json.
std::string UtcDate();

/// Shared driver for the paper's figure-style sweeps (Figs. 3-10): for each
/// campus and each sweep value, runs all six methods and reports the five
/// metrics as per-metric tables (rows = methods, columns = sweep values),
/// exactly the series each figure plots. Also writes
/// bench_out/<csv_name>.csv with one row per (campus, method, value).
/// `apply` mutates the base EnvConfig for a sweep value.
void RunParameterSweep(
    const std::string& title, const std::string& param_name,
    const std::vector<double>& values,
    const std::function<void(env::EnvConfig&, double)>& apply,
    const Settings& settings, const std::string& csv_name);

/// Prints the standard harness banner (scale, budget).
void PrintBanner(const std::string& title, const Settings& settings);

}  // namespace agsc::bench

#endif  // AGSC_BENCH_BENCH_COMMON_H_
