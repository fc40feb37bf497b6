// Command-line trainer: the library's "production" entry point for running
// a single configurable experiment end to end.
//
//   agsc_train [--campus purdue|ncsu] [--iterations N] [--timeslots T]
//              [--pois I] [--uavs U] [--ugvs G] [--subchannels Z]
//              [--height M] [--threshold DB] [--medium noma|tdma|ofdma]
//              [--no-eoi] [--no-copo] [--plain-copo] [--mappo]
//              [--seed S] [--eval N] [--num-workers W]
//              [--proc-workers W] [--worker-binary PATH]
//              [--listen HOST:PORT] [--remote-workers W]
//              [--port-file FILE]
//              [--nn-naive] [--env-naive]
//              [--env-channel-scalar] [--env-fast-math]
//              [--save FILE] [--load FILE]
//              [--checkpoint-dir DIR] [--checkpoint-every N]
//              [--checkpoint-keep K] [--resume]
//              [--stats-csv FILE] [--watchdog-sec S]
//              [--oracle-check-every N] [--max-backoffs N]
//              [--render] [--quiet] [--version]
//
// Trains h/i-MADRL (or the selected variant), evaluates it, prints the five
// paper metrics and optionally saves/loads a checkpoint. With
// --checkpoint-dir/--checkpoint-every the trainer writes crash-safe v2
// checkpoints periodically; --resume restores the newest valid one (falling
// back past corrupted files) and trains only the remaining iterations.
// --num-workers W samples rollouts on W parallel environment replicas with
// per-worker RNG streams: results are bit-identical for a given
// (seed, W) pair, and checkpoints capture every worker stream so --resume
// stays bit-exact.
// --proc-workers W moves those replicas into W crash-isolated agsc_worker
// subprocesses (mutually exclusive with --num-workers): a worker that
// crashes, hangs, or corrupts its pipe is killed, respawned with bounded
// backoff, and its episode shard is replayed deterministically, so the
// produced rollouts — and checkpoints — stay bit-identical to
// --num-workers W for the same seed. Checkpoints resume across modes.
// --listen HOST:PORT + --remote-workers W keep the same crash-isolated
// protocol but stop fork/exec'ing: the trainer listens on TCP (port 0 =
// kernel-assigned, published via --port-file) and W externally launched
// `agsc_worker --connect HOST:PORT` processes — containers, other hosts, a
// test harness — register for the worker slots. A dropped connection is
// the remote analogue of a worker crash: the worker reconnects (or a
// replacement registers) and the episode shard replays deterministically,
// so rollouts and checkpoints stay bit-identical to --num-workers W.
// --nn-naive falls back to the reference GEMM kernels: bit-identical to the
// default blocked kernels, so it changes throughput only, never the learned
// parameters. The optimize phase runs one task per agent plus one for V_all
// on up to as many cores as the process may use, with results that do not
// depend on the core count (so no flag sets it).
// --env-naive disables the environment's spatial indices and cached road
// routing, falling back to the linear-scan / per-call-Dijkstra reference
// paths — also bit-identical, kept as an oracle and debugging aid.
// --env-channel-scalar disables the batched SoA channel kernels, computing
// every gain through the scalar per-link ChannelModel — bit-identical
// (the batched default tier reproduces libm bit patterns), kept as the
// channel oracle. --env-fast-math swaps the batched kernels' libm
// transcendentals for vectorized polynomial approximations: deterministic
// and statistically equivalent (bounded per-gain error, pinned by tests)
// but NOT bit-identical, so checkpoints are not byte-comparable with
// exact-tier runs.
//
// Long-run supervisor (see DESIGN.md "Robustness"):
//  * SIGINT/SIGTERM stop the run cooperatively at the next iteration or
//    sampling-timeslot boundary: the trainer flushes a final checkpoint and
//    the stats CSV, then exits with code 8. A second signal aborts
//    immediately with code 9 (no flush).
//  * --watchdog-sec S bounds every parallel rollout step batch; a worker
//    hung longer than S seconds is reported (worker id + timeslot) and the
//    process fail-fast exits with code 7 instead of deadlocking.
//  * --oracle-check-every N cross-checks the optimized env/NN paths against
//    their retained naive oracles every N iterations and permanently falls
//    back to the oracle path on mismatch (recorded in checkpoints).
//  * --max-backoffs N turns a persistently diverging run (repeated NaN
//    updates after N learning-rate backoffs) into exit code 6 with the last
//    good checkpoint on disk.
//  * --stats-csv FILE writes one row of training diagnostics per completed
//    iteration (written atomically with retry, also on abnormal exits).
//
// Exit codes are stable (see util/exit_codes.h): 0 ok, 2 usage, 3 invalid
// config, 4 I/O error, 5 resume mismatch, 6 diverged, 7 watchdog timeout,
// 8 clean signal stop, 9 second-signal abort, 10 worker failed, 12 network
// setup failed (unusable --listen address).

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "core/hi_madrl.h"
#include "env/render.h"
#include "nn/tensor.h"
#include "util/build_info.h"
#include "util/exit_codes.h"
#include "util/net.h"
#include "util/parse.h"
#include "util/retry.h"
#include "util/shutdown.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

struct Args {
  std::string campus = "purdue";
  int iterations = 30;
  int timeslots = 100;
  int pois = 100;
  int uavs = 2;
  int ugvs = 2;
  int subchannels = 3;
  double height = 60.0;
  double threshold_db = 0.0;
  std::string medium = "noma";
  bool use_eoi = true;
  bool use_copo = true;
  bool hetero_copo = true;
  bool mappo = false;
  uint64_t seed = 1;
  int eval_episodes = 10;
  int num_workers = 1;
  bool num_workers_set = false;
  int proc_workers = 0;
  std::string worker_binary;
  std::string listen;
  int remote_workers = 0;
  std::string port_file;
  bool nn_naive = false;
  bool env_naive = false;
  bool env_channel_scalar = false;
  bool env_fast_math = false;
  std::string save_path;
  std::string load_path;
  std::string checkpoint_dir;
  int checkpoint_every = 0;
  int checkpoint_keep = 3;
  bool resume = false;
  std::string stats_csv;
  int watchdog_sec = 0;
  int oracle_check_every = 0;
  int max_backoffs = 0;
  bool render = false;
  bool quiet = false;
  bool help = false;
  bool version = false;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  // Strict numeric parsing: reject garbage ("--iterations abc") and
  // out-of-range values ("--uavs -3") instead of silently training a
  // nonsense configuration.
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << name << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    auto next_int = [&](const char* name, int lo, int hi, int* out) {
      const char* v = next(name);
      if (!v) return false;
      if (!agsc::util::ParseIntInRange(v, lo, hi, out)) {
        std::cerr << "invalid value for " << name << ": '" << v
                  << "' (expected integer in [" << lo << ", " << hi
                  << "])\n";
        return false;
      }
      return true;
    };
    auto next_double = [&](const char* name, double lo, double hi,
                           double* out) {
      const char* v = next(name);
      if (!v) return false;
      if (!agsc::util::ParseDoubleInRange(v, lo, hi, out)) {
        std::cerr << "invalid value for " << name << ": '" << v
                  << "' (expected number in [" << lo << ", " << hi << "])\n";
        return false;
      }
      return true;
    };
    constexpr int kMaxInt = 1000000000;
    if (flag == "--campus") {
      const char* v = next("--campus");
      if (!v) return false;
      args.campus = v;
      if (args.campus != "purdue" && args.campus != "ncsu") {
        std::cerr << "invalid value for --campus: '" << args.campus
                  << "' (expected purdue|ncsu)\n";
        return false;
      }
    } else if (flag == "--iterations") {
      if (!next_int("--iterations", 0, kMaxInt, &args.iterations)) {
        return false;
      }
    } else if (flag == "--timeslots") {
      if (!next_int("--timeslots", 1, kMaxInt, &args.timeslots)) return false;
    } else if (flag == "--pois") {
      if (!next_int("--pois", 1, kMaxInt, &args.pois)) return false;
    } else if (flag == "--uavs") {
      if (!next_int("--uavs", 0, kMaxInt, &args.uavs)) return false;
    } else if (flag == "--ugvs") {
      if (!next_int("--ugvs", 0, kMaxInt, &args.ugvs)) return false;
    } else if (flag == "--subchannels") {
      if (!next_int("--subchannels", 1, kMaxInt, &args.subchannels)) {
        return false;
      }
    } else if (flag == "--height") {
      if (!next_double("--height", 1e-6, 1e6, &args.height)) return false;
    } else if (flag == "--threshold") {
      if (!next_double("--threshold", -1e6, 1e6, &args.threshold_db)) {
        return false;
      }
    } else if (flag == "--medium") {
      const char* v = next("--medium");
      if (!v) return false;
      args.medium = v;
      if (args.medium != "noma" && args.medium != "tdma" &&
          args.medium != "ofdma") {
        std::cerr << "invalid value for --medium: '" << args.medium
                  << "' (expected noma|tdma|ofdma)\n";
        return false;
      }
    } else if (flag == "--seed") {
      const char* v = next("--seed");
      if (!v) return false;
      if (!agsc::util::ParseUint64(v, &args.seed)) {
        std::cerr << "invalid value for --seed: '" << v
                  << "' (expected unsigned integer)\n";
        return false;
      }
    } else if (flag == "--eval") {
      if (!next_int("--eval", 0, kMaxInt, &args.eval_episodes)) return false;
    } else if (flag == "--num-workers") {
      if (!next_int("--num-workers", 1, 1024, &args.num_workers)) {
        return false;
      }
      args.num_workers_set = true;
    } else if (flag == "--proc-workers") {
      if (!next_int("--proc-workers", 1, 1024, &args.proc_workers)) {
        return false;
      }
    } else if (flag == "--worker-binary") {
      const char* v = next("--worker-binary");
      if (!v) return false;
      args.worker_binary = v;
    } else if (flag == "--listen") {
      const char* v = next("--listen");
      if (!v) return false;
      args.listen = v;
    } else if (flag == "--remote-workers") {
      if (!next_int("--remote-workers", 1, 1024, &args.remote_workers)) {
        return false;
      }
    } else if (flag == "--port-file") {
      const char* v = next("--port-file");
      if (!v) return false;
      args.port_file = v;
    } else if (flag == "--nn-naive") {
      args.nn_naive = true;
    } else if (flag == "--env-naive") {
      args.env_naive = true;
    } else if (flag == "--env-channel-scalar") {
      args.env_channel_scalar = true;
    } else if (flag == "--env-fast-math") {
      args.env_fast_math = true;
    } else if (flag == "--save") {
      const char* v = next("--save");
      if (!v) return false;
      args.save_path = v;
    } else if (flag == "--load") {
      const char* v = next("--load");
      if (!v) return false;
      args.load_path = v;
    } else if (flag == "--checkpoint-dir") {
      const char* v = next("--checkpoint-dir");
      if (!v) return false;
      args.checkpoint_dir = v;
    } else if (flag == "--checkpoint-every") {
      if (!next_int("--checkpoint-every", 1, kMaxInt,
                    &args.checkpoint_every)) {
        return false;
      }
    } else if (flag == "--checkpoint-keep") {
      if (!next_int("--checkpoint-keep", 1, kMaxInt, &args.checkpoint_keep)) {
        return false;
      }
    } else if (flag == "--resume") {
      args.resume = true;
    } else if (flag == "--stats-csv") {
      const char* v = next("--stats-csv");
      if (!v) return false;
      args.stats_csv = v;
    } else if (flag == "--watchdog-sec") {
      if (!next_int("--watchdog-sec", 0, 86400, &args.watchdog_sec)) {
        return false;
      }
    } else if (flag == "--oracle-check-every") {
      if (!next_int("--oracle-check-every", 0, kMaxInt,
                    &args.oracle_check_every)) {
        return false;
      }
    } else if (flag == "--max-backoffs") {
      if (!next_int("--max-backoffs", 0, kMaxInt, &args.max_backoffs)) {
        return false;
      }
    } else if (flag == "--no-eoi") {
      args.use_eoi = false;
    } else if (flag == "--no-copo") {
      args.use_copo = false;
    } else if (flag == "--plain-copo") {
      args.hetero_copo = false;
    } else if (flag == "--mappo") {
      args.mappo = true;
    } else if (flag == "--render") {
      args.render = true;
    } else if (flag == "--quiet") {
      args.quiet = true;
    } else if (flag == "--version" || flag == "--build-info") {
      args.version = true;
      return true;
    } else if (flag == "--help" || flag == "-h") {
      args.help = true;
      return false;
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return false;
    }
  }
  if (args.resume && args.checkpoint_dir.empty()) {
    std::cerr << "--resume requires --checkpoint-dir\n";
    return false;
  }
  if (args.proc_workers > 0 && args.num_workers_set) {
    // Both select the replica count; a run is either in-process or
    // subprocess mode, never a mix.
    std::cerr << "--proc-workers and --num-workers are mutually exclusive\n";
    return false;
  }
  if (args.remote_workers > 0 &&
      (args.num_workers_set || args.proc_workers > 0)) {
    std::cerr << "--remote-workers is mutually exclusive with "
                 "--num-workers/--proc-workers\n";
    return false;
  }
  if (args.remote_workers > 0 && args.listen.empty()) {
    std::cerr << "--remote-workers requires --listen HOST:PORT\n";
    return false;
  }
  if (!args.listen.empty() && args.remote_workers == 0) {
    std::cerr << "--listen requires --remote-workers W\n";
    return false;
  }
  if (!args.port_file.empty() && args.listen.empty()) {
    std::cerr << "--port-file requires --listen\n";
    return false;
  }
  return true;
}

void PrintUsage(std::ostream& out) {
  out << "usage: agsc_train [--campus purdue|ncsu] [--iterations N]\n"
         "  [--timeslots T] [--pois I] [--uavs U] [--ugvs G]\n"
         "  [--subchannels Z] [--height M] [--threshold DB]\n"
         "  [--medium noma|tdma|ofdma] [--no-eoi] [--no-copo]\n"
         "  [--plain-copo] [--mappo] [--seed S] [--eval N]\n"
         "  [--num-workers W] [--proc-workers W] [--worker-binary PATH]\n"
         "  [--listen HOST:PORT] [--remote-workers W] [--port-file FILE]\n"
         "  [--nn-naive] [--env-naive] [--env-channel-scalar]\n"
         "  [--env-fast-math]\n"
         "  [--save FILE] [--load FILE]\n"
         "  [--checkpoint-dir DIR] [--checkpoint-every N]\n"
         "  [--checkpoint-keep K] [--resume]\n"
         "  [--stats-csv FILE] [--watchdog-sec S]\n"
         "  [--oracle-check-every N] [--max-backoffs N]\n"
         "  [--render] [--quiet] [--version]\n"
         "exit codes: 0 ok, 2 usage, 3 config, 4 io, 5 resume-mismatch,\n"
         "  6 diverged, 7 watchdog-timeout, 8 signal-stop, 9 abort,\n"
         "  10 worker-failed, 12 net-error\n";
}

/// Serializes the trainer's full stats history and writes it atomically
/// (with retry). Called on clean completion AND on supervised abnormal
/// exits, so the CSV always covers every completed iteration.
bool WriteStatsCsv(const agsc::core::HiMadrlTrainer& trainer,
                   const std::string& path,
                   const agsc::util::RetryPolicy& policy) {
  std::ostringstream csv;
  // Provenance header: which build produced these numbers. Comment line so
  // the CSV stays loadable with `comment='#'` in pandas/R.
  csv << "# build: agsc_train "
      << agsc::util::BuildInfoString(std::string("gemm-isa=") +
                                     agsc::nn::ActiveGemmIsaName())
      << "\n";
  csv << "iteration,psi,sigma,xi,kappa,lambda,mean_reward_ext,"
         "mean_reward_int,eoi_loss,actor_grad_norm,value_loss,"
         "total_env_steps,anomalies,lr_backoff,env_oracle_fallback,"
         "nn_oracle_fallback,channel_oracle_fallback\n";
  for (const agsc::core::IterationStats& s : trainer.stats_history()) {
    csv << s.iteration;
    for (double v : s.rollout_metrics.ToVector()) csv << "," << v;
    csv << "," << s.mean_reward_ext << "," << s.mean_reward_int << ","
        << s.eoi_loss << "," << s.actor_grad_norm << "," << s.value_loss
        << "," << s.total_env_steps << "," << s.anomalies << ","
        << (s.lr_backoff ? 1 : 0) << "," << (s.env_oracle_fallback ? 1 : 0)
        << "," << (s.nn_oracle_fallback ? 1 : 0) << ","
        << (s.channel_oracle_fallback ? 1 : 0) << "\n";
  }
  if (!agsc::util::AtomicWriteFileRetry(path, csv.str(), policy)) {
    std::cerr << "failed to write stats CSV " << path << "\n";
    return false;
  }
  return true;
}

/// True if `dir` contains at least one ckpt_*.agsc file — used to tell
/// "fresh start" apart from "checkpoints exist but none loads" on --resume.
bool HasCheckpointFiles(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt_", 0) == 0 && name.ends_with(".agsc")) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agsc;
  util::InstallShutdownHandler();
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    PrintUsage(args.help ? std::cout : std::cerr);
    return args.help ? util::kExitOk : util::kExitUsage;
  }
  if (args.version) {
    std::cout << "agsc_train "
              << util::BuildInfoString(std::string("gemm-isa=") +
                                       nn::ActiveGemmIsaName())
              << "\n";
    return util::kExitOk;
  }

  const map::CampusId campus = args.campus == "ncsu"
                                   ? map::CampusId::kNcsu
                                   : map::CampusId::kPurdue;
  const map::Dataset dataset = map::BuildDataset(campus, args.pois);

  env::EnvConfig env_config;
  env_config.num_timeslots = args.timeslots;
  env_config.num_pois = args.pois;
  env_config.num_uavs = args.uavs;
  env_config.num_ugvs = args.ugvs;
  env_config.num_subchannels = args.subchannels;
  env_config.uav_height = args.height;
  env_config.sinr_threshold_db = args.threshold_db;
  if (args.medium == "tdma") {
    env_config.medium_access = env::MediumAccess::kTdma;
  } else if (args.medium == "ofdma") {
    env_config.medium_access = env::MediumAccess::kOfdma;
  }
  env_config.use_spatial_index = !args.env_naive;
  env_config.use_channel_batch = !args.env_channel_scalar;
  env_config.env_fast_math = args.env_fast_math;
  // Training consumes only each slot's last events; the full per-slot event
  // log is needed just for the trajectory/coordination renders.
  env_config.record_event_log = args.render;
  const std::string config_error = env_config.Validate();
  if (!config_error.empty()) {
    std::cerr << "invalid configuration: " << config_error << "\n";
    return util::kExitConfig;
  }
  env::ScEnv env(env_config, dataset, args.seed);

  core::TrainConfig train;
  train.iterations = args.iterations;
  train.use_eoi = args.use_eoi;
  train.use_copo = args.use_copo;
  train.hetero_copo = args.hetero_copo;
  if (args.mappo) train.base = core::BaseAlgo::kMappo;
  train.seed = args.seed;
  train.num_workers = args.num_workers;
  train.proc_workers = args.proc_workers;
  if (args.proc_workers > 0) {
    train.worker_binary = args.worker_binary;
    if (train.worker_binary.empty()) {
      // Default: the agsc_worker binary built next to this trainer.
      std::error_code ec;
      std::filesystem::path self =
          std::filesystem::canonical(argv[0], ec);
      train.worker_binary =
          ((ec ? std::filesystem::path(argv[0]) : self).parent_path() /
           "agsc_worker")
              .string();
    }
  }
  if (args.remote_workers > 0) {
    // Remote mode reuses the proc-sampler machinery; the worker binary is
    // whatever the operator launches against --listen.
    train.proc_workers = args.remote_workers;
    train.listen_address = args.listen;
  }
  train.nn_naive_kernels = args.nn_naive;
  train.verbose = !args.quiet;
  train.checkpoint_dir = args.checkpoint_dir;
  train.checkpoint_every = args.checkpoint_every;
  train.checkpoint_keep = args.checkpoint_keep;
  train.watchdog_ms = static_cast<long>(args.watchdog_sec) * 1000;
  train.oracle_check_every = args.oracle_check_every;
  train.max_lr_backoffs = args.max_backoffs;
  train.stop_check = [] { return util::ShutdownRequested(); };
  std::unique_ptr<core::HiMadrlTrainer> trainer_holder;
  try {
    trainer_holder = std::make_unique<core::HiMadrlTrainer>(env, train);
  } catch (const util::NetError& e) {
    std::cerr << "network setup failed ("
              << util::ExitCodeName(util::kExitNetError) << "): " << e.what()
              << "\n";
    return util::kExitNetError;
  }
  core::HiMadrlTrainer& trainer = *trainer_holder;

  if (!args.port_file.empty()) {
    // Publish the bound port (resolves --listen HOST:0) atomically: the
    // harness/operator polls for this file, so it must never read partial
    // content.
    const int port = trainer.SamplerBoundPort();
    const std::string tmp = args.port_file + ".tmp";
    std::ofstream out(tmp, std::ios::trunc);
    out << port << "\n";
    out.close();
    std::error_code ec;
    if (!out || (std::filesystem::rename(tmp, args.port_file, ec), ec)) {
      std::cerr << "failed to write --port-file " << args.port_file << "\n";
      return util::kExitIoError;
    }
    if (!args.quiet) {
      std::cout << "listening on " << args.listen << " (port " << port
                << ", published to " << args.port_file << ")\n";
    }
  }

  if (args.resume) {
    if (trainer.LoadLatestCheckpoint(args.checkpoint_dir)) {
      std::cout << "resumed from " << args.checkpoint_dir << " at iteration "
                << trainer.iteration() << "\n";
    } else if (HasCheckpointFiles(args.checkpoint_dir)) {
      // Checkpoints exist but none is loadable into THIS configuration:
      // almost always a config/architecture mismatch. Refuse to silently
      // retrain from scratch next to data we can't read.
      std::cerr << "resume mismatch: " << args.checkpoint_dir
                << " contains checkpoints but none loads with this "
                << "configuration (see log above)\n";
      return util::kExitResumeMismatch;
    } else {
      std::cout << "no checkpoint in " << args.checkpoint_dir
                << "; starting fresh\n";
    }
  }
  if (!args.load_path.empty()) {
    if (!trainer.LoadCheckpoint(args.load_path)) {
      std::cerr << "failed to load checkpoint " << args.load_path << "\n";
      return util::kExitIoError;
    }
    std::cout << "loaded checkpoint " << args.load_path << "\n";
  }

  const auto flush_stats = [&]() -> bool {
    if (args.stats_csv.empty()) return true;
    return WriteStatsCsv(trainer, args.stats_csv, train.io_retry);
  };

  if (args.iterations > 0) {
    std::cout << "training " << args.iterations << " iterations on "
              << dataset.campus.name << " ("
              << trainer.TotalParameterCount() << " parameters)...\n";
    try {
      trainer.TrainTo(args.iterations);
    } catch (const util::InterruptedError& e) {
      // Cooperative signal stop: the trainer already flushed a final
      // checkpoint; persist the stats rows and report the signal.
      flush_stats();
      std::cerr << "stopped by signal "
                << util::ShutdownSignal() << ": " << e.what()
                << " (checkpoint flushed; resume with --resume)\n";
      return util::kExitSignalStop;
    } catch (const core::TrainingDiverged& e) {
      flush_stats();
      std::cerr << "training diverged: " << e.what()
                << " (last good checkpoint flushed)\n";
      return util::kExitDiverged;
    } catch (const core::ProcWorkerError& e) {
      // The worker fleet could not be kept alive (respawn budget exhausted
      // or spawn/handshake failure). The trainer flushed a final checkpoint
      // before rethrowing; persist stats and hand the supervisor a distinct
      // code so it can alert on infrastructure vs. training failures.
      flush_stats();
      std::cerr << "worker failed: " << e.what()
                << " (checkpoint flushed; resume with --resume)\n";
      return util::kExitWorkerFailed;
    } catch (const util::WatchdogTimeoutError& e) {
      // Fail fast: the hung worker may still be running, so skip all
      // destructors (a pool join would block on the stuck task) and leave
      // the previously written checkpoints as the recovery point.
      flush_stats();
      std::cerr << "watchdog timeout: " << e.what() << "\n" << std::flush;
      std::_Exit(util::kExitWatchdogTimeout);
    }
  }
  if (!args.save_path.empty()) {
    if (!trainer.SaveCheckpoint(args.save_path)) {
      std::cerr << "failed to save checkpoint " << args.save_path << "\n";
      return util::kExitIoError;
    }
    std::cout << "saved checkpoint to " << args.save_path << "\n";
  }
  if (!flush_stats()) return util::kExitIoError;

  core::EvalResult result;
  try {
    result = core::Evaluate(env, trainer, args.eval_episodes, args.seed + 99);
  } catch (const util::InterruptedError& e) {
    // Training already finished and was saved/flushed above; only the final
    // evaluation was cut short.
    std::cerr << "stopped by signal " << util::ShutdownSignal() << ": "
              << e.what() << "\n";
    return util::kExitSignalStop;
  }
  util::Table table({"metric", "value"});
  const char* names[] = {"data collection ratio (psi)",
                         "data loss ratio (sigma)",
                         "energy consumption ratio (xi)",
                         "geographical fairness (kappa)",
                         "efficiency (lambda)"};
  const std::vector<double> values = result.mean.ToVector();
  for (int i = 0; i < 5; ++i) {
    table.AddRow({names[i], util::FormatDouble(values[i], 4)});
  }
  table.Print();
  for (int k = 0; k < env.num_agents(); ++k) {
    std::cout << (env.IsUav(k) ? "UAV " : "UGV ") << k << ": phi="
              << util::FormatDouble(trainer.lcfs()[k].phi_deg, 1)
              << " chi=" << util::FormatDouble(trainer.lcfs()[k].chi_deg, 1)
              << "\n";
  }
  if (args.render) {
    std::cout << env::RenderTrajectoriesAscii(env);
  }
  return util::kExitOk;
}
