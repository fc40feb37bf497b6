// Command-line trainer: the library's "production" entry point for running
// a single configurable experiment end to end. `agsc_train --help` lists
// the flags (tools/cli.cc holds the table).
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
//  * --oracle-check-every N cross-checks the spatial index, GEMM and channel
//    kernels against their retained references every N iterations and
//    permanently falls back to the reference on mismatch (recorded in
//    checkpoints and in the stats CSV's *_oracle_fallback columns).
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
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "core/hi_madrl.h"
#include "env/render.h"
#include "nn/tensor.h"
#include "tools/cli.h"
#include "util/build_info.h"
#include "util/exit_codes.h"
#include "util/net.h"
#include "util/retry.h"
#include "util/shutdown.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace {

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
         "total_env_steps,anomalies,lr_backoff";
  for (const agsc::core::OraclePair& pair : agsc::core::kOraclePairs) {
    csv << "," << pair.csv_column;
  }
  csv << "\n";
  for (const agsc::core::IterationStats& s : trainer.stats_history()) {
    csv << s.iteration;
    for (double v : s.rollout_metrics.ToVector()) csv << "," << v;
    csv << "," << s.mean_reward_ext << "," << s.mean_reward_int << ","
        << s.eoi_loss << "," << s.actor_grad_norm << "," << s.value_loss
        << "," << s.total_env_steps << "," << s.anomalies << ","
        << (s.lr_backoff ? 1 : 0);
    for (const agsc::core::OraclePair& pair : agsc::core::kOraclePairs) {
      csv << "," << ((s.oracle_fallbacks & pair.bit) != 0 ? 1 : 0);
    }
    csv << "\n";
  }
  if (!agsc::util::AtomicWriteFileRetry(path, csv.str(), policy)) {
    std::cerr << "failed to write stats CSV " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agsc;
  util::InstallShutdownHandler();
  cli::TrainArgs args;
  if (const std::optional<int> exit = cli::TrainFlags(args).Parse(argc, argv)) {
    return *exit;
  }

  env::EnvConfig& env_config = args.scenario.env;
  // Training consumes only each slot's last events; the full per-slot event
  // log is needed just for the trajectory/coordination renders.
  env_config.record_event_log = args.render;
  const std::string config_error = env_config.Validate();
  if (!config_error.empty()) {
    std::cerr << "invalid configuration: " << config_error << "\n";
    return util::kExitConfig;
  }
  core::TrainConfig& train = args.scenario.train;
  const map::Dataset dataset =
      map::BuildDataset(args.scenario.campus, env_config.num_pois);
  env::ScEnv env(env_config, dataset, train.seed);

  if (train.proc_workers > 0 && train.worker_binary.empty()) {
    // Default: the agsc_worker binary built next to this trainer.
    std::error_code ec;
    std::filesystem::path self = std::filesystem::canonical(argv[0], ec);
    train.worker_binary =
        ((ec ? std::filesystem::path(argv[0]) : self).parent_path() /
         "agsc_worker")
            .string();
  }
  if (args.num_workers > 0) train.num_workers = args.num_workers;
  if (args.remote_workers > 0) {
    // Remote mode reuses the proc-sampler machinery; the worker binary is
    // whatever the operator launches against --listen.
    train.proc_workers = args.remote_workers;
  }
  train.verbose = !args.quiet;
  train.watchdog_ms = static_cast<long>(args.watchdog_sec) * 1000;
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
    // Publish the bound port (resolves --listen HOST:0): the harness or
    // operator polls for this file.
    const int port = trainer.SamplerBoundPort();
    if (!cli::WritePortFile(args.port_file, port)) {
      std::cerr << "failed to write --port-file " << args.port_file << "\n";
      return util::kExitIoError;
    }
    if (!args.quiet) {
      std::cout << "listening on " << train.listen_address << " (port "
                << port << ", published to " << args.port_file << ")\n";
    }
  }

  if (args.resume) {
    std::error_code ec;
    if (trainer.LoadLatestCheckpoint(train.checkpoint_dir)) {
      std::cout << "resumed from " << train.checkpoint_dir << " at iteration "
                << trainer.iteration() << "\n";
    } else if (!core::ListCheckpointFiles(train.checkpoint_dir, ec).empty()) {
      // Checkpoints exist but none is loadable into THIS configuration:
      // almost always a config/architecture mismatch. Refuse to silently
      // retrain from scratch next to data we can't read.
      std::cerr << "resume mismatch: " << train.checkpoint_dir
                << " contains checkpoints but none loads with this "
                << "configuration (see log above)\n";
      return util::kExitResumeMismatch;
    } else {
      std::cout << "no checkpoint in " << train.checkpoint_dir
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

  if (train.iterations > 0) {
    std::cout << "training " << train.iterations << " iterations on "
              << dataset.campus.name << " ("
              << trainer.TotalParameterCount() << " parameters)...\n";
    try {
      trainer.TrainTo(train.iterations);
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

  if (args.eval_episodes == 0) {
    // An all-zero metric table would read as a useless policy.
    std::cout << "no evaluation ran (--eval 0)\n";
  } else {
    core::EvalResult result;
    try {
      result =
          core::Evaluate(env, trainer, args.eval_episodes, train.seed + 99);
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
  }
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
