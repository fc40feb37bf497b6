#include "tools/cli.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "nn/tensor.h"
#include "util/build_info.h"
#include "util/exit_codes.h"

namespace agsc::cli {

namespace {

constexpr int kMaxInt = 1000000000;

std::string Format(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

/// The shared scenario group (see Scenario).
void AddScenarioFlags(FlagTable& t, Scenario& s) {
  env::EnvConfig& e = s.env;
  t.Choice("--campus", {"purdue", "ncsu"}, &s.campus, "campus map");
  t.Int("--timeslots", "T", 1, kMaxInt, &e.num_timeslots,
        "timeslots per episode");
  t.Int("--pois", "I", 1, kMaxInt, &e.num_pois, "points of interest");
  t.Int("--uavs", "U", 0, kMaxInt, &e.num_uavs, "UAVs");
  t.Int("--ugvs", "G", 0, kMaxInt, &e.num_ugvs, "UGVs");
  t.Int("--subchannels", "Z", 1, kMaxInt, &e.num_subchannels,
        "NOMA subchannels");
  t.Double("--height", "M", 1e-6, 1e6, &e.uav_height, "UAV altitude in m");
  t.Double("--threshold", "DB", -1e6, 1e6, &e.sinr_threshold_db,
           "SINR threshold in dB");
  t.Choice("--medium", {"noma", "tdma", "ofdma"}, &e.medium_access,
           "uplink medium access");
  t.Switch("--env-channel-scalar", &e.use_channel_batch, false,
           "scalar per-link channel gains (the bit-identical oracle)");
  t.Switch("--env-fast-math", &e.env_fast_math, true,
           "polynomial channel transcendentals (not bit-identical)");
  t.Switch("--no-eoi", &s.train.use_eoi, false, "without the i-EOI reward");
  t.Switch("--no-copo", &s.train.use_copo, false, "without h-CoPO");
  t.Switch("--plain-copo", &s.train.hetero_copo, false,
           "CoPO without the heterogeneous/homogeneous split");
  t.Switch("--mappo", &s.train.base, core::BaseAlgo::kMappo,
           "MAPPO base instead of IPPO");
  t.Uint64("--seed", "S", &s.train.seed, "random seed");
}

}  // namespace

FlagTable::FlagTable(std::string program, std::string notes)
    : program_(std::move(program)), notes_(std::move(notes)) {
  Add(Flag::Kind::kHelp, "--help", "", "print this help and exit").alias =
      "-h";
  Add(Flag::Kind::kVersion, "--version", "",
      "print the build provenance and exit")
      .alias = "--build-info";
}

Flag& FlagTable::Add(Flag::Kind kind, std::string name, std::string metavar,
                     std::string help) {
  Flag& f = flags_.emplace_back();
  f.kind = kind;
  f.name = std::move(name);
  f.metavar = std::move(metavar);
  f.help = std::move(help);
  return f;
}

void FlagTable::Double(std::string name, std::string metavar, double lo,
                       double hi, double* target, std::string help) {
  Flag& f = Add(Flag::Kind::kDouble, std::move(name), std::move(metavar),
                std::move(help));
  f.expected = "number in [" + Format(lo) + ", " + Format(hi) + "]";
  f.lo = lo;
  f.hi = hi;
  f.default_value = Format(*target);
  f.set = [lo, hi, target](const std::string& text) {
    return util::ParseDoubleInRange(text, lo, hi, target);
  };
}

void FlagTable::Uint64(std::string name, std::string metavar,
                       uint64_t* target, std::string help) {
  Flag& f = Add(Flag::Kind::kUint64, std::move(name), std::move(metavar),
                std::move(help));
  f.expected = "unsigned integer";
  f.default_value = std::to_string(*target);
  f.set = [target](const std::string& text) {
    return util::ParseUint64(text, target);
  };
}

void FlagTable::Text(std::string name, std::string metavar,
                     std::string* target, std::string help) {
  Flag& f = Add(Flag::Kind::kText, std::move(name), std::move(metavar),
                std::move(help));
  f.default_value = *target;
  f.set = [target](const std::string& text) {
    *target = text;
    return true;
  };
}

void FlagTable::Rule(std::string message, std::function<bool()> broken) {
  rules_.emplace_back(std::move(message), std::move(broken));
}

std::optional<int> FlagTable::Parse(int argc, const char* const* argv,
                                    std::ostream& out, std::ostream& err) {
  const auto refuse = [&](const std::string& message) {
    err << message << "\n";
    PrintHelp(err);
    return util::kExitUsage;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto entry =
        std::find_if(flags_.begin(), flags_.end(), [&](const Flag& f) {
          return f.name == arg || (!f.alias.empty() && f.alias == arg);
        });
    if (entry == flags_.end()) return refuse("unknown flag: " + arg);
    if (entry->kind == Flag::Kind::kHelp) {
      PrintHelp(out);
      return util::kExitOk;
    }
    if (entry->kind == Flag::Kind::kVersion) {
      out << program_ << " "
          << util::BuildInfoString(std::string("gemm-isa=") +
                                   nn::ActiveGemmIsaName())
          << "\n";
      return util::kExitOk;
    }
    std::string value;
    if (!entry->metavar.empty()) {
      if (i + 1 >= argc) return refuse("missing value for " + entry->name);
      value = argv[++i];
    }
    if (!entry->set(value)) {
      return refuse("invalid value for " + entry->name + ": '" + value +
                    "' (expected " + entry->expected + ")");
    }
  }
  for (const auto& [message, broken] : rules_) {
    if (broken()) return refuse(message);
  }
  return std::nullopt;
}

void FlagTable::PrintHelp(std::ostream& out) const {
  const auto spelling = [](const Flag& f) {
    std::string s = f.name;
    if (!f.alias.empty()) s += ", " + f.alias;
    if (!f.metavar.empty()) s += " " + f.metavar;
    return s;
  };
  size_t width = 0;
  for (const Flag& f : flags_) width = std::max(width, spelling(f).size());
  out << "usage: " << program_ << " [FLAG]...\n";
  for (const Flag& f : flags_) {
    std::string line = "  " + spelling(f);
    line.resize(width + 4, ' ');
    line += f.help;
    std::string facts = f.kind == Flag::Kind::kChoice ? "" : f.expected;
    if (!f.default_value.empty()) {
      facts += (facts.empty() ? "default " : ", default ") + f.default_value;
    }
    if (!facts.empty()) line += " (" + facts + ")";
    out << line << "\n";
  }
  out << notes_;
}

FlagTable TrainFlags(TrainArgs& a) {
  core::TrainConfig& train = a.scenario.train;
  train.iterations = 30;
  FlagTable t("agsc_train",
              "exit codes: 0 ok, 2 usage, 3 config, 4 io, 5 resume-mismatch,\n"
              "  6 diverged, 7 watchdog-timeout, 8 signal-stop, 9 abort,\n"
              "  10 worker-failed, 12 net-error\n");
  AddScenarioFlags(t, a.scenario);
  t.Int("--iterations", "N", 0, kMaxInt, &train.iterations,
        "training iterations");
  t.Int("--eval", "N", 0, kMaxInt, &a.eval_episodes,
        "evaluation episodes after training");
  t.Int("--num-workers", "W", 1, 1024, &a.num_workers,
        "in-process rollout workers; default 1");
  t.Int("--proc-workers", "W", 1, 1024, &train.proc_workers,
        "rollout workers as agsc_worker subprocesses");
  t.Text("--worker-binary", "PATH", &train.worker_binary,
         "agsc_worker for --proc-workers; default: the one beside agsc_train");
  t.Text("--listen", "HOST:PORT", &train.listen_address,
         "accept --remote-workers here; port 0 = kernel-assigned");
  t.Int("--remote-workers", "W", 1, 1024, &a.remote_workers,
        "rollout workers started elsewhere with agsc_worker --connect");
  t.Text("--port-file", "FILE", &a.port_file,
         "publish the bound --listen port in FILE");
  t.Switch("--nn-naive", &train.nn_naive_kernels, true,
           "reference GEMM kernels (bit-identical, slower)");
  t.Switch("--env-naive", &a.scenario.env.use_spatial_index, false,
           "linear-scan env reference paths (bit-identical, slower)");
  t.Text("--save", "FILE", &a.save_path, "save a checkpoint after training");
  t.Text("--load", "FILE", &a.load_path, "load a checkpoint first");
  t.Text("--checkpoint-dir", "DIR", &train.checkpoint_dir,
         "directory of periodic crash-safe checkpoints");
  t.Int("--checkpoint-every", "N", 1, kMaxInt, &train.checkpoint_every,
        "iterations between periodic checkpoints");
  t.Int("--checkpoint-keep", "K", 1, kMaxInt, &train.checkpoint_keep,
        "periodic checkpoints kept");
  t.Switch("--resume", &a.resume, true,
           "resume from the newest valid checkpoint in --checkpoint-dir");
  t.Text("--stats-csv", "FILE", &a.stats_csv,
         "one row of training diagnostics per iteration");
  t.Int("--watchdog-sec", "S", 0, 86400, &a.watchdog_sec,
        "seconds a rollout step may hang, 0 = off");
  t.Int("--oracle-check-every", "N", 0, kMaxInt, &train.oracle_check_every,
        "iterations between oracle cross-checks, 0 = off");
  t.Int("--max-backoffs", "N", 0, kMaxInt, &train.max_lr_backoffs,
        "learning-rate backoffs before exiting diverged, 0 = never");
  t.Switch("--render", &a.render, true, "print the trajectories at the end");
  t.Switch("--quiet", &a.quiet, true, "no per-iteration lines");
  t.Rule("--resume requires --checkpoint-dir",
         [&a] { return a.resume && a.scenario.train.checkpoint_dir.empty(); });
  // The flag's range starts at 1 and TrainConfig's default is 0, so a
  // positive value means it was given.
  t.Rule("--checkpoint-every requires --checkpoint-dir", [&a] {
    return a.scenario.train.checkpoint_every > 0 &&
           a.scenario.train.checkpoint_dir.empty();
  });
  t.Rule("--worker-binary requires --proc-workers", [&a] {
    return !a.scenario.train.worker_binary.empty() &&
           a.scenario.train.proc_workers == 0;
  });
  // A run is either in-process or subprocess mode, never a mix.
  t.Rule("--proc-workers and --num-workers are mutually exclusive",
         [&a] { return a.scenario.train.proc_workers > 0 && a.num_workers > 0; });
  t.Rule("--remote-workers is mutually exclusive with "
         "--num-workers/--proc-workers",
         [&a] {
           return a.remote_workers > 0 &&
                  (a.num_workers > 0 || a.scenario.train.proc_workers > 0);
         });
  t.Rule("--remote-workers requires --listen HOST:PORT", [&a] {
    return a.remote_workers > 0 && a.scenario.train.listen_address.empty();
  });
  t.Rule("--listen requires --remote-workers W", [&a] {
    return !a.scenario.train.listen_address.empty() && a.remote_workers == 0;
  });
  t.Rule("--port-file requires --listen", [&a] {
    return !a.port_file.empty() && a.scenario.train.listen_address.empty();
  });
  return t;
}

FlagTable ServeFlags(ServeArgs& a) {
  core::DispatchConfig& d = a.dispatch;
  core::ServeFrontend::Options& f = a.frontend;
  d.num_sessions = 4;
  FlagTable t("agsc_serve",
              "exit codes: 0 ok, 2 usage, 3 config, 4 io, 8 signal-stop,\n"
              "  11 serve-error, 12 net-error\n");
  AddScenarioFlags(t, a.scenario);
  t.Text("--snapshot", "FILE", &a.snapshot_path,
         "serve one fixed checkpoint file");
  t.Text("--snapshot-dir", "DIR", &a.snapshot_dir,
         "serve the newest loadable ckpt_*.agsc in DIR");
  t.Switch("--watch", &a.watch, true,
           "poll --snapshot-dir and promote new checkpoints live");
  t.Int("--watch-poll-ms", "MS", 1, 3600000, &a.watch_poll_ms,
        "--watch poll interval");
  t.Int("--max-batch", "N", 1, 65536, &d.max_batch,
        "rows fused into one inference GEMM");
  t.Int("--deadline-ms", "MS", 0, 3600000, &d.deadline_ms,
        "per-request deadline, 0 = none; late requests expire");
  t.Int("--max-queue", "N", 0, kMaxInt, &d.max_queue,
        "admission queue bound, 0 = unbounded");
  t.Int("--per-client-inflight", "N", 0, kMaxInt, &d.per_client_inflight,
        "one client's admitted-but-unserved requests, 0 = unlimited");
  t.Int("--admission", "0|1", 0, 1, &d.admission,
        "deadline-aware early rejection, 0 = queue bound only");
  t.Int("--sessions", "S", 1, 4096, &d.num_sessions,
        "concurrent episode sessions");
  t.Int("--clients", "C", 1, 4096, &a.clients,
        "request threads; default: one per session, none with --listen");
  t.Int("--requests", "N", 0, kMaxInt, &a.requests,
        "steps per client, 0 = until --duration-sec");
  t.Int("--duration-sec", "S", 0, 86400, &a.duration_sec,
        "serving time limit, 0 = none");
  t.Text("--stats-json", "FILE", &a.stats_json,
         "final serving stats, written atomically");
  t.Text("--listen", "HOST:PORT", &f.listen_address,
         "also serve framed TCP clients; port 0 = kernel-assigned");
  t.Text("--port-file", "FILE", &a.port_file,
         "publish the bound --listen port in FILE");
  t.Int("--write-budget-ms", "MS", 1, 3600000, &f.write_timeout_ms,
        "quarantine a TCP client whose reply writes stall this long");
  t.Int("--listen-sndbuf", "BYTES", 0, kMaxInt, &f.send_buffer_bytes,
        "SO_SNDBUF of accepted sockets, 0 = OS default");
  t.Int("--max-pipeline", "N", 1, 65536, &f.max_pipeline,
        "in-flight requests per TCP connection");
  t.Switch("--quiet", &a.quiet, true, "no progress lines");
  t.Rule("one of --snapshot or --snapshot-dir is required",
         [&a] { return a.snapshot_path.empty() && a.snapshot_dir.empty(); });
  t.Rule("--watch requires --snapshot-dir",
         [&a] { return a.watch && a.snapshot_dir.empty(); });
  // A listening server is legitimately unbounded (stopped by signal); a
  // pure local client fleet is not.
  t.Rule("unbounded run: give --requests N or --duration-sec S", [&a] {
    return a.requests == 0 && a.duration_sec == 0 &&
           a.frontend.listen_address.empty();
  });
  t.Rule("--port-file requires --listen", [&a] {
    return !a.port_file.empty() && a.frontend.listen_address.empty();
  });
  return t;
}

FlagTable WorkerFlags(WorkerArgs& a) {
  FlagTable t(
      "agsc_worker",
      "Rollout worker for agsc_train. Without --connect it speaks the\n"
      "framed worker protocol on stdin/stdout (spawned by --proc-workers N\n"
      "and not meant to be run by hand). With --connect it registers its\n"
      "--worker-id slot with a trainer listening via --listen/\n"
      "--remote-workers N, and reconnects with bounded backoff if the\n"
      "connection drops.\n");
  t.Int("--worker-id", "N", 0, 1 << 20, &a.worker_id, "worker slot");
  t.Int("--incarnation", "N", 0, 1 << 20, &a.incarnation,
        "respawn count, set by the trainer");
  t.Text("--connect", "HOST:PORT", &a.connect,
         "register with a trainer's --listen instead of using stdin/stdout");
  t.Int("--connect-timeout-ms", "MS", 1, 1 << 30, &a.connect_timeout_ms,
        "TCP connect timeout");
  t.Int("--connect-retries", "N", 1, 1 << 20, &a.connect_retries,
        "connect attempts before giving up");
  return t;
}

bool WritePortFile(const std::string& path, int port) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  out << port << "\n";
  out.close();
  std::error_code ec;
  return out && (std::filesystem::rename(tmp, path, ec), !ec);
}

}  // namespace agsc::cli
