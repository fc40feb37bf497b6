// Low-latency policy dispatch service: the serving counterpart of
// agsc_train. `agsc_serve --help` lists the flags (tools/cli.cc holds the
// table).
//
// Boots a DispatchServer over `--sessions` concurrent episode sessions
// (env replicas on split RNG streams), loads the newest valid checkpoint
// as the initial policy snapshot, and drives `--clients` request threads
// that step their sessions through the batched inference path until
// `--requests` steps each (0 = unbounded), `--duration-sec` elapses, or a
// signal arrives. The env/arch flags must match the run that produced the
// checkpoints — a fingerprint mismatch is rejected like any corrupted file.
//
// Snapshot promotion: with --watch, a background watcher polls
// --snapshot-dir and promotes any new ckpt_*.agsc it finds via an atomic
// registry swap — request handling never pauses, in-flight batches finish
// on the snapshot they pinned. A corrupted/truncated/mismatched file is
// rejected loudly (counted in `publish_rejects`) and the last good
// snapshot stays live; only a missing *initial* snapshot is fatal.
//
// Network frontend: --listen HOST:PORT (port 0 = kernel-assigned,
// published via --port-file) additionally exposes Act/StepSession as
// framed request/response over TCP (core/serve_protocol — the same
// length-prefixed CRC frames the rollout workers speak). Remote requests
// run through the identical batched dispatch path as the in-process
// client fleet, with the same --deadline-ms fail-fast discipline, and
// return bit-identical actions. With --listen the local client fleet
// defaults to none and the process serves until --duration-sec or a
// signal.
//
// Overload control: --max-queue bounds the admission queue (0 =
// unbounded), --per-client-inflight caps any one client's admitted-but-
// unserved requests (0 = unlimited), and --admission 0 disables the
// deadline-aware early-reject estimator. Requests the server refuses get
// an explicit `rejected` status immediately — they never hang and never
// expire silently. Per-connection frontend budgets: --write-budget-ms is
// the slow-client quarantine threshold, --listen-sndbuf shrinks SO_SNDBUF
// on accepted sockets (testing aid), --max-pipeline bounds per-connection
// in-flight requests. The AGSC_FAULT_FLOOD_CLIENTS / FLOOD_DEPTH /
// STALL_DRAIN_MS / STALL_EVERY env knobs turn the local fleet (and any
// ServeClient) into misbehaving load generators for the soak campaign.
//
// On exit the final serving stats are flushed as JSON (atomically, with
// retry) to --stats-json. SIGINT/SIGTERM stop serving cooperatively: the
// stats still flush, and the process exits with code 8.
//
// Exit codes (util/exit_codes.h): 0 ok, 2 usage, 3 invalid config, 4 I/O
// error (stats flush failed), 8 clean signal stop, 11 serve-error (no
// loadable snapshot at startup), 12 net-error (unusable --listen
// address).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <future>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dispatch_server.h"
#include "core/hi_madrl.h"
#include "core/policy_snapshot.h"
#include "core/serve_protocol.h"
#include "tools/cli.h"
#include "util/build_info.h"
#include "util/exit_codes.h"
#include "util/fault_inject.h"
#include "util/net.h"
#include "util/retry.h"
#include "util/shutdown.h"

namespace {

/// Checkpoint files in `dir`, newest first by modification time (name as a
/// deterministic tie-break). Empty when the directory is missing/empty.
std::vector<std::string> CheckpointsNewestFirst(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::pair<fs::file_time_type, std::string>> found;
  for (const fs::path& path : agsc::core::ListCheckpointFiles(dir, ec)) {
    std::error_code time_ec;
    const fs::file_time_type mtime = fs::last_write_time(path, time_ec);
    found.emplace_back(time_ec ? fs::file_time_type::min() : mtime,
                       path.string());
  }
  std::sort(found.begin(), found.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second > b.second;
  });
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (auto& [mtime, path] : found) paths.push_back(std::move(path));
  return paths;
}

/// Serializes the final serving stats as a flat JSON object.
std::string StatsJson(const agsc::core::DispatchConfig& d, int num_clients,
                      const agsc::core::DispatchStats& s, double elapsed_sec,
                      uint64_t client_steps) {
  std::ostringstream out;
  const double reqs =
      static_cast<double>(s.requests_ok + s.requests_expired);
  out << "{\n"
      << "  \"build\": \"" << agsc::util::BuildInfoString("") << "\",\n"
      << "  \"sessions\": " << d.num_sessions << ",\n"
      << "  \"clients\": " << num_clients << ",\n"
      << "  \"max_batch\": " << d.max_batch << ",\n"
      << "  \"deadline_ms\": " << d.deadline_ms << ",\n"
      << "  \"max_queue\": " << d.max_queue << ",\n"
      << "  \"per_client_inflight\": " << d.per_client_inflight << ",\n"
      << "  \"admission\": " << d.admission << ",\n"
      << "  \"elapsed_sec\": " << elapsed_sec << ",\n"
      << "  \"client_steps\": " << client_steps << ",\n"
      << "  \"requests_ok\": " << s.requests_ok << ",\n"
      << "  \"requests_expired\": " << s.requests_expired << ",\n"
      << "  \"requests_rejected\": " << s.requests_rejected << ",\n"
      << "  \"rejected_queue_full\": " << s.rejected_queue_full << ",\n"
      << "  \"rejected_client_cap\": " << s.rejected_client_cap << ",\n"
      << "  \"rejected_deadline\": " << s.rejected_deadline << ",\n"
      << "  \"requests_shed\": " << s.requests_shed << ",\n"
      << "  \"overload_entries\": " << s.overload_entries << ",\n"
      << "  \"overloaded\": " << (s.overloaded ? 1 : 0) << ",\n"
      << "  \"queue_depth\": " << s.queue_depth << ",\n"
      << "  \"ewma_batch_ms\": " << s.ewma_batch_ms << ",\n"
      << "  \"clients_quarantined\": " << s.clients_quarantined << ",\n"
      << "  \"requests_shutdown\": " << s.requests_shutdown << ",\n"
      << "  \"requests_no_snapshot\": " << s.requests_no_snapshot << ",\n"
      << "  \"requests_invalid\": " << s.requests_invalid << ",\n"
      << "  \"requests_per_sec\": "
      << (elapsed_sec > 0 ? reqs / elapsed_sec : 0.0) << ",\n"
      << "  \"batches\": " << s.batches << ",\n"
      << "  \"rows\": " << s.rows << ",\n"
      << "  \"publishes\": " << s.publishes << ",\n"
      << "  \"publish_rejects\": " << s.publish_rejects << ",\n"
      << "  \"episodes_completed\": " << s.episodes_completed << ",\n"
      << "  \"env_steps\": " << s.env_steps << ",\n"
      << "  \"latency_samples\": " << s.latency_samples << ",\n"
      << "  \"latency_p50_ms\": " << s.latency_p50_ms << ",\n"
      << "  \"latency_p99_ms\": " << s.latency_p99_ms << ",\n"
      << "  \"latency_max_ms\": " << s.latency_max_ms << "\n"
      << "}\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agsc;
  util::InstallShutdownHandler();
  // Arm any AGSC_FAULT_* flags up front (the soak test injects write
  // failures and batch stalls through the environment).
  util::FaultInjector::Instance();
  cli::ServeArgs args;
  if (const std::optional<int> exit = cli::ServeFlags(args).Parse(argc, argv)) {
    return *exit;
  }

  // Serving steps the env on the request path, so the channel tier flags
  // apply here too: --env-channel-scalar pins the bit-identical scalar
  // oracle, --env-fast-math trades libm bit patterns for vectorized
  // transcendentals (deterministic, bounded error).
  const env::EnvConfig& env_config = args.scenario.env;
  const std::string config_error = env_config.Validate();
  if (!config_error.empty()) {
    std::cerr << "invalid configuration: " << config_error << "\n";
    return util::kExitConfig;
  }
  // The staging trainer only exists to materialize networks of the right
  // architecture and load checkpoints into them; it never trains.
  const core::TrainConfig& train = args.scenario.train;
  const map::Dataset dataset =
      map::BuildDataset(args.scenario.campus, env_config.num_pois);
  env::ScEnv env(env_config, dataset, train.seed);
  core::HiMadrlTrainer staging(env, train);

  args.dispatch.seed = train.seed;
  core::DispatchServer server(env, args.dispatch);

  // Initial snapshot: the named file, or the newest loadable file in the
  // snapshot dir (skipping past corrupted ones). Nothing loadable is fatal
  // — a dispatch service without a policy cannot serve.
  std::string last_promoted;
  {
    std::vector<std::string> candidates;
    if (!args.snapshot_path.empty()) {
      candidates.push_back(args.snapshot_path);
    } else {
      candidates = CheckpointsNewestFirst(args.snapshot_dir);
    }
    std::string error;
    for (const std::string& path : candidates) {
      std::shared_ptr<core::PolicySnapshot> snapshot =
          core::LoadPolicySnapshot(staging, path, &error);
      if (snapshot != nullptr) {
        const uint64_t version = server.PublishSnapshot(std::move(snapshot));
        last_promoted = path;
        if (!args.quiet) {
          // Flushed immediately: this is the readiness line supervisors
          // (and the soak tests) wait on, and a redirected stdout is fully
          // buffered otherwise.
          std::cout << "serving snapshot v" << version << " from " << path
                    << std::endl;
        }
        break;
      }
      server.CountPublishReject();
      std::cerr << "rejected " << error << "\n";
    }
    if (last_promoted.empty()) {
      std::cerr << "serve-error: no loadable policy snapshot (looked at "
                << candidates.size() << " candidate(s))\n";
      return util::kExitServeError;
    }
  }

  server.Start();

  // Network frontend: framed Act/StepSession over TCP against the same
  // dispatch server the local client fleet uses.
  std::unique_ptr<core::ServeFrontend> frontend;
  const std::string& listen = args.frontend.listen_address;
  if (!listen.empty()) {
    try {
      frontend = std::make_unique<core::ServeFrontend>(server, args.frontend);
    } catch (const util::NetError& e) {
      std::cerr << "network setup failed ("
                << util::ExitCodeName(util::kExitNetError) << "): " << e.what()
                << "\n";
      return util::kExitNetError;
    }
    frontend->Start();
    if (!args.port_file.empty() &&
        !cli::WritePortFile(args.port_file, frontend->bound_port())) {
      std::cerr << "failed to write --port-file " << args.port_file << "\n";
      return util::kExitIoError;
    }
    if (!args.quiet) {
      // Also a readiness line — flush past the redirected-stdout buffer.
      std::cout << "listening on " << listen << " (port "
                << frontend->bound_port() << ")" << std::endl;
    }
  }

  // Checkpoint watcher: promote new files as the (simulated or real)
  // trainer drops them. Rejections keep the last good snapshot live.
  std::atomic<bool> watcher_stop{false};
  std::thread watcher;
  if (args.watch) {
    watcher = std::thread([&] {
      while (!watcher_stop.load(std::memory_order_relaxed) &&
             !util::ShutdownRequested()) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(args.watch_poll_ms));
        const std::vector<std::string> candidates =
            CheckpointsNewestFirst(args.snapshot_dir);
        if (candidates.empty() || candidates.front() == last_promoted) {
          continue;
        }
        std::string error;
        std::shared_ptr<core::PolicySnapshot> snapshot =
            core::LoadPolicySnapshot(staging, candidates.front(), &error);
        if (snapshot == nullptr) {
          server.CountPublishReject();
          std::cerr << "rejected " << error << " (keeping v"
                    << server.CurrentSnapshot()->version() << " live)\n";
          continue;
        }
        const uint64_t version = server.PublishSnapshot(std::move(snapshot));
        last_promoted = candidates.front();
        if (!args.quiet) {
          std::cout << "promoted snapshot v" << version << " from "
                    << last_promoted << "\n";
        }
      }
    });
  }

  // Client fleet: each thread steps its sessions round-robin through the
  // batched dispatch path. This is the simulated request stream; a network
  // frontend would enqueue the same StepSession/Act calls.
  const int num_clients =
      args.clients > 0 ? args.clients
                       : (listen.empty() ? args.dispatch.num_sessions : 0);
  const auto start_time = std::chrono::steady_clock::now();
  const auto deadline =
      args.duration_sec > 0
          ? start_time + std::chrono::seconds(args.duration_sec)
          : std::chrono::steady_clock::time_point::max();
  std::atomic<uint64_t> client_steps{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(num_clients));
  const int flood_clients = util::FaultInjector::Instance().FloodClients();
  const int flood_depth = util::FaultInjector::Instance().FloodDepth();
  for (int c = 0; c < num_clients; ++c) {
    const bool flooder = c < flood_clients;
    clients.emplace_back([&, c, flooder] {
      core::RequestOptions opts;
      opts.client = static_cast<uint64_t>(c);
      int session = c % server.num_sessions();
      if (!flooder) {
        // Well-behaved client: lock-step request/response.
        for (int n = 0; args.requests == 0 || n < args.requests; ++n) {
          if (util::ShutdownRequested()) break;
          if (std::chrono::steady_clock::now() >= deadline) break;
          const core::DispatchResult result =
              server.StepSession(session, opts);
          if (result.shutdown) break;
          client_steps.fetch_add(1, std::memory_order_relaxed);
          session = (session + num_clients) % server.num_sessions();
        }
        return;
      }
      // Flooding client (AGSC_FAULT_FLOOD_CLIENTS): keeps flood_depth
      // async requests in flight instead of pacing itself on responses —
      // the admission queue and per-client cap must contain it.
      std::deque<std::future<core::DispatchResult>> inflight;
      int sent = 0;
      bool stop = false;
      while (!stop || !inflight.empty()) {
        while (!stop &&
               inflight.size() < static_cast<size_t>(flood_depth) &&
               (args.requests == 0 || sent < args.requests)) {
          if (util::ShutdownRequested() ||
              std::chrono::steady_clock::now() >= deadline) {
            stop = true;
            break;
          }
          inflight.push_back(server.StepSessionAsync(session, opts));
          ++sent;
          session = (session + num_clients) % server.num_sessions();
        }
        if (args.requests != 0 && sent >= args.requests) stop = true;
        if (inflight.empty()) continue;
        const core::DispatchResult result = inflight.front().get();
        inflight.pop_front();
        if (result.shutdown) stop = true;
        if (result.ok) client_steps.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  if (frontend != nullptr && clients.empty()) {
    // Pure network server: serve until the duration elapses or a signal
    // lands (the local fleet otherwise bounds the run's lifetime).
    while (!util::ShutdownRequested() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  if (frontend != nullptr) frontend->Stop();
  watcher_stop.store(true, std::memory_order_relaxed);
  if (watcher.joinable()) watcher.join();
  server.Stop();

  const double elapsed_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start_time)
          .count();
  const core::DispatchStats stats = server.Stats();
  if (!args.quiet) {
    const double reqs =
        static_cast<double>(stats.requests_ok + stats.requests_expired);
    std::cout << "served " << stats.requests_ok << " ok, "
              << stats.requests_expired << " expired, "
              << stats.requests_rejected << " rejected, "
              << stats.requests_shed << " shed in " << elapsed_sec << "s ("
              << (elapsed_sec > 0 ? reqs / elapsed_sec : 0.0)
              << " req/s, p50 " << stats.latency_p50_ms << " ms, p99 "
              << stats.latency_p99_ms << " ms, " << stats.publishes
              << " publishes, " << stats.publish_rejects
              << " publish-rejects, " << stats.overload_entries
              << " overload entries, " << stats.clients_quarantined
              << " quarantined)\n";
  }

  // Final stats flush — also on signal stop. A persistent write failure is
  // an I/O error; the retry layer absorbs transient ones.
  if (!args.stats_json.empty()) {
    util::RetryPolicy policy;
    if (!util::AtomicWriteFileRetry(
            args.stats_json,
            StatsJson(args.dispatch, num_clients, stats, elapsed_sec,
                      client_steps.load()),
            policy)) {
      std::cerr << "failed to write stats JSON " << args.stats_json << "\n";
      return util::kExitIoError;
    }
  }
  if (util::ShutdownRequested()) {
    std::cerr << "stopped by signal " << util::ShutdownSignal()
              << " (stats flushed)\n";
    return util::kExitSignalStop;
  }
  return util::kExitOk;
}
