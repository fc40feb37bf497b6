// agsc_worker: one crash-isolated rollout worker process.
//
// Two transports, one protocol (core/worker_protocol over util/ipc frames):
//  * local (default): spawned by the trainer's ProcSampler
//    (`agsc_train --proc-workers N`) and driven over stdin/stdout pipes;
//    stderr carries diagnostics.
//  * remote (`--connect HOST:PORT`): launched externally (another host,
//    a supervisor script, a test harness) against a trainer listening via
//    `agsc_train --listen ... --remote-workers N`. Each fresh TCP
//    connection opens with a kMsgRegister frame claiming this worker's
//    `--worker-id` slot; a dropped connection (trainer-side escalation or
//    a real network fault) is answered by reconnecting with bounded
//    backoff and re-registering — the trainer replays the episode prefix,
//    so the rollout stays bit-identical.
//
// The worker owns a single environment replica rebuilt deterministically
// from the kMsgInit frame and steps it under the trainer's direction; the
// trainer keeps the policy, the sampling RNG streams, and the rollout
// buffers, so a worker crash loses nothing that cannot be replayed.
//
// Lifecycle contract: the worker never outlives its transport. EOF on
// stdin — the trainer died or dropped this incarnation — is a clean exit;
// EOF on a socket triggers a reconnect. A protocol violation is a loud
// nonzero exit (local) or a reconnect (remote; the trainer observes EOF
// and replays). SIGINT/SIGTERM are ignored: a terminal ^C must reach only
// the trainer, which winds the fleet down cooperatively (kMsgShutdown /
// transport close), and SIGKILL remains the trainer's escalation path for
// a hung local worker.

#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/oracle_guard.h"
#include "core/worker_protocol.h"
#include "env/sc_env.h"
#include "map/trace.h"
#include "tools/cli.h"
#include "util/env_flags.h"
#include "util/exit_codes.h"
#include "util/fault_inject.h"
#include "util/ipc.h"
#include "util/logging.h"
#include "util/net.h"
#include "util/retry.h"

namespace {

using agsc::core::DecodeEpisodePrefix;
using agsc::core::DecodeWorkerActions;
using agsc::core::DecodeWorkerInit;
using agsc::core::EncodeWorkerHello;
using agsc::core::EncodeWorkerRegister;
using agsc::core::EncodeWorkerStepResult;
using agsc::core::EpisodePrefix;
using agsc::core::WorkerActions;
using agsc::core::WorkerHello;
using agsc::core::WorkerInit;
using agsc::core::WorkerRegister;
using agsc::core::WorkerStepResult;

/// Packages one Reset/Step outcome (plus the post-step RNG position and,
/// when the episode ended, its metrics) for the wire.
WorkerStepResult BuildResult(agsc::env::ScEnv& env,
                             const agsc::env::StepResult& step,
                             bool is_reset) {
  WorkerStepResult result;
  result.is_reset = is_reset;
  result.done = step.done;
  result.observations = step.observations;
  result.state = step.state;
  if (!is_reset) {
    result.rewards = step.rewards;
    const int num_agents = env.num_agents();
    result.he_neighbors.resize(static_cast<size_t>(num_agents));
    result.ho_neighbors.resize(static_cast<size_t>(num_agents));
    for (int k = 0; k < num_agents; ++k) {
      const std::vector<int> he = env.HeterogeneousNeighbors(k);
      const std::vector<int> ho = env.HomogeneousNeighbors(k);
      result.he_neighbors[static_cast<size_t>(k)].assign(he.begin(), he.end());
      result.ho_neighbors[static_cast<size_t>(k)].assign(ho.begin(), ho.end());
    }
    if (step.done) result.metrics = env.EpisodeMetrics();
  }
  result.rng_state = env.rng().SaveState();
  return result;
}

void ToUvActions(const WorkerActions& actions,
                 std::vector<agsc::env::UvAction>& out) {
  out.resize(actions.per_agent.size());
  for (size_t k = 0; k < actions.per_agent.size(); ++k) {
    out[k] = {actions.per_agent[k][0], actions.per_agent[k][1]};
  }
}

/// Arms/disarms the process-global fault campaigns for one session.
/// `incarnation` is the local --incarnation flag or the remote connection
/// counter; faults target (worker id, incarnation 0) except STALL_READS,
/// which carries its own incarnation knob so a stall can be aimed at a
/// *respawned* incarnation's large replay prefix.
void ScopeWorkerFaults(int worker_id, int incarnation) {
  agsc::util::FaultInjector& faults = agsc::util::FaultInjector::Instance();
  const int fault_target = agsc::util::GetEnvOr("AGSC_FAULT_WORKER_ID", -1);
  const int stall_reads_incarnation =
      agsc::util::GetEnvOr("AGSC_FAULT_STALL_READS_INCARNATION", 0);
  if (fault_target >= 0 && fault_target != worker_id) {
    faults.DisarmWorkerFaults();
    faults.DisarmReadStallFault();
    return;
  }
  if (incarnation != 0) faults.DisarmWorkerFaults();
  if (incarnation != stall_reads_incarnation) faults.DisarmReadStallFault();
}

/// Outcome of one session (one pipe lifetime / one TCP connection).
enum class SessionEnd {
  kShutdown,   ///< kMsgShutdown or clean EOF: exit 0.
  kReconnect,  ///< Remote only: transport fault/drop; reconnect + replay.
  kFailure,    ///< Fatal: exit with the returned code.
};

/// Drives one init -> hello -> episodes conversation over an established
/// transport. `out_seq` continues the writer's sequence (remote sessions
/// already spent seq 0 on kMsgRegister). On kFailure, `*exit_code` holds
/// the exit code.
SessionEnd RunSession(agsc::util::FrameReader& reader,
                      agsc::util::FrameWriter& writer, uint64_t out_seq,
                      int worker_id, int incarnation, bool is_remote,
                      int* exit_code) {
  ScopeWorkerFaults(worker_id, incarnation);
  agsc::util::FaultInjector& faults = agsc::util::FaultInjector::Instance();
  *exit_code = agsc::util::kExitOk;

  const auto fail = [&](int code) {
    if (is_remote) return SessionEnd::kReconnect;
    *exit_code = code;
    return SessionEnd::kFailure;
  };

  const auto send_result = [&](const WorkerStepResult& result) {
    const agsc::util::FaultInjector::FrameFault fault =
        faults.NextFrameFault();
    if (fault.stall_ms > 0) {
      AGSC_LOG(kWarning) << "worker " << worker_id
                         << ": injected pipe stall of " << fault.stall_ms
                         << " ms";
      ::usleep(static_cast<useconds_t>(fault.stall_ms) * 1000);
    }
    if (fault.corrupt_byte >= 0) {
      AGSC_LOG(kWarning) << "worker " << worker_id
                         << ": injected frame corruption";
    }
    return writer.Write(agsc::core::kMsgStepResult, out_seq++,
                        EncodeWorkerStepResult(result), /*timeout_ms=*/-1,
                        fault.corrupt_byte) == agsc::util::IpcStatus::kOk;
  };

  // Injected read-side faults (STALL_READS / DROP_CONN), consulted before
  // every incoming frame. Returns false when the session must drop.
  const auto apply_read_fault = [&]() {
    const agsc::util::FaultInjector::ReadFault fault = faults.NextReadFault();
    if (fault.stall_ms > 0) {
      AGSC_LOG(kWarning) << "worker " << worker_id
                         << ": injected read stall of " << fault.stall_ms
                         << " ms (peer stops draining)";
      ::usleep(static_cast<useconds_t>(fault.stall_ms) * 1000);
    }
    if (fault.drop) {
      AGSC_LOG(kWarning) << "worker " << worker_id
                         << ": injected connection drop";
      return false;
    }
    return true;
  };

  // --- Handshake: kMsgInit -> rebuild the env -> kMsgHello. ---
  agsc::util::Frame frame;
  if (!apply_read_fault()) return fail(agsc::util::kExitIoError);
  agsc::util::IpcStatus status = reader.Read(frame, /*timeout_ms=*/-1);
  if (status == agsc::util::IpcStatus::kEof) return SessionEnd::kShutdown;
  if (status != agsc::util::IpcStatus::kOk ||
      frame.type != agsc::core::kMsgInit) {
    AGSC_LOG(kError) << "worker " << worker_id << ": bad init frame ("
                     << agsc::util::IpcStatusName(status) << ")";
    return fail(agsc::util::kExitIoError);
  }
  WorkerInit init;
  if (!DecodeWorkerInit(frame.payload, init)) {
    AGSC_LOG(kError) << "worker " << worker_id
                     << ": init payload rejected (protocol/config mismatch)";
    *exit_code = agsc::util::kExitConfig;
    return SessionEnd::kFailure;
  }

  std::unique_ptr<agsc::env::ScEnv> env;
  try {
    // The ctor seed is irrelevant: every episode prefix loads the exact RNG
    // state this shard's stream is at, so the env is reconstructible from
    // (campus, config) alone.
    env = std::make_unique<agsc::env::ScEnv>(
        init.config, agsc::map::BuildDataset(init.campus, init.config.num_pois),
        /*seed=*/0);
  } catch (const std::exception& e) {
    AGSC_LOG(kError) << "worker " << worker_id
                     << ": env rebuild failed: " << e.what();
    *exit_code = agsc::util::kExitConfig;
    return SessionEnd::kFailure;
  }

  WorkerHello hello;
  hello.worker_id = worker_id;
  hello.num_agents = env->num_agents();
  hello.obs_dim = env->obs_dim();
  hello.state_dim = env->state_dim();
  if (writer.Write(agsc::core::kMsgHello, out_seq++,
                   EncodeWorkerHello(hello)) != agsc::util::IpcStatus::kOk) {
    return fail(agsc::util::kExitIoError);
  }

  // --- Steady state: episode prefixes and steps until shutdown/EOF. ---
  agsc::env::StepResult step;
  std::vector<agsc::env::UvAction> uv_actions;
  for (;;) {
    if (!apply_read_fault()) return fail(agsc::util::kExitIoError);
    status = reader.Read(frame, /*timeout_ms=*/-1);
    if (status == agsc::util::IpcStatus::kEof) {
      return is_remote ? SessionEnd::kReconnect : SessionEnd::kShutdown;
    }
    if (status != agsc::util::IpcStatus::kOk) {
      AGSC_LOG(kError) << "worker " << worker_id << ": transport "
                       << agsc::util::IpcStatusName(status)
                       << (is_remote ? "; reconnecting" : "; exiting");
      return fail(agsc::util::kExitIoError);
    }

    switch (frame.type) {
      case agsc::core::kMsgShutdown:
        return SessionEnd::kShutdown;

      case agsc::core::kMsgEpisodePrefix: {
        EpisodePrefix prefix;
        if (!DecodeEpisodePrefix(frame.payload, prefix)) {
          AGSC_LOG(kError) << "worker " << worker_id
                           << ": episode prefix rejected";
          *exit_code = agsc::util::kExitConfig;
          return SessionEnd::kFailure;
        }
        agsc::core::ApplyEnvFallbacks(prefix.flags, *env);
        env->rng().LoadState(prefix.rng_state);
        env->Reset(step);
        bool replayed = false;
        for (const WorkerActions& actions : prefix.replay) {
          ToUvActions(actions, uv_actions);
          env->Step(uv_actions, step);
          replayed = true;
        }
        if (!send_result(BuildResult(*env, step, !replayed))) {
          return fail(agsc::util::kExitIoError);
        }
        break;
      }

      case agsc::core::kMsgStep: {
        if (faults.KillWorkerNow()) {
          AGSC_LOG(kWarning) << "worker " << worker_id
                             << ": injected SIGKILL (KILL_WORKER_NTH)";
          ::raise(SIGKILL);
        }
        WorkerActions actions;
        if (!DecodeWorkerActions(frame.payload, actions) ||
            static_cast<int>(actions.per_agent.size()) !=
                env->num_agents()) {
          AGSC_LOG(kError) << "worker " << worker_id
                           << ": step actions rejected";
          *exit_code = agsc::util::kExitConfig;
          return SessionEnd::kFailure;
        }
        ToUvActions(actions, uv_actions);
        env->Step(uv_actions, step);
        if (!send_result(BuildResult(*env, step, /*is_reset=*/false))) {
          return fail(agsc::util::kExitIoError);
        }
        break;
      }

      default:
        AGSC_LOG(kError) << "worker " << worker_id
                         << ": unexpected frame type " << frame.type;
        *exit_code = agsc::util::kExitConfig;
        return SessionEnd::kFailure;
    }
  }
}

void IgnoreTerminalSignals() {
  // The protocol owns the transport; only the trainer may end this process
  // (transport close or SIGKILL), so terminal signals are ignored and a
  // dead peer must surface as EPIPE/EOF rather than a signal death.
  ::signal(SIGINT, SIG_IGN);
  ::signal(SIGTERM, SIG_IGN);
  agsc::util::IgnoreSigpipe();
}

int PipeMain(int worker_id, int incarnation) {
  IgnoreTerminalSignals();
  agsc::util::FrameReader reader(STDIN_FILENO);
  agsc::util::FrameWriter writer(STDOUT_FILENO);
  int exit_code = agsc::util::kExitOk;
  const SessionEnd end = RunSession(reader, writer, /*out_seq=*/0, worker_id,
                                    incarnation, /*is_remote=*/false,
                                    &exit_code);
  // kReconnect cannot happen on a pipe (RunSession maps faults to
  // kFailure); kShutdown is the clean exit.
  return end == SessionEnd::kFailure ? exit_code : agsc::util::kExitOk;
}

int ConnectMain(const std::string& host, int port, int worker_id,
                long connect_timeout_ms, int connect_retries) {
  IgnoreTerminalSignals();
  agsc::util::RetryPolicy policy;
  policy.max_attempts = connect_retries;
  policy.initial_backoff_ms = 50;
  policy.backoff_multiplier = 1.5;
  policy.max_backoff_ms = 1000;
  int connect_seq = 0;
  for (;;) {
    std::string error;
    const int fd = agsc::util::TcpConnectWithRetry(
        host, port, connect_timeout_ms, policy, nullptr, &error);
    if (fd < 0) {
      AGSC_LOG(kError) << "worker " << worker_id << ": cannot reach trainer "
                       << host << ":" << port << " (" << error << "); exiting "
                       << agsc::util::ExitCodeName(agsc::util::kExitNetError);
      return agsc::util::kExitNetError;
    }
    agsc::util::FrameWriter writer(fd);
    agsc::util::FrameReader reader(fd);
    WorkerRegister reg;
    reg.worker_id = worker_id;
    reg.connect_seq = connect_seq;
    SessionEnd end = SessionEnd::kReconnect;
    int exit_code = agsc::util::kExitOk;
    if (writer.Write(agsc::core::kMsgRegister, /*seq=*/0,
                     EncodeWorkerRegister(reg), /*timeout_ms=*/10000) ==
        agsc::util::IpcStatus::kOk) {
      end = RunSession(reader, writer, /*out_seq=*/1, worker_id,
                       /*incarnation=*/connect_seq, /*is_remote=*/true,
                       &exit_code);
    }
    ::close(fd);
    if (end == SessionEnd::kShutdown) return agsc::util::kExitOk;
    if (end == SessionEnd::kFailure) return exit_code;
    ++connect_seq;
    AGSC_LOG(kWarning) << "worker " << worker_id
                       << ": connection ended; reconnecting (connect_seq="
                       << connect_seq << ")";
  }
}

}  // namespace

int main(int argc, char** argv) {
  agsc::cli::WorkerArgs args;
  if (const std::optional<int> exit =
          agsc::cli::WorkerFlags(args).Parse(argc, argv)) {
    return *exit;
  }
  const std::string& connect = args.connect;
  if (connect.empty()) return PipeMain(args.worker_id, args.incarnation);
  std::string host;
  int port = 0;
  std::string parse_error;
  if (!agsc::util::ParseHostPort(connect, &host, &port, &parse_error)) {
    std::fprintf(stderr, "agsc_worker: bad --connect address: %s\n",
                 parse_error.c_str());
    return agsc::util::kExitUsage;
  }
  if (port == 0) {
    std::fprintf(stderr,
                 "agsc_worker: bad --connect address '%s': port 0 is "
                 "listen-only (kernel-picked); connecting needs the "
                 "trainer's actual port\n",
                 connect.c_str());
    return agsc::util::kExitUsage;
  }
  return ConnectMain(host, port, args.worker_id, args.connect_timeout_ms,
                     args.connect_retries);
}
