#include "core/proc_sampler.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/logging.h"

namespace agsc::core {

namespace {

// Extra read budget for an episode-prefix reply from a fresh incarnation:
// the worker first rebuilds its dataset/env, which the per-step deadline
// was never meant to cover.
constexpr long kSpawnGraceMs = 15000;

long RemainingMs(const std::chrono::steady_clock::time_point& deadline) {
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
      .count();
}

}  // namespace

ProcSampler::ProcSampler(env::ScEnv& primary_env, util::Rng& primary_rng,
                         int num_workers, uint64_t seed, Options options)
    : Sampler(primary_env, primary_rng, num_workers, seed),
      options_(std::move(options)) {
  if (!remote() && options_.worker_binary.empty()) {
    throw std::invalid_argument("ProcSampler: worker_binary is required");
  }
  set_step_deadline_ms(options_.step_deadline_ms);
  map::CampusId campus;
  if (!CampusIdFromName(primary_env.dataset().campus.name, campus)) {
    throw std::invalid_argument(
        "ProcSampler: environment dataset is not a named campus; worker "
        "processes cannot rebuild it");
  }
  // A worker dying between our poll and our write must surface as EPIPE on
  // that worker's pipe, not kill the whole trainer (socket sends are
  // already covered by MSG_NOSIGNAL in FrameWriter).
  util::IgnoreSigpipe();
  if (remote()) {
    std::string host;
    int port = 0;
    std::string parse_error;
    if (!util::ParseHostPort(options_.listen_address, &host, &port,
                             &parse_error)) {
      throw util::NetError("ProcSampler: bad listen address: " + parse_error);
    }
    std::string error;
    if (!listener_.Listen(host, port, &error)) {
      throw util::NetError("ProcSampler: cannot listen on '" +
                           options_.listen_address + "': " + error);
    }
    AGSC_LOG(kInfo) << "proc sampler: listening for " << num_workers
                    << " remote worker(s) on " << host << ":"
                    << listener_.bound_port();
  }

  env_mirrors_.reserve(static_cast<size_t>(num_workers - 1));
  for (int w = 1; w < num_workers; ++w) {
    env_mirrors_.push_back(InitialEnvStream(w));
  }
  workers_.resize(static_cast<size_t>(num_workers));
  episode_rng_.resize(static_cast<size_t>(num_workers));
  replay_log_.resize(static_cast<size_t>(num_workers));
  consecutive_failures_.assign(static_cast<size_t>(num_workers), 0);
  pending_prefix_.assign(static_cast<size_t>(num_workers), 0);
}

ProcSampler::~ProcSampler() {
  for (size_t w = 0; w < workers_.size(); ++w) {
    Worker& wk = workers_[w];
    if (wk.connected && wk.writer) {
      // Bounded: a wedged peer must not block the trainer's destructor.
      wk.writer->Write(kMsgShutdown, wk.out_seq++, std::string(),
                       /*timeout_ms=*/500);
      if (!remote()) {
        wk.proc.CloseStdin();
        wk.proc.Wait(nullptr, 500);
      }
    }
    if (wk.fd >= 0) {
      ::close(wk.fd);
      wk.fd = -1;
    }
    wk.proc.Reap();
  }
  for (auto& [id, pending] : parked_) {
    if (pending.fd >= 0) ::close(pending.fd);
  }
}

util::Rng& ProcSampler::env_stream(int w) {
  return w == 0 ? primary_env().rng()
                : env_mirrors_[static_cast<size_t>(w - 1)];
}

void ProcSampler::ResetTransport(Worker& wk) {
  if (wk.fd >= 0) {
    // Shutdown first: a straggler blocked mid-write on the far side must
    // observe the teardown immediately, and close alone can linger while
    // unread data sits in flight. The worker process survives (unlike a
    // local SIGKILL) and re-registers.
    ::shutdown(wk.fd, SHUT_RDWR);
    ::close(wk.fd);
    wk.fd = -1;
  }
  wk.proc.Reap();
  wk.reader.reset();
  wk.writer.reset();
  wk.out_seq = 0;
  wk.connected = false;
}

bool ProcSampler::SpawnLocal(int w) {
  Worker& wk = workers_[static_cast<size_t>(w)];
  const std::vector<std::string> argv = {
      options_.worker_binary,
      "--worker-id", std::to_string(w),
      "--incarnation", std::to_string(wk.incarnation)};
  if (!wk.proc.Start(argv)) return false;
  if (options_.send_buffer_bytes > 0) {
    // Test hook: a tiny pipe makes a large episode-prefix frame exceed the
    // kernel buffer, so a worker that stops draining trips the bounded
    // write instead of hiding behind buffering. Kernel clamps to >= 1 page.
    ::fcntl(wk.proc.stdin_fd(), F_SETPIPE_SZ, options_.send_buffer_bytes);
  }
  wk.reader = std::make_unique<util::FrameReader>(wk.proc.stdout_fd());
  wk.writer = std::make_unique<util::FrameWriter>(wk.proc.stdin_fd());
  return true;
}

bool ProcSampler::AttachRemote(int w) {
  Worker& wk = workers_[static_cast<size_t>(w)];
  const auto take = [&](PendingConn&& conn) {
    wk.fd = conn.fd;
    wk.reader = std::move(conn.reader);
    wk.writer = std::make_unique<util::FrameWriter>(wk.fd);
  };
  const auto parked = parked_.find(w);
  if (parked != parked_.end()) {
    take(std::move(parked->second));
    parked_.erase(parked);
    return true;
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.handshake_timeout_ms);
  for (;;) {
    const long remaining = std::max(0L, RemainingMs(deadline));
    const int fd = listener_.Accept(remaining);
    if (fd == -1) return false;  // Handshake budget exhausted.
    if (fd < 0) {
      AGSC_LOG(kWarning) << "proc sampler: accept failed";
      return false;
    }
    if (options_.send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes,
                   sizeof(options_.send_buffer_bytes));
    }
    PendingConn conn;
    conn.fd = fd;
    conn.reader = std::make_unique<util::FrameReader>(fd);
    util::Frame frame;
    const util::IpcStatus status = conn.reader->Read(frame, 5000);
    WorkerRegister reg;
    if (status != util::IpcStatus::kOk || frame.type != kMsgRegister ||
        !DecodeWorkerRegister(frame.payload, reg) ||
        reg.protocol_version != kWorkerProtocolVersion ||
        reg.worker_id < 0 || reg.worker_id >= num_workers()) {
      AGSC_LOG(kWarning) << "proc sampler: rejected a connection with a bad "
                            "registration ("
                         << util::IpcStatusName(status) << ")";
      ::close(fd);
      continue;
    }
    if (reg.worker_id == w) {
      take(std::move(conn));
      return true;
    }
    // Another slot registered first; park it (latest registration wins —
    // an older parked fd is a dead predecessor connection).
    PendingConn& slot = parked_[reg.worker_id];
    if (slot.fd >= 0) ::close(slot.fd);
    slot = std::move(conn);
  }
}

bool ProcSampler::Handshake(int w) {
  Worker& wk = workers_[static_cast<size_t>(w)];
  WorkerInit init;
  init.config = primary_env().config();
  if (!CampusIdFromName(primary_env().dataset().campus.name, init.campus)) {
    return false;  // Unreachable: the ctor validated the name.
  }
  if (wk.writer->Write(kMsgInit, wk.out_seq++, EncodeWorkerInit(init),
                       options_.handshake_timeout_ms) !=
      util::IpcStatus::kOk) {
    ResetTransport(wk);
    return false;
  }
  util::Frame frame;
  // Generous deadline: a worker that cannot say hello within a minute is
  // broken, not slow (the env rebuild takes well under that).
  const util::IpcStatus status =
      wk.reader->Read(frame, options_.handshake_timeout_ms);
  WorkerHello hello;
  if (status != util::IpcStatus::kOk || frame.type != kMsgHello ||
      !DecodeWorkerHello(frame.payload, hello) ||
      hello.protocol_version != kWorkerProtocolVersion ||
      hello.worker_id != w ||
      hello.num_agents != primary_env().num_agents() ||
      hello.obs_dim != primary_env().obs_dim() ||
      hello.state_dim != primary_env().state_dim()) {
    AGSC_LOG(kWarning) << "proc sampler: worker " << w
                       << " handshake failed ("
                       << util::IpcStatusName(status) << ")";
    ResetTransport(wk);
    return false;
  }
  wk.connected = true;
  return true;
}

void ProcSampler::SpawnWorker(int w) {
  Worker& wk = workers_[static_cast<size_t>(w)];
  const bool up = util::RetryWithBackoff(options_.respawn_backoff, [&] {
    ResetTransport(wk);
    ++wk.incarnation;
    if (remote() ? !AttachRemote(w) : !SpawnLocal(w)) return false;
    return Handshake(w);
  });
  if (!up) {
    std::ostringstream msg;
    if (remote()) {
      msg << "proc sampler: no remote worker registered for slot " << w
          << " on " << options_.listen_address << " (bound port "
          << listener_.bound_port() << ") within "
          << options_.respawn_backoff.max_attempts << " attempts";
    } else {
      msg << "proc sampler: worker " << w << " (" << options_.worker_binary
          << ") failed to spawn and handshake after "
          << options_.respawn_backoff.max_attempts << " attempts";
    }
    throw ProcWorkerError(msg.str());
  }
}

void ProcSampler::FailWorker(int w, const std::string& why) {
  Worker& wk = workers_[static_cast<size_t>(w)];
  AGSC_LOG(kWarning) << "proc sampler: worker " << w << " failed (" << why
                     << "); " << (remote() ? "dropping the connection"
                                           : "killing and respawning")
                     << " for deterministic replay";
  ResetTransport(wk);
  ++lifetime_respawns_;
  if (++collect_respawns_ > options_.max_respawns) {
    std::ostringstream msg;
    msg << "proc sampler: worker " << w << " failed (" << why
        << ") and the respawn budget (" << options_.max_respawns
        << " per collect) is exhausted";
    throw ProcWorkerError(msg.str());
  }
  const int failures = ++consecutive_failures_[static_cast<size_t>(w)];
  const double backoff_ms = options_.respawn_backoff.BackoffMs(
      std::min(failures + 1, options_.respawn_backoff.max_attempts));
  if (backoff_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(backoff_ms)));
  }
}

bool ProcSampler::SendPrefix(int w) {
  Worker& wk = workers_[static_cast<size_t>(w)];
  EpisodePrefix prefix;
  prefix.flags = fallbacks();
  prefix.rng_state = episode_rng_[static_cast<size_t>(w)];
  prefix.replay = replay_log_[static_cast<size_t>(w)];
  pending_prefix_[static_cast<size_t>(w)] = 1;
  // The prefix is the one frame that can outgrow a kernel buffer (a crash
  // replay late in an episode carries the whole action log), so the
  // bounded write is what protects the trainer from a peer that stops
  // draining: kTimeout here escalates exactly like a read failure.
  const util::IpcStatus status =
      wk.writer->Write(kMsgEpisodePrefix, wk.out_seq++,
                       EncodeEpisodePrefix(prefix), frame_timeout_ms());
  if (status == util::IpcStatus::kTimeout) {
    AGSC_LOG(kWarning) << "proc sampler: worker " << w
                       << " stopped draining its pipe (prefix write timed "
                          "out)";
    // Same hard cutoff as a read timeout: the straggler never received the
    // full replay and must not write a stale frame into a respawned
    // successor's conversation.
    if (remote()) {
      if (wk.fd >= 0) ::shutdown(wk.fd, SHUT_RDWR);
    } else {
      wk.proc.Kill(SIGKILL);
    }
  }
  if (status != util::IpcStatus::kOk) {
    // The peer cannot have a coherent view of the episode; there is nothing
    // to await on this transport. Leaving `connected` set would make the
    // caller wait out the full scaled prefix-read deadline (deadline_ms x
    // replay length) for a reply that can never come.
    wk.connected = false;
  }
  return status == util::IpcStatus::kOk;
}

bool ProcSampler::SendStep(int w, const WorkerActions& actions) {
  Worker& wk = workers_[static_cast<size_t>(w)];
  pending_prefix_[static_cast<size_t>(w)] = 0;
  return wk.writer->Write(kMsgStep, wk.out_seq++, EncodeWorkerActions(actions),
                          frame_timeout_ms()) == util::IpcStatus::kOk;
}

bool ProcSampler::ReadResult(int w, long timeout_ms, WorkerStepResult& out,
                             std::string* why) {
  Worker& wk = workers_[static_cast<size_t>(w)];
  util::Frame frame;
  const util::IpcStatus status = wk.reader->Read(frame, timeout_ms);
  if (status != util::IpcStatus::kOk) {
    if (status == util::IpcStatus::kTimeout) {
      // A hung worker: unlike VecSampler's fail-fast watchdog this is
      // recoverable, but cut it off hard so the straggler cannot write a
      // stale frame into a respawned successor's conversation — SIGKILL
      // locally, socket shutdown remotely (FailWorker closes the fd).
      if (remote()) {
        if (wk.fd >= 0) ::shutdown(wk.fd, SHUT_RDWR);
      } else {
        wk.proc.Kill(SIGKILL);
      }
    }
    if (why != nullptr) *why = std::string("read: ") + IpcStatusName(status);
    return false;
  }
  if (frame.type != kMsgStepResult ||
      !DecodeWorkerStepResult(frame.payload, out)) {
    if (why != nullptr) *why = "malformed result frame";
    return false;
  }
  const size_t num_agents = static_cast<size_t>(primary_env().num_agents());
  const size_t obs_dim = static_cast<size_t>(primary_env().obs_dim());
  bool shape_ok = out.observations.size() == num_agents &&
                  out.state.size() ==
                      static_cast<size_t>(primary_env().state_dim());
  for (const std::vector<float>& obs : out.observations) {
    shape_ok = shape_ok && obs.size() == obs_dim;
  }
  if (!out.is_reset) {
    shape_ok = shape_ok && out.rewards.size() == num_agents &&
               out.he_neighbors.size() == num_agents &&
               out.ho_neighbors.size() == num_agents;
  }
  if (!shape_ok) {
    if (why != nullptr) *why = "result shape mismatch";
    return false;
  }
  return true;
}

WorkerStepResult ProcSampler::AwaitResult(int w) {
  for (;;) {
    Worker& wk = workers_[static_cast<size_t>(w)];
    std::string why = "not connected";
    WorkerStepResult result;
    bool ok = false;
    if (wk.connected) {
      long timeout = frame_timeout_ms();
      if (timeout > 0 && pending_prefix_[static_cast<size_t>(w)] != 0) {
        // A prefix reply covers env rebuild + silent replay of the episode
        // so far, not just one step.
        timeout = timeout * static_cast<long>(
                                replay_log_[static_cast<size_t>(w)].size() + 2) +
                  kSpawnGraceMs;
      }
      ok = ReadResult(w, timeout, result, &why);
      if (ok &&
          result.is_reset != replay_log_[static_cast<size_t>(w)].empty()) {
        ok = false;
        why = "result kind does not match the episode position";
      }
    }
    if (ok) {
      // Mirror the worker's post-step env stream so the next prefix —
      // ordinary reset or crash replay — resumes the exact position.
      env_stream(w).LoadState(result.rng_state);
      consecutive_failures_[static_cast<size_t>(w)] = 0;
      pending_prefix_[static_cast<size_t>(w)] = 0;
      return result;
    }
    FailWorker(w, why);
    SpawnWorker(w);
    // Fresh incarnation: replay the episode deterministically. A prefix
    // write that itself fails escalates on the spot — the peer never got
    // the replay, so waiting for its reply would burn the whole scaled
    // prefix-read deadline. FailWorker enforces the respawn budget, so
    // this cannot loop forever.
    while (!SendPrefix(w)) {
      FailWorker(w, "prefix write failed");
      SpawnWorker(w);
    }
  }
}

void ProcSampler::ResetWorkers(const std::shared_ptr<CollectState>& st,
                               int active, int round) {
  if (round == 0) collect_respawns_ = 0;  // The budget is per Collect call.
  for (int w = 0; w < active; ++w) {
    episode_rng_[static_cast<size_t>(w)] = env_stream(w).SaveState();
    replay_log_[static_cast<size_t>(w)].clear();
    if (!workers_[static_cast<size_t>(w)].connected) SpawnWorker(w);
    SendPrefix(w);  // Failures surface in AwaitResult and are recovered.
  }
  for (int w = 0; w < active; ++w) {
    WorkerStepResult reset = AwaitResult(w);
    env::StepResult& cur = st->cur[static_cast<size_t>(w)];
    cur.observations = std::move(reset.observations);
    cur.state = std::move(reset.state);
  }
}

void ProcSampler::StepWorkers(const std::shared_ptr<CollectState>& st,
                              int /*round*/, int /*timeslot*/) {
  // Send phase: record each action in the replay log *before* any I/O (a
  // crash at any later point replays it), then fire all steps so the
  // workers run their slots concurrently. Send failures are left for the
  // read phase, which observes the dead pipe and recovers.
  for (int w : st->run_ids) {
    std::vector<WorkerActions>& log = replay_log_[static_cast<size_t>(w)];
    log.push_back(WorkerActions{st->raw[static_cast<size_t>(w)]});
    if (workers_[static_cast<size_t>(w)].connected) SendStep(w, log.back());
  }

  // Read phase, ascending worker order. Any fault — EOF, timeout,
  // checksum/sequence mismatch, shape mismatch — funnels through
  // AwaitResult's respawn-and-replay loop and comes back as the exact
  // result the healthy worker would have produced.
  for (int w : st->run_ids) {
    const size_t wi = static_cast<size_t>(w);
    WorkerStepResult result = AwaitResult(w);
    env::StepResult& next = st->nxt[wi];
    next.observations = std::move(result.observations);
    next.state = std::move(result.state);
    next.rewards = std::move(result.rewards);
    next.done = result.done;
    st->he[wi] = std::move(result.he_neighbors);
    st->ho[wi] = std::move(result.ho_neighbors);
    if (result.done) st->metrics[wi].push_back(result.metrics);
    CommitStep(*st, w);
  }
}

}  // namespace agsc::core
