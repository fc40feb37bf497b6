#ifndef AGSC_CORE_PROC_SAMPLER_H_
#define AGSC_CORE_PROC_SAMPLER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sampler.h"
#include "core/worker_protocol.h"
#include "env/sc_env.h"
#include "util/ipc.h"
#include "util/net.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/subprocess.h"

namespace agsc::core {

/// Thrown when a rollout worker subprocess could not be kept alive: the
/// respawn budget (ProcSampler::Options::max_respawns) was exhausted, or a
/// fresh spawn never produced a valid handshake. The trainer maps this to
/// util::kExitWorkerFailed; anything short of it is absorbed invisibly by
/// respawn-and-replay.
class ProcWorkerError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Crash-isolated transport of the Sampler: N agsc_worker processes, each
/// owning one environment replica in its own address space, driven in
/// lock-step over checksummed frames (core/worker_protocol). Two
/// connection modes, one protocol:
///  * local (`--proc-workers N`): fork/exec subprocesses over stdin/stdout
///    pipes. A worker that dies, hangs past the step deadline, or emits a
///    damaged frame is SIGKILLed and respawned with bounded backoff.
///  * remote (`--remote-workers N` + Options::listen_address): the sampler
///    listens on TCP (util/net) and `agsc_worker --connect` processes —
///    possibly on other hosts — claim worker slots via kMsgRegister. The
///    SIGKILL-respawn path generalizes to disconnect-reconnect: any fault
///    drops the connection and the worker's next registration resumes the
///    slot.
/// Either way the failed shard is replayed deterministically from its
/// recorded episode-start RNG state plus the actions already issued — the
/// final buffers and checkpoints are byte-identical to the fault-free run.
///
/// Every shard runs in a worker process, worker 0's included; only worker
/// 0's env stream is the primary env's, mirrored after every reply, so
/// oracle checks and checkpoints see the same streams as in process.
/// Action selection stays on the trainer (the Sampler's batched BatchActFn
/// over the same rows in the same worker order) and floats cross the wire
/// as raw bit patterns, so `--proc-workers N` and `--remote-workers N`
/// produce rollout buffers, metrics and checkpoints bit-identical to
/// `--num-workers N` for the same seed (pinned by proc_sampler_test and
/// the chaos campaign).
///
/// Unlike VecSampler's fail-fast watchdog (a hung in-process worker can be
/// mid-write anywhere in the shared address space), a ProcSampler timeout
/// is recoverable: the straggler owns nothing but its own replica, so it is
/// killed and replayed like any other crash.
class ProcSampler : public Sampler {
 public:
  struct Options {
    /// Path to the agsc_worker binary. Required in local mode; unused when
    /// listen_address is set (remote workers are launched externally).
    std::string worker_binary;
    /// Initial Sampler::step_deadline_ms: the deadline per result-frame
    /// read AND per frame write in ms; 0 = block forever (a hung worker
    /// then hangs collection, exactly like a watchdog-less VecSampler). A
    /// bounded write matters as much as a bounded read: a peer that stops
    /// draining its pipe/socket would otherwise wedge the trainer's send
    /// path with no watchdog in front of it.
    long step_deadline_ms = 0;
    /// Backoff schedule between respawn/re-attach attempts of the same
    /// worker.
    util::RetryPolicy respawn_backoff;
    /// Total respawns tolerated per Collect() call before giving up with
    /// ProcWorkerError.
    int max_respawns = 8;
    /// Remote mode: "HOST:PORT" to listen on (port 0 = kernel-assigned,
    /// see bound_port()). Empty = local fork/exec mode. The listener is
    /// bound in the constructor (NetError on failure) so callers can
    /// publish the port before workers exist.
    std::string listen_address;
    /// Remote mode: budget for one worker registration + init/hello
    /// handshake (covers the reconnect-after-drop latency of a worker
    /// replaying a long episode prefix too).
    long handshake_timeout_ms = 60000;
    /// Test hook: shrink each worker transport's send buffer to roughly
    /// this many bytes (F_SETPIPE_SZ on pipes, SO_SNDBUF on sockets; the
    /// kernel clamps to a page / doubles respectively). 0 = OS default.
    /// Makes the write-stall fault reachable with small frames.
    int send_buffer_bytes = 0;
  };

  /// `num_workers` and `seed` define the Sampler stream layout. Each worker
  /// is spawned lazily at its first episode, so constructing a trainer (for
  /// checkpoint surgery, tests, --iterations 0 runs) costs no processes.
  /// Collect throws ProcWorkerError when the respawn budget runs out.
  ProcSampler(env::ScEnv& primary_env, util::Rng& primary_rng,
              int num_workers, uint64_t seed, Options options);
  ~ProcSampler() override;

  /// Total worker respawns over this sampler's lifetime (tests/stats).
  int respawn_count() const { return lifetime_respawns_; }

  /// Remote mode only: the TCP port workers must --connect to (resolves a
  /// port-0 listen_address); 0 in local mode.
  int bound_port() const override { return listener_.bound_port(); }
  bool remote() const { return !options_.listen_address.empty(); }

 protected:
  /// Trainer-side mirror of worker w's env stream (worker 0: the primary
  /// env's); loading into it redirects the worker's next episode prefix.
  util::Rng& env_stream(int w) override;
  /// Snapshots each worker's episode-start RNG position, sends every
  /// prefix first so the resets run concurrently, then reads the replies
  /// in worker order.
  void ResetWorkers(const std::shared_ptr<CollectState>& st, int active,
                    int round) override;
  /// Records each running worker's actions in its replay log, sends every
  /// step before reading any reply, then reads the results in worker
  /// order.
  void StepWorkers(const std::shared_ptr<CollectState>& st, int round,
                   int timeslot) override;

 private:
  struct Worker {
    util::Subprocess proc;               ///< Local mode only.
    int fd = -1;                         ///< Remote mode only: the socket.
    std::unique_ptr<util::FrameReader> reader;
    std::unique_ptr<util::FrameWriter> writer;
    uint64_t out_seq = 0;
    int incarnation = -1;  ///< Spawn/attach count - 1; -1 = never spawned.
    bool connected = false;
  };

  /// A remote worker that registered while we were attaching a different
  /// slot; claimed (fd + reader mid-stream) when its slot spawns.
  struct PendingConn {
    int fd = -1;
    std::unique_ptr<util::FrameReader> reader;
  };

  /// Brings worker `w` up with retry/backoff: fork/exec (local) or claim a
  /// registration (remote), then the kMsgInit/kMsgHello handshake. Throws
  /// ProcWorkerError when the worker cannot be brought up at all.
  void SpawnWorker(int w);
  /// Local: fork/exec + pipe setup. False on failure.
  bool SpawnLocal(int w);
  /// Remote: claim worker w's registration — parked or freshly accepted
  /// within the handshake budget; registrations for other slots are parked
  /// (latest wins). False on timeout/listener failure.
  bool AttachRemote(int w);
  /// kMsgInit -> kMsgHello handshake + dims validation over the already-
  /// attached transport. False (transport torn down) on any mismatch.
  bool Handshake(int w);
  /// Tears down worker w's transport: reap the subprocess (local) or
  /// shutdown+close the socket (remote, the worker sees EOF and
  /// reconnects); resets reader/writer/seq state.
  void ResetTransport(Worker& wk);
  /// ResetTransport + count one respawn against the Collect budget (throws
  /// ProcWorkerError when it is exhausted) + backoff sleep.
  void FailWorker(int w, const std::string& why);

  /// Blocks until worker `w` delivers one valid result for its pending
  /// request. Never returns a damaged or out-of-order frame: any fault —
  /// EOF, timeout, checksum/sequence/shape mismatch — runs through
  /// FailWorker + SpawnWorker + a prefix that replays the episode so far,
  /// and the loop re-reads until a valid result arrives or the budget
  /// throws. On success the worker's env-stream mirror is updated.
  WorkerStepResult AwaitResult(int w);

  bool SendPrefix(int w);
  bool SendStep(int w, const WorkerActions& actions);
  /// Reads one kMsgStepResult with `timeout_ms`, decodes and shape-checks
  /// it; false on any fault (timeout, EOF, corruption, wrong type/shape).
  bool ReadResult(int w, long timeout_ms, WorkerStepResult& out,
                  std::string* why);

  /// step_deadline_ms() translated to the IPC sentinel (0 = "block
  /// forever" becomes -1); bounds every steady-state frame read and write.
  long frame_timeout_ms() const {
    return step_deadline_ms() > 0 ? step_deadline_ms() : -1;
  }

  Options options_;

  util::TcpListener listener_;                    ///< Remote mode only.
  std::unordered_map<int, PendingConn> parked_;   ///< Remote mode only.

  std::vector<util::Rng> env_mirrors_;  ///< Workers 1..W-1 (0 = primary).
  std::vector<Worker> workers_;

  /// Per-worker episode replay state: the env-RNG state the running episode
  /// started from and every action issued since.
  std::vector<std::array<uint64_t, util::Rng::kStateWords>> episode_rng_;
  std::vector<std::vector<WorkerActions>> replay_log_;
  std::vector<int> consecutive_failures_;
  /// 1 while worker w's pending reply answers an episode prefix (reset or
  /// crash replay) rather than a single step — prefix replies get a larger
  /// read deadline covering env rebuild + replay.
  std::vector<uint8_t> pending_prefix_;

  int collect_respawns_ = 0;
  int lifetime_respawns_ = 0;
};

}  // namespace agsc::core

#endif  // AGSC_CORE_PROC_SAMPLER_H_
