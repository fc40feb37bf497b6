// Chaos campaign: end-to-end trainings of the real agsc_train binary under
// injected faults — signals mid-checkpoint, external SIGINT (single and
// double), transient and persistent write failures, stalled rollout
// workers, corrupted checkpoint files, and persistent NaN losses. Every
// scenario asserts the documented exit-code contract and, where the
// contract promises it, that the run left a loadable checkpoint behind
// (proved by resuming from it fault-free).
//
// The binary path is injected at build time via AGSC_TRAIN_BINARY (see
// tests/CMakeLists.txt); fault flags reach the child through AGSC_FAULT_*
// environment variables so the parent test process stays fault-free.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/exit_codes.h"

#ifndef AGSC_WORKER_BINARY
#error "AGSC_WORKER_BINARY must point at the built agsc_worker binary"
#endif

namespace agsc {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  // pid-scoped: gtest's TempDir is shared across concurrently running test
  // processes (ctest -j), and fixed names collide.
  return ::testing::TempDir() + "/p" + std::to_string(::getpid()) + "_" + name;
}

/// The fixed tiny-run arguments every scenario shares: a small Purdue
/// problem so each end-to-end training finishes in well under a second.
std::vector<std::string> TinyArgs() {
  return {"--pois", "12", "--uavs", "1", "--ugvs", "1",
          "--timeslots", "8", "--eval", "0", "--quiet"};
}

/// Forks and execs `binary` with exactly `full_args` and `env_kv`
/// ("KEY=VALUE") exported in the child only; stdout+stderr go to
/// `log_path`. Returns the child pid.
pid_t SpawnBinary(const char* binary, const std::vector<std::string>& full_args,
                  const std::vector<std::string>& env_kv,
                  const std::string& log_path) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child. Only async-signal-unsafe calls before a fresh exec: fine here.
  FILE* log = std::freopen(log_path.c_str(), "w", stdout);
  if (log == nullptr) ::_exit(126);
  ::dup2(::fileno(stdout), 2);
  for (const std::string& kv : env_kv) {
    const size_t eq = kv.find('=');
    ::setenv(kv.substr(0, eq).c_str(), kv.substr(eq + 1).c_str(), 1);
  }
  std::vector<std::string> args = {binary};
  for (const std::string& a : full_args) args.push_back(a);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  ::execv(binary, argv.data());
  ::_exit(127);  // exec failed.
}

/// Trainer-specific wrapper: `extra_args` appended to the shared TinyArgs().
pid_t SpawnTrain(const std::vector<std::string>& extra_args,
                 const std::vector<std::string>& env_kv,
                 const std::string& log_path) {
  std::vector<std::string> args = TinyArgs();
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  return SpawnBinary(AGSC_TRAIN_BINARY, args, env_kv, log_path);
}

/// Blocks until `pid` exits; returns its exit code (or 128+signal if it was
/// killed, mirroring the shell convention).
int WaitExit(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

int RunTrain(const std::vector<std::string>& extra_args,
             const std::vector<std::string>& env_kv,
             const std::string& log_path) {
  return WaitExit(SpawnTrain(extra_args, env_kv, log_path));
}

std::string LogContents(const std::string& log_path) {
  std::ifstream in(log_path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Scenario-scoped workspace: a fresh checkpoint directory plus a log file,
/// removed on destruction.
struct Workspace {
  std::string dir;
  std::string log;

  explicit Workspace(const std::string& name)
      : dir(TempPath(name + "_ckpt")), log(TempPath(name + ".log")) {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~Workspace() {
    fs::remove_all(dir);
    std::remove(log.c_str());
  }

  std::vector<std::string> CheckpointArgs() const {
    return {"--checkpoint-dir", dir, "--checkpoint-every", "1"};
  }
  /// Fault-free resume proving the directory holds a loadable checkpoint.
  int Resume(int iterations) const {
    std::vector<std::string> args = CheckpointArgs();
    args.push_back("--iterations");
    args.push_back(std::to_string(iterations));
    args.push_back("--resume");
    return RunTrain(args, {}, log);
  }
};

void CorruptFile(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "garbage";
}

// ---------------------------------------------------------------------------
// Scenarios.
// ---------------------------------------------------------------------------

TEST(ChaosTest, BaselineCompletesAndResumes) {
  Workspace ws("baseline");
  std::vector<std::string> args = ws.CheckpointArgs();
  args.insert(args.end(), {"--iterations", "2"});
  EXPECT_EQ(RunTrain(args, {}, ws.log), util::kExitOk) << LogContents(ws.log);
  EXPECT_TRUE(fs::exists(ws.dir + "/ckpt_000002.agsc"));
  EXPECT_EQ(ws.Resume(3), util::kExitOk) << LogContents(ws.log);
}

TEST(ChaosTest, UsageAndConfigErrorsUseTheirCodes) {
  const std::string log = TempPath("usage.log");
  EXPECT_EQ(RunTrain({"--no-such-flag"}, {}, log), util::kExitUsage);
  EXPECT_EQ(RunTrain({"--uavs", "0", "--ugvs", "0"}, {}, log),
            util::kExitConfig);
  std::remove(log.c_str());
}

TEST(ChaosTest, SignalDuringCheckpointWriteStopsCleanly) {
  Workspace ws("sig_write");
  std::vector<std::string> args = ws.CheckpointArgs();
  args.insert(args.end(), {"--iterations", "50"});
  // SIGINT is raised by the injector immediately before the second
  // checkpoint write — a deterministic "signal arrives mid-checkpoint".
  EXPECT_EQ(RunTrain(args, {"AGSC_FAULT_SIGNAL_WRITE=2"}, ws.log),
            util::kExitSignalStop)
      << LogContents(ws.log);
  // The cooperative stop flushed a loadable checkpoint at the boundary.
  EXPECT_EQ(ws.Resume(3), util::kExitOk) << LogContents(ws.log);
}

TEST(ChaosTest, ExternalSigintStopsCleanly) {
  Workspace ws("ext_sigint");
  std::vector<std::string> args = ws.CheckpointArgs();
  args.insert(args.end(), {"--iterations", "100000"});
  const pid_t pid = SpawnTrain(args, {}, ws.log);
  ASSERT_GT(pid, 0);
  // The handler is installed before anything else in main, so the signal is
  // caught no matter how far the child has gotten.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  ASSERT_EQ(::kill(pid, SIGINT), 0);
  EXPECT_EQ(WaitExit(pid), util::kExitSignalStop) << LogContents(ws.log);
}

TEST(ChaosTest, SecondSignalAbortsImmediately) {
  Workspace ws("double_sigint");
  std::vector<std::string> args = ws.CheckpointArgs();
  args.insert(args.end(),
              {"--iterations", "100000", "--num-workers", "2"});
  // A 30 s worker stall pins the child mid-collection, where the stop flag
  // is unreachable: the first SIGINT can only set the flag, so the second
  // one deterministically hits the abort path in the handler.
  const pid_t pid = SpawnTrain(
      args, {"AGSC_FAULT_STALL_TASK=1", "AGSC_FAULT_STALL_MS=30000"}, ws.log);
  ASSERT_GT(pid, 0);
  // Generous margin for the child to finish construction and enter the
  // stalled step even on a loaded machine.
  std::this_thread::sleep_for(std::chrono::milliseconds(3000));
  ASSERT_EQ(::kill(pid, SIGINT), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  ASSERT_EQ(::kill(pid, SIGINT), 0);
  EXPECT_EQ(WaitExit(pid), util::kExitInterruptedAbort) << LogContents(ws.log);
}

TEST(ChaosTest, TransientWriteFaultIsAbsorbedByRetry) {
  Workspace ws("transient_write");
  std::vector<std::string> args = ws.CheckpointArgs();
  args.insert(args.end(), {"--iterations", "2"});
  // Exactly one failed write: the retry layer absorbs it and the run is
  // indistinguishable from a healthy one (bar a warning in the log).
  EXPECT_EQ(RunTrain(args, {"AGSC_FAULT_FAIL_WRITE=1"}, ws.log), util::kExitOk)
      << LogContents(ws.log);
  EXPECT_TRUE(fs::exists(ws.dir + "/ckpt_000002.agsc"));
  EXPECT_EQ(ws.Resume(3), util::kExitOk) << LogContents(ws.log);
}

TEST(ChaosTest, PersistentWriteFaultExitsIoError) {
  Workspace ws("persistent_write");
  // Every write fails, outlasting the retry budget: the explicit --save
  // cannot succeed and the run must report the I/O failure.
  EXPECT_EQ(RunTrain({"--iterations", "1", "--save", ws.dir + "/final.agsc"},
                     {"AGSC_FAULT_FAIL_WRITE=1",
                      "AGSC_FAULT_FAIL_WRITE_COUNT=99"},
                     ws.log),
            util::kExitIoError)
      << LogContents(ws.log);
  EXPECT_FALSE(fs::exists(ws.dir + "/final.agsc"));
}

TEST(ChaosTest, StalledWorkerTripsTheWatchdog) {
  Workspace ws("watchdog");
  std::vector<std::string> args = ws.CheckpointArgs();
  args.insert(args.end(), {"--iterations", "3", "--num-workers", "2",
                           "--watchdog-sec", "1"});
  // The first worker step hangs far past the 1 s deadline; the watchdog
  // names the stuck worker and the process fail-fasts with its own code.
  EXPECT_EQ(RunTrain(args,
                     {"AGSC_FAULT_STALL_TASK=1", "AGSC_FAULT_STALL_MS=20000"},
                     ws.log),
            util::kExitWatchdogTimeout)
      << LogContents(ws.log);
  EXPECT_NE(LogContents(ws.log).find("watchdog"), std::string::npos);
}

TEST(ChaosTest, CorruptedNewestCheckpointFallsBackOnResume) {
  Workspace ws("fallback");
  std::vector<std::string> args = ws.CheckpointArgs();
  args.insert(args.end(), {"--iterations", "2"});
  ASSERT_EQ(RunTrain(args, {}, ws.log), util::kExitOk) << LogContents(ws.log);
  CorruptFile(ws.dir + "/ckpt_000002.agsc");
  // Resume skips the corrupted newest file and restores the older one.
  EXPECT_EQ(ws.Resume(3), util::kExitOk) << LogContents(ws.log);
  EXPECT_NE(LogContents(ws.log).find("ckpt_000001"), std::string::npos)
      << LogContents(ws.log);
}

TEST(ChaosTest, AllCheckpointsCorruptedExitsResumeMismatch) {
  Workspace ws("all_corrupt");
  std::vector<std::string> args = ws.CheckpointArgs();
  args.insert(args.end(), {"--iterations", "2"});
  ASSERT_EQ(RunTrain(args, {}, ws.log), util::kExitOk) << LogContents(ws.log);
  for (const fs::directory_entry& entry : fs::directory_iterator(ws.dir)) {
    CorruptFile(entry.path().string());
  }
  // Checkpoints exist but none loads: refusing to silently retrain from
  // scratch is the whole point of the resume-mismatch code.
  EXPECT_EQ(ws.Resume(3), util::kExitResumeMismatch) << LogContents(ws.log);
}

TEST(ChaosTest, PersistentNanLossExitsDiverged) {
  Workspace ws("diverged");
  std::vector<std::string> args = ws.CheckpointArgs();
  args.insert(args.end(), {"--iterations", "20", "--max-backoffs", "1"});
  // Every guarded loss is NaN: the divergence guard rolls back, backs off
  // the learning rates once, then gives up — flushing a last checkpoint.
  EXPECT_EQ(RunTrain(args, {"AGSC_FAULT_NAN_LOSS_EVERY=1"}, ws.log),
            util::kExitDiverged)
      << LogContents(ws.log);
  EXPECT_EQ(ws.Resume(6), util::kExitOk) << LogContents(ws.log);
}

// ---------------------------------------------------------------------------
// Subprocess rollout workers (--proc-workers): byte-identity with the
// in-process sampler, respawn-and-replay under injected worker faults, and
// the worker-failed exit code when the fleet cannot be kept alive.
// ---------------------------------------------------------------------------

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Trains 2 iterations with `mode_args` + `env_kv` and returns the bytes of
/// the saved final checkpoint.
std::string TrainAndSave(const Workspace& ws, const std::string& name,
                         const std::vector<std::string>& mode_args,
                         const std::vector<std::string>& env_kv) {
  const std::string ckpt = ws.dir + "/" + name;
  std::vector<std::string> args = {"--iterations", "2", "--save", ckpt};
  args.insert(args.end(), mode_args.begin(), mode_args.end());
  EXPECT_EQ(RunTrain(args, env_kv, ws.log), util::kExitOk)
      << LogContents(ws.log);
  return FileBytes(ckpt);
}

TEST(ChaosTest, ProcWorkersMatchInProcessWorkersByteExactly) {
  Workspace ws("proc_parity");
  const std::string vec =
      TrainAndSave(ws, "vec.agsc", {"--num-workers", "2"}, {});
  const std::string proc =
      TrainAndSave(ws, "proc.agsc", {"--proc-workers", "2"}, {});
  ASSERT_FALSE(vec.empty());
  EXPECT_EQ(vec, proc);
}

TEST(ChaosTest, KilledProcWorkerIsReplayedByteExactly) {
  Workspace ws("proc_kill");
  const std::string clean =
      TrainAndSave(ws, "clean.agsc", {"--num-workers", "2"}, {});
  // Worker 1 SIGKILLs itself on its 4th step frame, mid-round; the trainer
  // must respawn and replay it, landing on the identical checkpoint.
  const std::string faulty =
      TrainAndSave(ws, "faulty.agsc", {"--proc-workers", "2"},
                   {"AGSC_FAULT_KILL_WORKER_NTH=4",
                    "AGSC_FAULT_WORKER_ID=1"});
  ASSERT_FALSE(clean.empty());
  EXPECT_EQ(clean, faulty);
  EXPECT_NE(LogContents(ws.log).find("respawn"), std::string::npos)
      << LogContents(ws.log);
}

TEST(ChaosTest, CorruptFrameFromProcWorkerIsReplayedByteExactly) {
  Workspace ws("proc_corrupt");
  const std::string clean =
      TrainAndSave(ws, "clean.agsc", {"--num-workers", "2"}, {});
  // Worker 0's 3rd outgoing frame has a payload byte flipped after its CRC:
  // the trainer must reject the frame, never consume garbage, and replay.
  const std::string faulty =
      TrainAndSave(ws, "faulty.agsc", {"--proc-workers", "2"},
                   {"AGSC_FAULT_CORRUPT_FRAME=3", "AGSC_FAULT_WORKER_ID=0"});
  ASSERT_FALSE(clean.empty());
  EXPECT_EQ(clean, faulty);
}

TEST(ChaosTest, StalledProcWorkerIsRespawnedNotFatal) {
  Workspace ws("proc_stall");
  const std::string clean =
      TrainAndSave(ws, "clean.agsc", {"--num-workers", "2"}, {});
  // A 30 s pipe stall against a 1 s step deadline. Unlike the in-process
  // watchdog (fail-fast exit 7), a subprocess straggler is recoverable:
  // kill, respawn, replay, finish with exit 0 and identical bytes.
  const std::string faulty = TrainAndSave(
      ws, "faulty.agsc",
      {"--proc-workers", "2", "--watchdog-sec", "1"},
      {"AGSC_FAULT_STALL_PIPE=3", "AGSC_FAULT_STALL_MS=30000",
       "AGSC_FAULT_WORKER_ID=1"});
  ASSERT_FALSE(clean.empty());
  EXPECT_EQ(clean, faulty);
}

TEST(ChaosTest, MissingWorkerBinaryExitsWorkerFailed) {
  Workspace ws("proc_missing");
  EXPECT_EQ(RunTrain({"--iterations", "2", "--proc-workers", "1",
                      "--worker-binary", ws.dir + "/no_such_worker"},
                     {}, ws.log),
            util::kExitWorkerFailed)
      << LogContents(ws.log);
  EXPECT_NE(LogContents(ws.log).find("worker failed"), std::string::npos)
      << LogContents(ws.log);
}

TEST(ChaosTest, ProcAndNumWorkersAreMutuallyExclusive) {
  const std::string log = TempPath("proc_usage.log");
  EXPECT_EQ(RunTrain({"--proc-workers", "2", "--num-workers", "2"}, {}, log),
            util::kExitUsage);
  std::remove(log.c_str());
}

// ---------------------------------------------------------------------------
// Networked rollout workers (--remote-workers + --listen): byte-identity
// over loopback TCP, harness-killed workers replaced mid-run, and the
// network-setup / flag-combination exit-code contract.
// ---------------------------------------------------------------------------

/// Polls `path` (written atomically by --port-file) for a positive port
/// number. Returns 0 on deadline.
int PollPortFile(const std::string& path, long deadline_ms = 30000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(path);
    int port = 0;
    if (in >> port && port > 0) return port;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return 0;
}

pid_t SpawnRemoteWorker(int port, int worker_id, const std::string& log_path) {
  return SpawnBinary(AGSC_WORKER_BINARY,
                     {"--connect", "127.0.0.1:" + std::to_string(port),
                      "--worker-id", std::to_string(worker_id)},
                     {}, log_path);
}

TEST(ChaosTest, RemoteWorkersMatchInProcessWorkersByteExactly) {
  Workspace ws("remote_parity");
  const std::string clean =
      TrainAndSave(ws, "clean.agsc", {"--num-workers", "2"}, {});
  ASSERT_FALSE(clean.empty());

  const std::string ckpt = ws.dir + "/remote.agsc";
  const std::string port_file = ws.dir + "/port.txt";
  std::vector<std::string> args = {
      "--iterations", "2",        "--save",      ckpt,     "--remote-workers",
      "2",            "--listen", "127.0.0.1:0", "--port-file", port_file};
  const pid_t trainer = SpawnTrain(args, {}, ws.log);
  ASSERT_GT(trainer, 0);
  const int port = PollPortFile(port_file);
  ASSERT_GT(port, 0) << LogContents(ws.log);
  const pid_t w0 = SpawnRemoteWorker(port, 0, ws.dir + "/w0.log");
  const pid_t w1 = SpawnRemoteWorker(port, 1, ws.dir + "/w1.log");
  EXPECT_EQ(WaitExit(trainer), util::kExitOk) << LogContents(ws.log);
  // The trainer's shutdown frame ends both workers cleanly.
  EXPECT_EQ(WaitExit(w0), 0) << LogContents(ws.dir + "/w0.log");
  EXPECT_EQ(WaitExit(w1), 0) << LogContents(ws.dir + "/w1.log");
  EXPECT_EQ(clean, FileBytes(ckpt));
}

TEST(ChaosTest, KilledRemoteWorkerIsReplacedAndByteIdentical) {
  Workspace ws("remote_kill");
  // Longer episodes than the other scenarios so the SIGKILL below lands
  // mid-run rather than after the training already finished.
  const std::string clean = TrainAndSave(
      ws, "clean.agsc", {"--num-workers", "2", "--timeslots", "60"}, {});
  ASSERT_FALSE(clean.empty());

  const std::string ckpt = ws.dir + "/remote.agsc";
  const std::string port_file = ws.dir + "/port.txt";
  std::vector<std::string> args = {
      "--iterations", "2",        "--save",      ckpt,     "--remote-workers",
      "2",            "--listen", "127.0.0.1:0", "--port-file", port_file,
      "--timeslots",  "60"};
  const pid_t trainer = SpawnTrain(args, {}, ws.log);
  ASSERT_GT(trainer, 0);
  const int port = PollPortFile(port_file);
  ASSERT_GT(port, 0) << LogContents(ws.log);
  const pid_t w0 = SpawnRemoteWorker(port, 0, ws.dir + "/w0.log");
  const pid_t w1 = SpawnRemoteWorker(port, 1, ws.dir + "/w1.log");

  // SIGKILL worker 1 over TCP mid-episode, then hand the trainer a
  // replacement: the slot must be re-attached and its shard replayed.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  ::kill(w1, SIGKILL);
  WaitExit(w1);
  const pid_t w1b = SpawnRemoteWorker(port, 1, ws.dir + "/w1b.log");

  EXPECT_EQ(WaitExit(trainer), util::kExitOk) << LogContents(ws.log);
  EXPECT_EQ(WaitExit(w0), 0) << LogContents(ws.dir + "/w0.log");
  // The replacement either served the rest of the run (exit 0 on shutdown)
  // or arrived after the trainer finished and exhausted its reconnect
  // budget (net-error) — the checkpoint contract below is what matters.
  const int w1b_exit = WaitExit(w1b);
  EXPECT_TRUE(w1b_exit == 0 || w1b_exit == util::kExitNetError) << w1b_exit;
  EXPECT_EQ(clean, FileBytes(ckpt));
}

TEST(ChaosTest, RemoteWorkerFlagCombinationsAreValidated) {
  const std::string log = TempPath("remote_usage.log");
  // --remote-workers excludes the in-process/local-subprocess modes.
  EXPECT_EQ(RunTrain({"--remote-workers", "2", "--listen", "127.0.0.1:0",
                      "--num-workers", "2"},
                     {}, log),
            util::kExitUsage);
  EXPECT_EQ(RunTrain({"--remote-workers", "2", "--listen", "127.0.0.1:0",
                      "--proc-workers", "2"},
                     {}, log),
            util::kExitUsage);
  // --remote-workers needs --listen; --listen/--port-file need the rest.
  EXPECT_EQ(RunTrain({"--remote-workers", "2"}, {}, log), util::kExitUsage);
  EXPECT_EQ(RunTrain({"--listen", "127.0.0.1:0"}, {}, log), util::kExitUsage);
  EXPECT_EQ(RunTrain({"--port-file", TempPath("unused_port.txt")}, {}, log),
            util::kExitUsage);
  std::remove(log.c_str());
}

TEST(ChaosTest, UnusableListenAddressExitsNetError) {
  const std::string log = TempPath("net_error.log");
  EXPECT_EQ(RunTrain({"--iterations", "1", "--remote-workers", "2",
                      "--listen", "not-a-sockaddr"},
                     {}, log),
            util::kExitNetError)
      << LogContents(log);
  EXPECT_NE(LogContents(log).find("net-error"), std::string::npos)
      << LogContents(log);
  std::remove(log.c_str());
}

TEST(ChaosTest, WorkerConnectRefusedExitsNetError) {
  const std::string log = TempPath("worker_refused.log");
  // Nothing listens on the reserved port; a tight retry budget makes the
  // worker give up fast with the network-setup code.
  const int code = WaitExit(SpawnBinary(
      AGSC_WORKER_BINARY,
      {"--connect", "127.0.0.1:1", "--connect-retries", "2",
       "--connect-timeout-ms", "500"},
      {}, log));
  EXPECT_EQ(code, util::kExitNetError) << LogContents(log);
  std::remove(log.c_str());
}

TEST(ChaosTest, VersionFlagPrintsBuildProvenance) {
  const std::string log = TempPath("version.log");
  EXPECT_EQ(RunTrain({"--version"}, {}, log), util::kExitOk);
  const std::string out = LogContents(log);
  EXPECT_NE(out.find("agsc_train compiler="), std::string::npos) << out;
  EXPECT_NE(out.find("gemm-isa="), std::string::npos) << out;
  std::remove(log.c_str());
}

TEST(ChaosTest, StatsCsvCarriesBuildHeader) {
  Workspace ws("stats_header");
  const std::string csv = ws.dir + "/stats.csv";
  ASSERT_EQ(RunTrain({"--iterations", "1", "--oracle-check-every", "1",
                      "--stats-csv", csv},
                     {}, ws.log),
            util::kExitOk)
      << LogContents(ws.log);
  const std::string contents = FileBytes(csv);
  EXPECT_EQ(contents.rfind("# build: agsc_train compiler=", 0), 0u)
      << contents.substr(0, 200);
  std::istringstream lines(contents);
  std::string build, header, row;
  std::getline(lines, build);
  std::getline(lines, header);
  std::getline(lines, row);
  EXPECT_EQ(header,
            "iteration,psi,sigma,xi,kappa,lambda,mean_reward_ext,"
            "mean_reward_int,eoi_loss,actor_grad_norm,value_loss,"
            "total_env_steps,anomalies,lr_backoff,env_oracle_fallback,"
            "nn_oracle_fallback,channel_oracle_fallback");
  // The oracle checks ran on healthy paths: the three fallback columns,
  // last in the row, read 0.
  std::vector<std::string> fields;
  std::istringstream cells(row);
  for (std::string cell; std::getline(cells, cell, ',');) {
    fields.push_back(cell);
  }
  ASSERT_EQ(fields.size(), 17u) << row;
  EXPECT_EQ(std::vector<std::string>(fields.end() - 3, fields.end()),
            (std::vector<std::string>{"0", "0", "0"}))
      << row;
}

}  // namespace
}  // namespace agsc
