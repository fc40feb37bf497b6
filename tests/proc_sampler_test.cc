// Crash-isolated subprocess sampler tests: bit-identity of --proc-workers
// style collection with the in-process VecSampler, trainer-level checkpoint
// byte-equality and cross-mode resume, and deterministic respawn-and-replay
// under injected worker crashes, corrupted frames, and pipe stalls.
//
// Every fault test pins the SAME invariant: the merged buffer (and
// therefore any downstream checkpoint) is bit-identical to the fault-free
// in-process run — a respawned worker replays its shard exactly.

#include <cstdlib>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/hi_madrl.h"
#include "core/proc_sampler.h"
#include "core/rollout.h"
#include "core/vec_sampler.h"
#include "env/config.h"
#include "env/sc_env.h"
#include "map/campus.h"
#include "util/rng.h"
#include "util/shutdown.h"
#include "util/subprocess.h"

#ifndef AGSC_WORKER_BINARY
#error "AGSC_WORKER_BINARY must point at the built agsc_worker binary"
#endif

namespace agsc {
namespace {

const map::Dataset& SmallDataset() {
  static const map::Dataset* dataset =
      new map::Dataset(map::BuildDataset(map::CampusId::kPurdue, 10));
  return *dataset;
}

constexpr int kTimeslots = 6;

env::EnvConfig SmallEnvConfig() {
  env::EnvConfig config;
  config.num_timeslots = kTimeslots;
  config.num_pois = 10;
  config.num_uavs = 1;
  config.num_ugvs = 1;
  return config;
}

core::ProcSampler::Options WorkerOptions() {
  core::ProcSampler::Options options;
  options.worker_binary = AGSC_WORKER_BINARY;
  return options;
}

core::TrainConfig SmallTrainConfig(int episodes = 3) {
  core::TrainConfig train;
  train.iterations = 2;
  train.episodes_per_iteration = episodes;
  train.policy_epochs = 1;
  train.lcf_epochs = 1;
  train.minibatch = 64;
  train.net.hidden = {16};
  train.eoi.hidden = {12};
  train.seed = 11;
  train.verbose = false;
  return train;
}

std::string TempPath(const std::string& name) {
  // pid-scoped: gtest's TempDir is shared across concurrently running test
  // processes (ctest -j), and fixed names collide.
  return ::testing::TempDir() + "/pp" + std::to_string(::getpid()) + "_" +
         name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void ExpectBuffersBitEqual(const core::MultiAgentBuffer& a,
                           const core::MultiAgentBuffer& b) {
  ASSERT_EQ(a.agents.size(), b.agents.size());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.next_states, b.next_states);
  EXPECT_EQ(a.reward_all, b.reward_all);
  EXPECT_EQ(a.done, b.done);
  for (size_t k = 0; k < a.agents.size(); ++k) {
    const core::AgentRollout& x = a.agents[k];
    const core::AgentRollout& y = b.agents[k];
    ASSERT_EQ(x.size(), y.size()) << "agent " << k;
    EXPECT_EQ(x.obs, y.obs) << "agent " << k;
    EXPECT_EQ(x.next_obs, y.next_obs) << "agent " << k;
    EXPECT_EQ(x.action_dir, y.action_dir) << "agent " << k;
    EXPECT_EQ(x.action_speed, y.action_speed) << "agent " << k;
    EXPECT_EQ(x.logp_old, y.logp_old) << "agent " << k;
    EXPECT_EQ(x.reward_ext, y.reward_ext) << "agent " << k;
    EXPECT_EQ(x.he_neighbors, y.he_neighbors) << "agent " << k;
    EXPECT_EQ(x.ho_neighbors, y.ho_neighbors) << "agent " << k;
    EXPECT_EQ(x.done, y.done) << "agent " << k;
  }
}

/// Same policy-free BatchActFn as vec_sampler_test: row i's action is a
/// pure function of its private stream, drawn agent by agent in row order.
void DummyAct(
    const std::vector<const std::vector<std::vector<float>>*>& rows,
    const std::vector<util::Rng*>& rngs,
    std::vector<std::vector<std::array<float, 2>>>& actions_out,
    std::vector<std::vector<float>>& logps_out) {
  ASSERT_EQ(rows.size(), rngs.size());
  for (size_t k = 0; k < actions_out.size(); ++k) {
    for (size_t i = 0; i < rows.size(); ++i) {
      actions_out[k][i] = {static_cast<float>(rngs[i]->Gaussian()),
                           static_cast<float>(rngs[i]->Gaussian())};
      logps_out[k][i] = static_cast<float>(i);
    }
  }
}

/// Collects with the in-process VecSampler — the reference result.
core::MultiAgentBuffer VecCollect(int workers, int episodes,
                                  std::vector<env::Metrics>* metrics_out) {
  env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng rng(11);
  core::VecSampler sampler(env, rng, workers, 11);
  core::MultiAgentBuffer buffer(env.num_agents());
  std::vector<env::Metrics> metrics;
  sampler.Collect(episodes, DummyAct, buffer, metrics);
  if (metrics_out) *metrics_out = std::move(metrics);
  return buffer;
}

/// Collects through real agsc_worker subprocesses.
core::MultiAgentBuffer ProcCollect(int workers, int episodes,
                                   std::vector<env::Metrics>* metrics_out,
                                   int* respawns_out = nullptr) {
  env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng rng(11);
  core::ProcSampler sampler(env, rng, workers, 11, WorkerOptions());
  core::MultiAgentBuffer buffer(env.num_agents());
  std::vector<env::Metrics> metrics;
  sampler.Collect(episodes, DummyAct, buffer, metrics);
  if (metrics_out) *metrics_out = std::move(metrics);
  if (respawns_out) *respawns_out = sampler.respawn_count();
  return buffer;
}

void ExpectMetricsBitEqual(const std::vector<env::Metrics>& a,
                           const std::vector<env::Metrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ToVector(), b[i].ToVector()) << "episode " << i;
  }
}

/// Scoped AGSC_FAULT_* environment: sets the given variables for the
/// workers spawned inside the scope, and clears ALL worker-fault variables
/// on destruction so later tests (and the test process itself) start clean.
class ScopedWorkerFaultEnv {
 public:
  explicit ScopedWorkerFaultEnv(
      const std::vector<std::pair<std::string, std::string>>& vars) {
    for (const auto& [key, value] : vars) {
      ::setenv(key.c_str(), value.c_str(), 1);
    }
  }
  ~ScopedWorkerFaultEnv() {
    for (const char* key :
         {"AGSC_FAULT_KILL_WORKER_NTH", "AGSC_FAULT_CORRUPT_FRAME",
          "AGSC_FAULT_STALL_PIPE", "AGSC_FAULT_STALL_MS",
          "AGSC_FAULT_STALL_READS", "AGSC_FAULT_STALL_READS_INCARNATION",
          "AGSC_FAULT_DROP_CONN", "AGSC_FAULT_WORKER_ID"}) {
      ::unsetenv(key);
    }
  }
};

// ---------------------------------------------------------------------------
// Construction and unrecoverable failures.
// ---------------------------------------------------------------------------

TEST(ProcSamplerTest, RejectsBadConstruction) {
  env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng rng(11);
  EXPECT_THROW(core::ProcSampler(env, rng, 0, 11, WorkerOptions()),
               std::invalid_argument);
  core::ProcSampler::Options no_binary;
  EXPECT_THROW(core::ProcSampler(env, rng, 1, 11, no_binary),
               std::invalid_argument);
}

TEST(ProcSamplerTest, MissingWorkerBinaryThrowsProcWorkerError) {
  env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng rng(11);
  core::ProcSampler::Options options = WorkerOptions();
  options.worker_binary = TempPath("no_such_worker_binary");
  // Tight budget/backoff: the spawn retry loop must exhaust quickly.
  options.respawn_backoff.max_attempts = 2;
  options.respawn_backoff.initial_backoff_ms = 1;
  options.respawn_backoff.max_backoff_ms = 2;
  core::ProcSampler sampler(env, rng, 1, 11, std::move(options));
  core::MultiAgentBuffer buffer(env.num_agents());
  std::vector<env::Metrics> metrics;
  EXPECT_THROW(sampler.Collect(1, DummyAct, buffer, metrics),
               core::ProcWorkerError);
}

TEST(ProcSamplerTest, NotAWorkerProtocolBinaryThrowsProcWorkerError) {
  // /bin/true exists and exits immediately: the handshake read hits EOF.
  env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng rng(11);
  core::ProcSampler::Options options = WorkerOptions();
  options.worker_binary = "/bin/true";
  options.respawn_backoff.max_attempts = 2;
  options.respawn_backoff.initial_backoff_ms = 1;
  options.respawn_backoff.max_backoff_ms = 2;
  options.max_respawns = 1;
  core::ProcSampler sampler(env, rng, 1, 11, std::move(options));
  core::MultiAgentBuffer buffer(env.num_agents());
  std::vector<env::Metrics> metrics;
  EXPECT_THROW(sampler.Collect(1, DummyAct, buffer, metrics),
               core::ProcWorkerError);
}

// ---------------------------------------------------------------------------
// Bit-identity with the in-process sampler.
// ---------------------------------------------------------------------------

TEST(ProcSamplerTest, SingleWorkerMatchesVecSamplerBitExactly) {
  std::vector<env::Metrics> vec_metrics, proc_metrics;
  const core::MultiAgentBuffer vec = VecCollect(1, 3, &vec_metrics);
  const core::MultiAgentBuffer proc = ProcCollect(1, 3, &proc_metrics);
  ExpectBuffersBitEqual(vec, proc);
  ExpectMetricsBitEqual(vec_metrics, proc_metrics);
}

TEST(ProcSamplerTest, MultiWorkerMatchesVecSamplerBitExactly) {
  for (const int workers : {2, 3}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::vector<env::Metrics> vec_metrics, proc_metrics;
    const core::MultiAgentBuffer vec = VecCollect(workers, 5, &vec_metrics);
    const core::MultiAgentBuffer proc =
        ProcCollect(workers, 5, &proc_metrics);
    ExpectBuffersBitEqual(vec, proc);
    ExpectMetricsBitEqual(vec_metrics, proc_metrics);
  }
}

TEST(ProcSamplerTest, MoreWorkersThanEpisodesStillMatches) {
  std::vector<env::Metrics> vec_metrics, proc_metrics;
  const core::MultiAgentBuffer vec = VecCollect(4, 2, &vec_metrics);
  const core::MultiAgentBuffer proc = ProcCollect(4, 2, &proc_metrics);
  ExpectBuffersBitEqual(vec, proc);
  ExpectMetricsBitEqual(vec_metrics, proc_metrics);
}

TEST(ProcSamplerTest, NextRowIsTheFollowingRowWithinEpisodes) {
  // The trainer takes V(next_obs[t]) from V(obs[t + 1]) wherever the two
  // rows are byte-equal and runs a second critic pass on every other
  // non-done row, so a sampler that broke this would only show up as a
  // slower optimize phase. Pin it for both transports.
  struct Collected {
    std::string name;
    core::MultiAgentBuffer buffer;
  };
  std::vector<Collected> runs;
  runs.push_back({"vec W=1", VecCollect(1, 3, nullptr)});
  runs.push_back({"vec W=3", VecCollect(3, 5, nullptr)});
  runs.push_back({"proc W=2", ProcCollect(2, 5, nullptr)});
  auto expect_next_is_following =
      [](const std::vector<std::vector<float>>& rows,
         const std::vector<std::vector<float>>& next_rows,
         const std::vector<uint8_t>& dones) {
        ASSERT_EQ(next_rows.size(), rows.size());
        ASSERT_EQ(dones.size(), rows.size());
        ASSERT_TRUE(dones.back());
        for (size_t t = 0; t + 1 < rows.size(); ++t) {
          if (dones[t]) continue;
          ASSERT_EQ(next_rows[t].size(), rows[t + 1].size()) << "row " << t;
          EXPECT_EQ(std::memcmp(next_rows[t].data(), rows[t + 1].data(),
                                rows[t + 1].size() * sizeof(float)),
                    0)
              << "row " << t;
        }
      };
  for (const Collected& run : runs) {
    SCOPED_TRACE(run.name);
    const core::MultiAgentBuffer& b = run.buffer;
    ASSERT_GT(b.size(), 0u);
    expect_next_is_following(b.states, b.next_states, b.done);
    for (const core::AgentRollout& r : b.agents) {
      expect_next_is_following(r.obs, r.next_obs, r.done);
    }
  }
}

TEST(ProcSamplerTest, PrimaryRngStreamsAdvanceIdentically) {
  // After collection the primary env/sampling streams (worker 0 aliases
  // them in both samplers) must sit at the same state — this is what makes
  // checkpoints and oracle checks mode-independent.
  env::ScEnv vec_env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng vec_rng(11);
  {
    core::VecSampler sampler(vec_env, vec_rng, 2, 11);
    core::MultiAgentBuffer buffer(vec_env.num_agents());
    std::vector<env::Metrics> metrics;
    sampler.Collect(4, DummyAct, buffer, metrics);
  }
  env::ScEnv proc_env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng proc_rng(11);
  {
    core::ProcSampler sampler(proc_env, proc_rng, 2, 11, WorkerOptions());
    core::MultiAgentBuffer buffer(proc_env.num_agents());
    std::vector<env::Metrics> metrics;
    sampler.Collect(4, DummyAct, buffer, metrics);
    // The split streams (checkpoint "vrng" payload) must also agree.
    env::ScEnv ref_env(SmallEnvConfig(), SmallDataset(), 11);
    util::Rng ref_rng(11);
    core::VecSampler ref(ref_env, ref_rng, 2, 11);
    core::MultiAgentBuffer ref_buffer(ref_env.num_agents());
    std::vector<env::Metrics> ref_metrics;
    ref.Collect(4, DummyAct, ref_buffer, ref_metrics);
    const std::vector<util::Rng*> proc_streams = sampler.SplitRngs();
    const std::vector<util::Rng*> ref_streams = ref.SplitRngs();
    ASSERT_EQ(proc_streams.size(), ref_streams.size());
    for (size_t i = 0; i < proc_streams.size(); ++i) {
      EXPECT_EQ(proc_streams[i]->SaveState(), ref_streams[i]->SaveState())
          << "stream " << i;
    }
  }
  EXPECT_EQ(vec_rng.SaveState(), proc_rng.SaveState());
  EXPECT_EQ(vec_env.rng().SaveState(), proc_env.rng().SaveState());
}

TEST(ProcSamplerTest, StopCheckInterruptsCollect) {
  env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng rng(11);
  core::ProcSampler sampler(env, rng, 2, 11, WorkerOptions());
  // Polls 1 and 2 come before the round and before timeslot 0; poll 3, at
  // the start of timeslot 1, requests the stop. Collect must throw there
  // and discard the first timeslot's experience.
  int polls = 0;
  sampler.set_stop_check([&] { return ++polls > 2; });
  core::MultiAgentBuffer buffer(env.num_agents());
  std::vector<env::Metrics> metrics;
  EXPECT_THROW(sampler.Collect(2, DummyAct, buffer, metrics),
               util::InterruptedError);
  EXPECT_EQ(polls, 3);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_TRUE(metrics.empty());
}

// ---------------------------------------------------------------------------
// Fault injection: every fault is absorbed by respawn-and-replay and the
// result stays bit-identical to the fault-free reference.
// ---------------------------------------------------------------------------

TEST(ProcSamplerFaultTest, WorkerKilledMidEpisodeIsReplayedBitExactly) {
  const core::MultiAgentBuffer reference = VecCollect(2, 4, nullptr);
  int respawns = 0;
  core::MultiAgentBuffer faulty(2);  // 1 UAV + 1 UGV.
  {
    // Worker 1 SIGKILLs itself on its 3rd step frame of incarnation 0.
    ScopedWorkerFaultEnv env_guard({{"AGSC_FAULT_KILL_WORKER_NTH", "3"},
                                    {"AGSC_FAULT_WORKER_ID", "1"}});
    faulty = ProcCollect(2, 4, nullptr, &respawns);
  }
  EXPECT_GE(respawns, 1);
  ExpectBuffersBitEqual(reference, faulty);
}

TEST(ProcSamplerFaultTest, CorruptFrameIsDetectedAndReplayedBitExactly) {
  const core::MultiAgentBuffer reference = VecCollect(2, 4, nullptr);
  int respawns = 0;
  core::MultiAgentBuffer faulty(2);  // 1 UAV + 1 UGV.
  {
    // Worker 0's 2nd outgoing result frame has a payload byte flipped after
    // its CRC was computed — the trainer must detect the mismatch, never
    // consume the frame, and replay the shard.
    ScopedWorkerFaultEnv env_guard({{"AGSC_FAULT_CORRUPT_FRAME", "2"},
                                    {"AGSC_FAULT_WORKER_ID", "0"}});
    faulty = ProcCollect(2, 4, nullptr, &respawns);
  }
  EXPECT_GE(respawns, 1);
  ExpectBuffersBitEqual(reference, faulty);
}

TEST(ProcSamplerFaultTest, StalledPipeIsKilledAndReplayedBitExactly) {
  const core::MultiAgentBuffer reference = VecCollect(2, 3, nullptr);
  int respawns = 0;
  core::MultiAgentBuffer faulty(2);  // 1 UAV + 1 UGV.
  {
    // Worker 1 sleeps 30s before its 2nd result — far past the 1s step
    // deadline, so the trainer must kill and replay it.
    ScopedWorkerFaultEnv env_guard({{"AGSC_FAULT_STALL_PIPE", "2"},
                                    {"AGSC_FAULT_STALL_MS", "30000"},
                                    {"AGSC_FAULT_WORKER_ID", "1"}});
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    util::Rng rng(11);
    core::ProcSampler::Options options = WorkerOptions();
    options.step_deadline_ms = 1000;
    core::ProcSampler sampler(env, rng, 2, 11, std::move(options));
    faulty = core::MultiAgentBuffer(env.num_agents());
    std::vector<env::Metrics> metrics;
    sampler.Collect(3, DummyAct, faulty, metrics);
    respawns = sampler.respawn_count();
  }
  EXPECT_GE(respawns, 1);
  ExpectBuffersBitEqual(reference, faulty);
}

TEST(ProcSamplerFaultTest, StalledWriteSidePeerIsDetectedWithinDeadline) {
  // The write-path-stall fix, end to end: worker 1 crashes late in a long
  // episode, so the replay prefix (~230 actions) outgrows the one-page pipe
  // the trainer writes into — and the respawned incarnation 1 stalls 30 s
  // before reading it. Without the poll(POLLOUT)-bounded FrameWriter::Write
  // the trainer would block in write(2) forever; with it, the stalled
  // write-side peer yields kTimeout within the 1 s step deadline, is failed
  // like any other fault, and incarnation 2 replays the shard bit-exactly.
  env::EnvConfig config = SmallEnvConfig();
  config.num_timeslots = 240;  // ~230 x 24 B of replay > the 4 KiB pipe.

  env::ScEnv vec_env(config, SmallDataset(), 11);
  util::Rng vec_rng(11);
  core::VecSampler vec(vec_env, vec_rng, 2, 11);
  core::MultiAgentBuffer reference(vec_env.num_agents());
  std::vector<env::Metrics> vec_metrics;
  vec.Collect(2, DummyAct, reference, vec_metrics);

  int respawns = 0;
  core::MultiAgentBuffer faulty(2);  // 1 UAV + 1 UGV.
  const auto faulty_start = std::chrono::steady_clock::now();
  {
    ScopedWorkerFaultEnv env_guard(
        {{"AGSC_FAULT_KILL_WORKER_NTH", "232"},
         {"AGSC_FAULT_STALL_READS", "2"},  // Read 1 = init, 2 = the prefix.
         {"AGSC_FAULT_STALL_READS_INCARNATION", "1"},
         {"AGSC_FAULT_STALL_MS", "30000"},
         {"AGSC_FAULT_WORKER_ID", "1"}});
    env::ScEnv env(config, SmallDataset(), 11);
    util::Rng rng(11);
    core::ProcSampler::Options options = WorkerOptions();
    options.step_deadline_ms = 1000;
    options.send_buffer_bytes = 4096;
    core::ProcSampler sampler(env, rng, 2, 11, std::move(options));
    faulty = core::MultiAgentBuffer(env.num_agents());
    std::vector<env::Metrics> metrics;
    sampler.Collect(2, DummyAct, faulty, metrics);
    respawns = sampler.respawn_count();
  }
  const long faulty_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - faulty_start)
          .count();
  // At least two respawns: the SIGKILL, then the wedged prefix write.
  EXPECT_GE(respawns, 2);
  // "Within deadline" means the trainer escalated off the bounded write —
  // it must not have waited out the 30 s stall (nor the scaled
  // prefix-read budget, ~249 s here) for the peer to wake up and drain.
  EXPECT_LT(faulty_ms, 30000) << "stalled write-side peer was not detected "
                                 "within the step deadline";
  ExpectBuffersBitEqual(reference, faulty);
}

// ---------------------------------------------------------------------------
// Remote mode (--remote-workers analogue): agsc_worker --connect processes
// over loopback TCP, same bit-exactness contract, and disconnect-reconnect-
// and-replay instead of SIGKILL-respawn-and-replay.
// ---------------------------------------------------------------------------

core::ProcSampler::Options RemoteOptions() {
  core::ProcSampler::Options options;
  options.listen_address = "127.0.0.1:0";  // Kernel-assigned port.
  return options;
}

/// Launches `count` agsc_worker --connect processes against the sampler's
/// bound port. The returned handles SIGKILL their children on destruction,
/// so a failing test never leaks workers.
std::vector<std::unique_ptr<util::Subprocess>> LaunchRemoteWorkers(int port,
                                                                   int count) {
  std::vector<std::unique_ptr<util::Subprocess>> fleet;
  for (int w = 0; w < count; ++w) {
    auto proc = std::make_unique<util::Subprocess>();
    EXPECT_TRUE(proc->Start({AGSC_WORKER_BINARY, "--connect",
                             "127.0.0.1:" + std::to_string(port),
                             "--worker-id", std::to_string(w)}));
    fleet.push_back(std::move(proc));
  }
  return fleet;
}

/// Collects through remote workers over loopback; asserts they shut down
/// cleanly (exit 0 on the trainer's kMsgShutdown) after the sampler dies.
core::MultiAgentBuffer RemoteCollect(int workers, int episodes,
                                     std::vector<env::Metrics>* metrics_out,
                                     int* respawns_out = nullptr,
                                     long step_deadline_ms = 0) {
  env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng rng(11);
  core::MultiAgentBuffer buffer(env.num_agents());
  std::vector<std::unique_ptr<util::Subprocess>> fleet;
  {
    core::ProcSampler::Options options = RemoteOptions();
    options.step_deadline_ms = step_deadline_ms;
    core::ProcSampler sampler(env, rng, workers, 11, std::move(options));
    EXPECT_GT(sampler.bound_port(), 0);
    EXPECT_TRUE(sampler.remote());
    fleet = LaunchRemoteWorkers(sampler.bound_port(), workers);
    std::vector<env::Metrics> metrics;
    sampler.Collect(episodes, DummyAct, buffer, metrics);
    if (metrics_out) *metrics_out = std::move(metrics);
    if (respawns_out) *respawns_out = sampler.respawn_count();
  }  // Sampler destructor sends kMsgShutdown over every live socket.
  for (size_t w = 0; w < fleet.size(); ++w) {
    int exit_code = -1;
    EXPECT_TRUE(fleet[w]->Wait(&exit_code, 10000)) << "worker " << w;
    EXPECT_EQ(exit_code, 0) << "worker " << w;
  }
  return buffer;
}

TEST(RemoteSamplerTest, RemoteWorkersMatchVecSamplerBitExactly) {
  std::vector<env::Metrics> vec_metrics, remote_metrics;
  const core::MultiAgentBuffer vec = VecCollect(2, 4, &vec_metrics);
  const core::MultiAgentBuffer remote = RemoteCollect(2, 4, &remote_metrics);
  ExpectBuffersBitEqual(vec, remote);
  ExpectMetricsBitEqual(vec_metrics, remote_metrics);
}

TEST(RemoteSamplerTest, DroppedConnectionIsReconnectedAndReplayedBitExactly) {
  const core::MultiAgentBuffer reference = VecCollect(2, 4, nullptr);
  int respawns = 0;
  core::MultiAgentBuffer faulty(2);  // 1 UAV + 1 UGV.
  {
    // Worker 1 severs its TCP connection instead of reading its 4th frame
    // (mid-episode), then reconnects: the injected network partition. The
    // sampler must treat the EOF exactly like a crash — fail the slot,
    // re-attach the reconnecting worker, replay the episode prefix.
    ScopedWorkerFaultEnv env_guard({{"AGSC_FAULT_DROP_CONN", "4"},
                                    {"AGSC_FAULT_WORKER_ID", "1"}});
    faulty = RemoteCollect(2, 4, nullptr, &respawns);
  }
  EXPECT_GE(respawns, 1);
  ExpectBuffersBitEqual(reference, faulty);
}

TEST(RemoteSamplerTest, RemoteTimeoutReattachesTheReconnectingWorker) {
  // The socket flavor of the stalled-pipe fault: worker 1 sleeps 5 s
  // before writing its 2nd result, past the 1 s step deadline. The sampler
  // drops the connection; unlike the pipe case it cannot SIGKILL a remote
  // peer, so the worker itself must notice the dead socket when it wakes
  // (write fails), reconnect, and replay — bit-identical either way.
  const core::MultiAgentBuffer reference = VecCollect(2, 3, nullptr);
  int respawns = 0;
  core::MultiAgentBuffer faulty(2);  // 1 UAV + 1 UGV.
  {
    ScopedWorkerFaultEnv env_guard({{"AGSC_FAULT_STALL_PIPE", "2"},
                                    {"AGSC_FAULT_STALL_MS", "5000"},
                                    {"AGSC_FAULT_WORKER_ID", "1"}});
    faulty = RemoteCollect(2, 3, nullptr, &respawns,
                           /*step_deadline_ms=*/1000);
  }
  EXPECT_GE(respawns, 1);
  ExpectBuffersBitEqual(reference, faulty);
}

// ---------------------------------------------------------------------------
// Trainer-level: checkpoints and cross-mode resume.
// ---------------------------------------------------------------------------

core::TrainConfig ProcTrainConfig(int workers, int episodes = 3) {
  core::TrainConfig train = SmallTrainConfig(episodes);
  train.proc_workers = workers;
  train.worker_binary = AGSC_WORKER_BINARY;
  return train;
}

core::TrainConfig VecTrainConfig(int workers, int episodes = 3) {
  core::TrainConfig train = SmallTrainConfig(episodes);
  train.num_workers = workers;
  return train;
}

TEST(ProcTrainerTest, CheckpointBytesMatchInProcessTrainer) {
  auto run = [](const core::TrainConfig& train, const std::string& name) {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer trainer(env, train);
    trainer.TrainTo(2);
    const std::string path = TempPath(name);
    EXPECT_TRUE(trainer.SaveCheckpoint(path));
    std::string bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    return bytes;
  };
  for (const int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const std::string vec_bytes =
        run(VecTrainConfig(workers), "xvec.agsc");
    const std::string proc_bytes =
        run(ProcTrainConfig(workers), "xproc.agsc");
    ASSERT_FALSE(vec_bytes.empty());
    EXPECT_EQ(vec_bytes, proc_bytes);
  }
}

TEST(ProcTrainerTest, ThousandPoiCollectMatchesInProcessBitExactly) {
  // At 1000 PoIs agsc_train's default actors have a 1.47 MiB first layer,
  // so the trainer runs its collect forwards in optimize-pool lanes. One
  // short episode per agsc_worker process must give the buffer and metrics
  // of an in-process collect whose forwards are forced onto the calling
  // thread.
  constexpr int kWorkers = 4;
  const map::Dataset dataset =
      map::BuildDataset(map::CampusId::kPurdue, 1000);
  env::EnvConfig env_config;
  env_config.num_timeslots = 8;
  env_config.num_pois = 1000;
  core::TrainConfig train;
  train.episodes_per_iteration = kWorkers;
  train.seed = 11;
  train.verbose = false;

  env::ScEnv proc_env(env_config, dataset, 11);
  core::TrainConfig proc_train = train;
  proc_train.proc_workers = kWorkers;
  proc_train.worker_binary = AGSC_WORKER_BINARY;
  core::HiMadrlTrainer proc(proc_env, proc_train);
  ASSERT_TRUE(proc.CollectForwardsInLanes());
  proc.CollectRollouts();

  env::ScEnv vec_env(env_config, dataset, 11);
  core::TrainConfig vec_train = train;
  vec_train.num_workers = kWorkers;
  using core::internal::ForwardPlacement;
  core::internal::SetForwardPlacement(ForwardPlacement::kCaller);
  core::HiMadrlTrainer vec(vec_env, vec_train);
  EXPECT_FALSE(vec.CollectForwardsInLanes());
  vec.CollectRollouts();
  core::internal::SetForwardPlacement(ForwardPlacement::kBySize);

  ASSERT_EQ(proc.buffer().size(), static_cast<size_t>(kWorkers * 8));
  ExpectBuffersBitEqual(vec.buffer(), proc.buffer());
  ASSERT_EQ(proc.buffer().agents[0].obs[0].size(), 3012u);
}

TEST(ProcTrainerTest, CrossModeResumeIsBitExact) {
  // Full fault-free in-process run as reference.
  env::ScEnv env_full(SmallEnvConfig(), SmallDataset(), 11);
  core::HiMadrlTrainer full(env_full, VecTrainConfig(2));
  full.TrainTo(4);
  const std::string full_path = TempPath("xfull.agsc");
  ASSERT_TRUE(full.SaveCheckpoint(full_path));

  // First half in subprocess mode, second half resumed in-process.
  const std::string mid_path = TempPath("xmid.agsc");
  {
    env::ScEnv env_a(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer first_half(env_a, ProcTrainConfig(2));
    first_half.TrainTo(2);
    ASSERT_TRUE(first_half.SaveCheckpoint(mid_path));
  }
  env::ScEnv env_b(SmallEnvConfig(), SmallDataset(), 11);
  core::HiMadrlTrainer second_half(env_b, VecTrainConfig(2));
  ASSERT_TRUE(second_half.LoadCheckpoint(mid_path));
  EXPECT_EQ(second_half.iteration(), 2);
  second_half.TrainTo(4);
  const std::string resumed_path = TempPath("xresumed.agsc");
  ASSERT_TRUE(second_half.SaveCheckpoint(resumed_path));

  EXPECT_EQ(ReadFileBytes(full_path), ReadFileBytes(resumed_path));
  std::remove(full_path.c_str());
  std::remove(mid_path.c_str());
  std::remove(resumed_path.c_str());
}

TEST(ProcTrainerTest, WorkerCountMismatchOnLoadIsRejected) {
  const std::string w2_path = TempPath("xw2.agsc");
  {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer trainer(env, ProcTrainConfig(2));
    trainer.TrainIteration();
    ASSERT_TRUE(trainer.SaveCheckpoint(w2_path));
  }
  // Subprocess-mode W=2 file into in-process W=1 and W=3 trainers: the vrng
  // worker count guards the load in both modes.
  for (const int workers : {1, 3}) {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer trainer(env, VecTrainConfig(workers));
    EXPECT_FALSE(trainer.LoadCheckpoint(w2_path)) << "workers=" << workers;
  }
  // Matching count loads in either mode. The proc trainer spawns lazily, so
  // the load needs no worker processes at all.
  {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer trainer(env, ProcTrainConfig(2));
    EXPECT_TRUE(trainer.LoadCheckpoint(w2_path));
  }
  {
    env::ScEnv env(SmallEnvConfig(), SmallDataset(), 11);
    core::HiMadrlTrainer trainer(env, VecTrainConfig(2));
    EXPECT_TRUE(trainer.LoadCheckpoint(w2_path));
  }
  std::remove(w2_path.c_str());
}

TEST(ProcTrainerTest, OracleFallbackPropagatesToWorkers) {
  // The spatial-index fallback on the sampler is sticky and bit-identical by
  // the env-naive oracle contract: collection after the downgrade must match
  // an in-process sampler downgraded the same way.
  env::ScEnv vec_env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng vec_rng(11);
  core::VecSampler vec(vec_env, vec_rng, 2, 11);
  vec.AddFallbacks(core::kFallbackSpatialIndex);
  core::MultiAgentBuffer vec_buffer(vec_env.num_agents());
  std::vector<env::Metrics> vec_metrics;
  vec.Collect(4, DummyAct, vec_buffer, vec_metrics);

  env::ScEnv proc_env(SmallEnvConfig(), SmallDataset(), 11);
  util::Rng proc_rng(11);
  core::ProcSampler proc(proc_env, proc_rng, 2, 11, WorkerOptions());
  proc.AddFallbacks(core::kFallbackSpatialIndex);
  core::MultiAgentBuffer proc_buffer(proc_env.num_agents());
  std::vector<env::Metrics> proc_metrics;
  proc.Collect(4, DummyAct, proc_buffer, proc_metrics);

  ExpectBuffersBitEqual(vec_buffer, proc_buffer);
  ExpectMetricsBitEqual(vec_metrics, proc_metrics);

  // The spatial-index case passes even if the flag never reaches a worker.
  // The channel downgrade changes results when the env runs the fast-math
  // tier, so this case can fail: a fast-math env whose sampler is
  // downgraded must collect exactly what an exact scalar-channel env
  // collects.
  env::EnvConfig exact_config = SmallEnvConfig();
  exact_config.use_channel_batch = false;
  env::EnvConfig fast_config = SmallEnvConfig();
  fast_config.env_fast_math = true;

  struct Run {
    core::MultiAgentBuffer buffer;
    std::vector<env::Metrics> metrics;
  };
  // Each run collects twice and keeps the second collect. The downgrade
  // comes between the two, as the trainer's oracle check does between
  // iterations: the first collect has already started the workers, so the
  // flag must reach running workers. (A worker started after the downgrade
  // would take the scalar path from its init frame alone.)
  const auto collect = [](const env::EnvConfig& config, bool proc,
                          bool downgrade) {
    env::ScEnv env(config, SmallDataset(), 11);
    util::Rng rng(11);
    std::unique_ptr<core::Sampler> sampler;
    if (proc) {
      sampler = std::make_unique<core::ProcSampler>(env, rng, 2, 11,
                                                    WorkerOptions());
    } else {
      sampler = std::make_unique<core::VecSampler>(env, rng, 2, 11);
    }
    Run first{core::MultiAgentBuffer(env.num_agents()), {}};
    sampler->Collect(2, DummyAct, first.buffer, first.metrics);
    if (downgrade) sampler->AddFallbacks(core::kFallbackChannel);
    Run run{core::MultiAgentBuffer(env.num_agents()), {}};
    sampler->Collect(4, DummyAct, run.buffer, run.metrics);
    return run;
  };

  const Run exact = collect(exact_config, /*proc=*/false, false);
  for (const bool proc : {false, true}) {
    SCOPED_TRACE(proc ? "subprocess workers" : "in-process workers");
    const Run downgraded = collect(fast_config, proc, /*downgrade=*/true);
    ExpectBuffersBitEqual(exact.buffer, downgraded.buffer);
    ExpectMetricsBitEqual(exact.metrics, downgraded.metrics);
  }

  // Without the downgrade the fast-math tier is visible in the metrics, so
  // the equality above is evidence that the flag was applied.
  const Run fast = collect(fast_config, /*proc=*/true, /*downgrade=*/false);
  ASSERT_EQ(fast.metrics.size(), exact.metrics.size());
  bool differs = false;
  for (size_t i = 0; i < fast.metrics.size(); ++i) {
    differs = differs ||
              fast.metrics[i].ToVector() != exact.metrics[i].ToVector();
  }
  EXPECT_TRUE(differs)
      << "fast-math metrics equal the exact path; this case cannot detect "
         "a lost channel downgrade";
}

}  // namespace
}  // namespace agsc
