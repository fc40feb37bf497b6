// End-to-end benchmark harness. Times the repository's public entry points
// from outside, on one of three workloads, and prints one JSON object as the
// last line of stdout. perfbench/run.py builds this binary and wraps it; run
// it by hand as
//
//   agsc_perfbench --workload train_w1|rollout_proc4_poi1k|serve_act_tcp
//                  --seed S --seconds N --trace 0|1
//                  --bin-dir DIR --work-dir DIR [--smoke]
//
// Workloads (all on the Purdue campus, T = 100, 2 UAV + 2 UGV, 128/64 nets):
//  * train_w1: full h/i-MADRL iterations (IPPO + i-EOI + h-CoPO, 4 episodes
//    per iteration, I = 100) in-process with one rollout worker, writing an
//    auto-checkpoint every iteration.
//  * rollout_proc4_poi1k: CollectRollouts only, through 4 agsc_worker
//    subprocesses at I = 1000.
//  * serve_act_tcp: a real `agsc_serve --listen` on loopback serving a
//    100-PoI checkpoint, driven by stateless Act from two pipelined
//    connections: first closed-loop with a fixed number of requests in
//    flight (saturation), then open-loop at a rate well below the knee.
//    Both loads stay inside the server's admission limits, so no request is
//    refused.
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same workload
// with spans around each public call and replays of single layers, and
// reports the per-layer metrics. A layer the workload itself does not run is
// timed once on the workload's own data after the measured loop (optimize
// and checkpoint on the rollout buffer, collect and optimize on the served
// architecture, a paced serving probe of the workload's own checkpoint), so
// every timed layer reads a measurement on every workload. Both modes run
// the output checks.
// --smoke shrinks every workload to a fraction of a second of work so the
// harness itself can be tested.

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.h"
#include "core/hi_madrl.h"
#include "core/serve_protocol.h"
#include "core/worker_protocol.h"
#include "map/trace.h"
#include "nn/tensor.h"
#include "util/build_info.h"
#include "util/parse.h"
#include "util/subprocess.h"

namespace {

using namespace agsc;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (std::isinf(v[hi])) return frac > 0.0 ? v[hi] : v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// The samples in run order, in milliseconds, for the info object.
std::string SampleLog(const std::vector<double>& seconds) {
  std::string out;
  char buf[32];
  for (double s : seconds) {
    std::snprintf(buf, sizeof(buf), "%s%.1f", out.empty() ? "" : " ", s * 1e3);
    out += buf;
  }
  return out;
}

/// Peak resident set of process `pid` (VmHWM), in MiB; 0 if unreadable.
double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

/// Bit equality of two float sequences (operator== would equate -0 and +0
/// and never match NaN).
bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(float)) == 0);
}

bool BitEqual(const std::vector<std::vector<float>>& a,
              const std::vector<std::vector<float>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitEqual(a[i], b[i])) return false;
  }
  return true;
}

bool BuffersBitEqual(const core::MultiAgentBuffer& a,
                     const core::MultiAgentBuffer& b) {
  if (a.agents.size() != b.agents.size()) return false;
  for (size_t k = 0; k < a.agents.size(); ++k) {
    const core::AgentRollout& x = a.agents[k];
    const core::AgentRollout& y = b.agents[k];
    if (!BitEqual(x.obs, y.obs) || !BitEqual(x.next_obs, y.next_obs) ||
        !BitEqual(x.action_dir, y.action_dir) ||
        !BitEqual(x.action_speed, y.action_speed) ||
        !BitEqual(x.logp_old, y.logp_old) ||
        !BitEqual(x.reward_ext, y.reward_ext) ||
        x.he_neighbors != y.he_neighbors || x.ho_neighbors != y.ho_neighbors ||
        x.done != y.done) {
      return false;
    }
  }
  return BitEqual(a.states, b.states) &&
         BitEqual(a.next_states, b.next_states) && a.done == b.done;
}

/// Bytes held by the rollout buffer's streams (element counts x widths).
double BufferBytes(const core::MultiAgentBuffer& b) {
  auto rows = [](const std::vector<std::vector<float>>& v) {
    double n = 0;
    for (const auto& r : v) n += static_cast<double>(r.size()) * sizeof(float);
    return n;
  };
  auto ids = [](const std::vector<std::vector<int>>& v) {
    double n = 0;
    for (const auto& r : v) n += static_cast<double>(r.size()) * sizeof(int);
    return n;
  };
  double total = rows(b.states) + rows(b.next_states) +
                 static_cast<double>(b.reward_all.size()) * sizeof(float) +
                 static_cast<double>(b.done.size());
  for (const core::AgentRollout& r : b.agents) {
    total += rows(r.obs) + rows(r.next_obs) + ids(r.he_neighbors) +
             ids(r.ho_neighbors) + static_cast<double>(r.done.size());
    for (const std::vector<float>* v :
         {&r.action_dir, &r.action_speed, &r.logp_old, &r.reward_ext,
          &r.reward_int, &r.reward, &r.reward_he, &r.reward_ho}) {
      total += static_cast<double>(v->size()) * sizeof(float);
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Metric registry and the result line.

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload under --trace 0. Each
/// workload maps them onto its own unit of work (see BENCHMARK.json). The
/// latency tail is reported in the info object, not here: on a shared host
/// a run-long slowdown of the machine multiplies the serving tail about
/// threefold against about 1.5-fold for the median, so a tail metric's
/// run-to-run spread exceeds any usable regression bound.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},      {"peak_rss_mb", "MiB"}, {"ok_ratio", "ratio"},
    {"op_p50_ms", "ms"},   {"throughput", "1/s"},
};

/// Per-layer metrics, reported under --trace 1. A layer a workload does not
/// exercise reads 0 and is listed under "not_exercised" in the info object.
constexpr MetricDef kPerLayer[] = {
    {"core.hi_madrl.optimize_s", "s"},
    {"core.hi_madrl.collect_s", "s"},
    {"core.hi_madrl.checkpoint_s", "s"},
    {"core.hi_madrl.checkpoint_bytes", "bytes"},
    {"core.evaluator.eval_lambda", "1"},
    {"nn.actor_dist_us", "us"},
    {"nn.mlp_infer_us", "us"},
    {"nn.fleet_act_ms", "ms"},
    {"env.sc_env.step_us", "us"},
    {"env.sc_env.reset_us", "us"},
    {"core.worker_protocol.step_result_bytes", "bytes"},
    {"core.worker_protocol.encode_us", "us"},
    {"core.worker_protocol.decode_us", "us"},
    {"core.proc_sampler.wait_s", "s"},
    {"core.proc_sampler.respawns", "count"},
    {"core.rollout.buffer_bytes", "bytes"},
    {"core.serve_protocol.frontend_ms", "ms"},
    {"core.serve_protocol.encode_us", "us"},
    {"core.serve_protocol.decode_us", "us"},
    {"core.dispatch_server.latency_ms", "ms"},
    {"core.dispatch_server.batch_ms", "ms"},
    {"core.dispatch_server.queue_depth", "count"},
    {"core.dispatch_server.rows_per_batch", "count"},
    {"core.dispatch_server.rejected_queue_full", "count"},
    {"core.dispatch_server.rejected_client_cap", "count"},
    {"core.dispatch_server.rejected_deadline", "count"},
    {"core.dispatch_server.shed", "count"},
    {"core.dispatch_server.expired", "count"},
    {"bench.gen_late_ms", "ms"},
    {"bench.trace_coverage", "ratio"},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class Result {
 public:
  explicit Result(bool trace) : trace_(trace) {}

  void Metric(const std::string& name, double value) {
    for (const MetricDef& def : Defs()) {
      if (name == def.name) {
        metrics_[name] = value;
        return;
      }
    }
    throw std::logic_error("unknown metric for this mode: " + name);
  }
  /// Records a failed output check; the run then reports correct=false.
  void Check(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  void Info(const std::string& key, double value) {
    info_[key] = JsonNumber(value);
  }
  void Info(const std::string& key, const std::string& value) {
    info_[key] = JsonString(value);
  }

  long attempted = 0;
  long failed = 0;

  std::string Json() {
    std::vector<std::string> missing;
    for (const MetricDef& def : Defs()) {
      if (metrics_.count(def.name) == 0) {
        metrics_[def.name] = 0.0;
        missing.push_back(def.name);
      }
    }
    if (!trace_) {
      for (const std::string& name : missing) {
        failures_.push_back("end-to-end metric not measured: " + name);
      }
    }
    std::ostringstream out;
    out << "{\"correct\": " << (failures_.empty() ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef& def : Defs()) {
      out << (first ? "" : ", ") << JsonString(def.name)
          << ": {\"value\": " << JsonNumber(metrics_[def.name])
          << ", \"unit\": " << JsonString(def.unit) << "}";
      first = false;
    }
    out << "}, \"info\": {";
    first = true;
    for (const auto& [key, value] : info_) {
      out << (first ? "" : ", ") << JsonString(key) << ": " << value;
      first = false;
    }
    std::string notes;
    for (const std::string& name : missing) notes += (notes.empty() ? "" : ",") + name;
    out << (first ? "" : ", ") << "\"not_exercised\": " << JsonString(notes);
    std::string why;
    for (const std::string& f : failures_) why += (why.empty() ? "" : "; ") + f;
    out << ", \"check_failures\": " << JsonString(why) << "}}";
    return out.str();
  }

 private:
  std::vector<MetricDef> Defs() const {
    if (trace_) return {std::begin(kPerLayer), std::end(kPerLayer)};
    return {std::begin(kEndToEnd), std::end(kEndToEnd)};
  }

  bool trace_;
  std::map<std::string, double> metrics_;
  std::map<std::string, std::string> info_;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Options and scale.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string bin_dir;
  std::string work_dir;
};

/// Environment and network scale of a workload; --smoke shrinks it.
struct Scale {
  int timeslots = 100;
  int pois = 100;
  int uavs = 2;
  int ugvs = 2;
  int episodes = 4;
  std::vector<int> hidden = {128, 64};
  int setup_reps = 5;
  int eval_episodes = 10;
};

Scale ScaleFor(const Options& opt, int pois) {
  Scale s;
  s.pois = pois;
  if (opt.smoke) {
    s.timeslots = 8;
    s.pois = std::min(pois, 30);
    s.setup_reps = 1;
    s.eval_episodes = 1;
  }
  return s;
}

env::EnvConfig EnvConfigFor(const Scale& s) {
  env::EnvConfig c;
  c.num_timeslots = s.timeslots;
  c.num_pois = s.pois;
  c.num_uavs = s.uavs;
  c.num_ugvs = s.ugvs;
  // As agsc_train without --render: training consumes only each slot's last
  // events.
  c.record_event_log = false;
  return c;
}

core::TrainConfig TrainConfigFor(const Scale& s, uint64_t seed) {
  core::TrainConfig t;  // IPPO + i-EOI + h-CoPO, as agsc_train.
  t.seed = seed;
  t.episodes_per_iteration = s.episodes;
  t.net.hidden = s.hidden;
  t.verbose = false;
  return t;
}

/// An environment plus the trainer that references it (the trainer is
/// declared last, so it is destroyed first).
struct Stack {
  std::unique_ptr<env::ScEnv> env;
  std::unique_ptr<core::HiMadrlTrainer> trainer;

  void Reset() {
    trainer.reset();
    env.reset();
  }
};

Stack BuildStack(const Scale& s, uint64_t seed, const core::TrainConfig& tc) {
  Stack st;
  st.env = std::make_unique<env::ScEnv>(
      EnvConfigFor(s), map::BuildDataset(map::CampusId::kPurdue, s.pois), seed);
  st.trainer = std::make_unique<core::HiMadrlTrainer>(*st.env, tc);
  return st;
}

/// Builds the stack `reps` times; returns the last one and the median
/// build time.
Stack TimedSetup(const Scale& s, uint64_t seed, const core::TrainConfig& tc,
                 double* setup_s) {
  std::vector<double> times;
  Stack st;
  for (int r = 0; r < s.setup_reps; ++r) {
    st.Reset();
    const auto t0 = Clock::now();
    Stack built = BuildStack(s, seed, tc);
    times.push_back(Since(t0));
    st.env = std::move(built.env);
    st.trainer = std::move(built.trainer);
  }
  *setup_s = Median(times);
  return st;
}

// ---------------------------------------------------------------------------
// Layer replays: single public calls timed on a workload's own data.

struct LayerSamples {
  std::vector<double> dist_us, infer_us, fleet_ms, step_us, reset_us;
  std::vector<double> wp_bytes, wp_encode_us, wp_decode_us;
  std::vector<double> sp_encode_us, sp_decode_us;
  double sink = 0.0;  ///< Consumes results so no call is optimized away.
};

/// Inputs for a replay: observation rows per agent and one joint action per
/// timeslot of an episode.
struct ReplayInputs {
  std::vector<std::vector<std::vector<float>>> obs;  ///< [agent][row].
  std::vector<std::vector<env::UvAction>> actions;   ///< [timeslot][agent].
};

/// Episode `episode` of the buffer (episodes are contiguous blocks of T
/// rows per agent in every sampler mode).
ReplayInputs InputsFromBuffer(const core::MultiAgentBuffer& b, int episode,
                              int timeslots) {
  ReplayInputs in;
  const size_t base = static_cast<size_t>(episode) * timeslots;
  in.obs.resize(b.agents.size());
  for (size_t k = 0; k < b.agents.size(); ++k) {
    for (int t = 0; t < timeslots; ++t) {
      in.obs[k].push_back(b.agents[k].obs[base + t]);
    }
  }
  for (int t = 0; t < timeslots; ++t) {
    std::vector<env::UvAction> joint;
    for (const core::AgentRollout& r : b.agents) {
      joint.push_back({r.action_dir[base + t], r.action_speed[base + t]});
    }
    in.actions.push_back(std::move(joint));
  }
  return in;
}

double MicrosSince(Clock::time_point t0) { return Since(t0) * 1e6; }

/// Times, on `trainer`'s own actors and a copy of `primary_env`:
///  * the tape path BatchAct runs (Dist + per-row sample + log-prob) and
///    the tape-free Mlp::Infer, both at `rows` rows;
///  * whole-fleet deterministic action selection for one timeslot (the
///    Table VII quantity);
///  * ScEnv::Reset and every ScEnv::Step of the input episode's actions;
///  * the worker-protocol StepResult and serve-protocol Act codecs on the
///    replayed observations.
void ReplayLayers(core::HiMadrlTrainer& trainer, const env::ScEnv& primary_env,
                  const ReplayInputs& in, int rows, int reps,
                  LayerSamples& out) {
  const int agents = static_cast<int>(in.obs.size());
  util::Rng rng(12345);
  for (int k = 0; k < agents; ++k) {
    const core::GaussianActor& actor = trainer.actor(k);
    const std::vector<std::vector<float>>& pool = in.obs[k];
    for (int rep = 0; rep < reps; ++rep) {
      const std::vector<float> first =
          trainer.ActorInputFor(k, pool[static_cast<size_t>(rep) % pool.size()]);
      nn::Tensor batch(rows, static_cast<int>(first.size()));
      for (int r = 0; r < rows; ++r) {
        const std::vector<float> row = trainer.ActorInputFor(
            k, pool[static_cast<size_t>(rep + r) % pool.size()]);
        std::copy(row.begin(), row.end(), batch.data() + r * batch.cols());
      }
      std::vector<util::Rng> streams(static_cast<size_t>(rows), rng);
      std::vector<util::Rng*> stream_ptrs;
      for (util::Rng& s : streams) stream_ptrs.push_back(&s);
      auto t0 = Clock::now();
      const nn::DiagGaussian dist = actor.Dist(batch);
      const nn::Tensor sampled = dist.SamplePerRow(stream_ptrs);
      const nn::Tensor logp = dist.LogProb(sampled).value();
      out.dist_us.push_back(MicrosSince(t0));
      t0 = Clock::now();
      const nn::Tensor mean = actor.mean_net().Infer(batch);
      out.infer_us.push_back(MicrosSince(t0));
      out.sink += logp(0, 0) + mean(0, 0);
    }
  }
  for (int rep = 0; rep < reps; ++rep) {
    const size_t row = static_cast<size_t>(rep) % in.obs[0].size();
    const auto t0 = Clock::now();
    for (int k = 0; k < agents; ++k) {
      const env::UvAction a =
          trainer.Act(primary_env, k, in.obs[k][row], rng, true);
      out.sink += a.raw_direction;
    }
    out.fleet_ms.push_back(Since(t0) * 1e3);
  }

  env::ScEnv replay = primary_env;
  env::StepResult result;
  auto t0 = Clock::now();
  replay.Reset(result);
  out.reset_us.push_back(MicrosSince(t0));
  for (const std::vector<env::UvAction>& joint : in.actions) {
    t0 = Clock::now();
    replay.Step(joint, result);
    out.step_us.push_back(MicrosSince(t0));
    if (result.done) break;
  }

  core::WorkerStepResult wsr;
  wsr.done = result.done;
  wsr.observations = result.observations;
  wsr.state = result.state;
  wsr.rewards = result.rewards;
  for (int k = 0; k < agents; ++k) {
    const std::vector<int> he = replay.HeterogeneousNeighbors(k);
    const std::vector<int> ho = replay.HomogeneousNeighbors(k);
    wsr.he_neighbors.emplace_back(he.begin(), he.end());
    wsr.ho_neighbors.emplace_back(ho.begin(), ho.end());
  }
  wsr.rng_state = replay.rng().SaveState();
  wsr.metrics = replay.EpisodeMetrics();
  core::ServeActRequest act_req;
  act_req.obs = in.obs[0][0];
  core::DispatchResult response;
  response.ok = true;
  for (int rep = 0; rep < reps; ++rep) {
    t0 = Clock::now();
    const std::string payload = core::EncodeWorkerStepResult(wsr);
    out.wp_encode_us.push_back(MicrosSince(t0));
    core::WorkerStepResult decoded;
    t0 = Clock::now();
    const bool ok = core::DecodeWorkerStepResult(payload, decoded);
    out.wp_decode_us.push_back(MicrosSince(t0));
    out.wp_bytes.push_back(static_cast<double>(payload.size()));
    out.sink += ok ? 1.0 : 0.0;

    act_req.agent = rep % agents;
    t0 = Clock::now();
    const std::string req = core::EncodeServeActRequest(act_req);
    const std::string resp = core::EncodeServeResponse(response);
    out.sp_encode_us.push_back(MicrosSince(t0));
    core::ServeActRequest req_out;
    core::DispatchResult resp_out;
    t0 = Clock::now();
    const bool ok2 = core::DecodeServeActRequest(req, req_out) &&
                     core::DecodeServeResponse(resp, resp_out);
    out.sp_decode_us.push_back(MicrosSince(t0));
    out.sink += ok2 ? 1.0 : 0.0;
  }
}

void ReportLayers(const LayerSamples& s, Result& result) {
  result.Metric("nn.actor_dist_us", Median(s.dist_us));
  result.Metric("nn.mlp_infer_us", Median(s.infer_us));
  result.Metric("nn.fleet_act_ms", Median(s.fleet_ms));
  result.Metric("env.sc_env.step_us", Median(s.step_us));
  result.Metric("env.sc_env.reset_us", Median(s.reset_us));
  result.Metric("core.worker_protocol.step_result_bytes", Median(s.wp_bytes));
  result.Metric("core.worker_protocol.encode_us", Median(s.wp_encode_us));
  result.Metric("core.worker_protocol.decode_us", Median(s.wp_decode_us));
  result.Metric("core.serve_protocol.encode_us", Median(s.sp_encode_us));
  result.Metric("core.serve_protocol.decode_us", Median(s.sp_decode_us));
  result.Info("table7_paper_fleet_act_ms", 1.329);
  result.Info("fleet_act_ms", Median(s.fleet_ms));
  result.Info("layer_replay_sink", s.sink);
}

/// Evaluates twice with the same seed, each on its own copy of `env`: the
/// efficiency lambda must be finite and identical (the evaluation is
/// deterministic given the env state).
double CheckedEvalLambda(const env::ScEnv& env, core::HiMadrlTrainer& policy,
                         int episodes, uint64_t seed, Result& result) {
  env::ScEnv first = env;
  env::ScEnv second = env;
  const double a =
      core::Evaluate(first, policy, episodes, seed).mean.efficiency;
  const double b =
      core::Evaluate(second, policy, episodes, seed).mean.efficiency;
  result.Check(std::isfinite(a), "eval lambda is not finite");
  result.Check(std::memcmp(&a, &b, sizeof(a)) == 0,
               "fixed-seed Evaluate is not deterministic");
  result.Info("eval_lambda", a);
  return a;
}

/// Serving layers on a workload's own policy: serves `ckpt` from a real
/// `agsc_serve --listen` at scale `s` and sends it a paced trickle of
/// stateless Act requests (the observations of `in`) on one connection, far
/// below the knee. Reports the serving per-layer metrics. Defined with the
/// serve_act_tcp workload below.
void ProbeServing(const Options& opt, const Scale& s, const fs::path& ckpt,
                  const ReplayInputs& in, Result& result);

bool RowsMatch(const core::MultiAgentBuffer& b, size_t expected) {
  for (const core::AgentRollout& r : b.agents) {
    if (r.size() != expected || r.action_dir.size() != expected) return false;
  }
  return b.size() == expected;
}

// ---------------------------------------------------------------------------
// train_w1

void RunTrain(const Options& opt, Result& result) {
  const Scale s = ScaleFor(opt, 100);
  const fs::path ckpt_dir = fs::path(opt.work_dir) / "train_ckpt";
  fs::remove_all(ckpt_dir);
  fs::create_directories(ckpt_dir);
  core::TrainConfig tc = TrainConfigFor(s, opt.seed);
  tc.num_workers = 1;
  tc.checkpoint_dir = ckpt_dir.string();
  tc.checkpoint_every = 1;
  tc.checkpoint_keep = 3;

  double setup_s = 0.0;
  Stack st = TimedSetup(s, opt.seed, tc, &setup_s);
  core::HiMadrlTrainer& trainer = *st.trainer;
  const size_t rows = static_cast<size_t>(s.episodes) * s.timeslots;
  const long steps_per_iter =
      static_cast<long>(rows) * st.env->num_agents();

  auto whole_iteration = [&](std::vector<double>& times) {
    const auto t0 = Clock::now();
    const std::vector<core::IterationStats> stats = trainer.Train(1);
    times.push_back(Since(t0));
    ++result.attempted;
    const bool calm = stats.size() == 1 && stats[0].anomalies == 0;
    const bool rows_ok = RowsMatch(trainer.buffer(), rows);
    result.Check(calm, "divergence-guard anomalies during training");
    result.Check(rows_ok, "buffer rows != episodes x T per agent");
    if (!calm || !rows_ok) ++result.failed;
  };

  std::vector<double> warm;
  whole_iteration(warm);  // Lazy allocations and first checkpoint.

  std::vector<double> whole_s, collect_s, optimize_s, checkpoint_s;
  // Per traced iteration: the index in whole_s of the whole iteration just
  // before it, and one episode of its buffer for the layer replays, which
  // run after the loop so they do not disturb the caches of the timed
  // iterations.
  std::vector<size_t> whole_before;
  std::vector<ReplayInputs> replay_inputs;
  double checkpoint_bytes = 0.0, buffer_bytes = 0.0;
  const int min_iters = opt.smoke ? 2 : 5;
  const auto start = Clock::now();
  for (int i = 0; i < 2 * min_iters || Since(start) < opt.seconds; ++i) {
    if (!opt.trace || i % 2 == 0) {
      whole_iteration(whole_s);
      continue;
    }
    // Traced iteration: the same phases as TrainIteration + auto-checkpoint,
    // each through its public entry point under its own span.
    auto t0 = Clock::now();
    trainer.CollectRollouts();
    collect_s.push_back(Since(t0));
    t0 = Clock::now();
    trainer.OptimizeOnCurrentBuffer();
    optimize_s.push_back(Since(t0));
    const std::string path = (ckpt_dir / "traced.agsc").string();
    t0 = Clock::now();
    const bool saved = trainer.SaveCheckpoint(path);
    checkpoint_s.push_back(Since(t0));
    result.Check(saved, "SaveCheckpoint failed");
    checkpoint_bytes = static_cast<double>(fs::file_size(path));
    buffer_bytes = BufferBytes(trainer.buffer());
    whole_before.push_back(whole_s.size() - 1);
    replay_inputs.push_back(
        InputsFromBuffer(trainer.buffer(), i % s.episodes, s.timeslots));
  }
  const double peak_rss = PeakRssMb("self");
  LayerSamples layers;
  for (const ReplayInputs& in : replay_inputs) {
    ReplayLayers(trainer, *st.env, in, /*rows=*/1, /*reps=*/opt.smoke ? 2 : 25,
                 layers);
  }
  const double lambda = CheckedEvalLambda(*st.env, trainer, s.eval_episodes,
                                          opt.seed + 99, result);
  result.Info("iterations_timed", static_cast<double>(whole_s.size()));
  result.Info("iteration_ms", SampleLog(whole_s));

  if (!opt.trace) {
    result.Metric("setup_s", setup_s);
    result.Metric("peak_rss_mb", peak_rss);
    result.Metric("ok_ratio", static_cast<double>(result.attempted -
                                                  result.failed) /
                                  static_cast<double>(result.attempted));
    result.Metric("op_p50_ms", Median(whole_s) * 1e3);
    result.Metric("throughput", steps_per_iter / Median(whole_s));
    return;
  }
  const double collect = Median(collect_s);
  const double optimize = Median(optimize_s);
  const double checkpoint = Median(checkpoint_s);
  const double iteration = Median(whole_s);
  result.Metric("core.hi_madrl.collect_s", collect);
  result.Metric("core.hi_madrl.optimize_s", optimize);
  result.Metric("core.hi_madrl.checkpoint_s", checkpoint);
  result.Metric("core.hi_madrl.checkpoint_bytes", checkpoint_bytes);
  result.Metric("core.rollout.buffer_bytes", buffer_bytes);
  result.Metric("core.evaluator.eval_lambda", lambda);
  ReportLayers(layers, result);
  // In-process sampler: the collect time not spent selecting actions (one
  // BatchAct per agent per timeslot).
  const double act_calls =
      static_cast<double>(rows) * st.env->num_agents();
  result.Metric("core.proc_sampler.wait_s",
                collect - act_calls * Median(layers.dist_us) * 1e-6);
  // Coverage of each traced iteration against the mean of the whole
  // Train(1) iterations on either side of it, so slow drift of the host
  // between the two kinds of iteration cancels out.
  std::vector<double> coverages;
  for (size_t t = 0; t < whole_before.size(); ++t) {
    const size_t b = whole_before[t];
    const double whole = b + 1 < whole_s.size()
                             ? 0.5 * (whole_s[b] + whole_s[b + 1])
                             : whole_s[b];
    coverages.push_back((collect_s[t] + optimize_s[t] + checkpoint_s[t]) /
                        whole);
  }
  const double coverage = Median(coverages);
  result.Metric("bench.trace_coverage", coverage);
  result.Info("trace_coverage_flag", coverage < 0.95 ? "below 95%" : "ok");
  result.Info("traced_op_p50_ms", iteration * 1e3);
  ProbeServing(opt, s, ckpt_dir / "traced.agsc", replay_inputs.back(), result);
}

// ---------------------------------------------------------------------------
// rollout_proc4_poi1k

/// Writes a worker shim that logs each spawn to `log` and execs the real
/// agsc_worker, so respawns are counted from outside the sampler.
std::string WriteWorkerShim(const fs::path& dir, const std::string& worker,
                            const fs::path& log) {
  const fs::path shim = dir / "worker_shim.sh";
  std::ofstream out(shim, std::ios::trunc);
  out << "#!/bin/sh\necho spawn >> '" << log.string() << "'\nexec '" << worker
      << "' \"$@\"\n";
  out.close();
  fs::permissions(shim, fs::perms::owner_all);
  return shim.string();
}

long CountLines(const fs::path& path) {
  std::ifstream in(path);
  long n = 0;
  std::string line;
  while (std::getline(in, line)) ++n;
  return n;
}

void RunRollout(const Options& opt, Result& result) {
  constexpr int kWorkers = 4;
  const Scale s = ScaleFor(opt, 1000);
  const fs::path spawn_log = fs::path(opt.work_dir) / "worker_spawns.log";
  fs::remove(spawn_log);
  core::TrainConfig tc = TrainConfigFor(s, opt.seed);
  tc.proc_workers = kWorkers;
  tc.worker_binary = WriteWorkerShim(
      opt.work_dir, (fs::path(opt.bin_dir) / "agsc_worker").string(),
      spawn_log);

  double setup_s = 0.0;
  Stack st = TimedSetup(s, opt.seed, tc, &setup_s);
  core::HiMadrlTrainer& trainer = *st.trainer;
  const size_t rows = static_cast<size_t>(s.episodes) * s.timeslots;
  const long steps_per_collect =
      static_cast<long>(rows) * st.env->num_agents();

  // The first collect spawns the fleet; its buffer is the one checked
  // against the in-process sampler below.
  trainer.CollectRollouts();
  const core::MultiAgentBuffer first_buffer = trainer.buffer();
  long spawns = CountLines(spawn_log);

  std::vector<double> collect_s;
  LayerSamples layers;
  double buffer_bytes = 0.0;
  long respawns = 0;
  const int min_collects = opt.smoke ? 2 : 5;
  const auto start = Clock::now();
  for (int i = 0; i < min_collects || Since(start) < opt.seconds; ++i) {
    const auto t0 = Clock::now();
    trainer.CollectRollouts();
    collect_s.push_back(Since(t0));
    ++result.attempted;
    const long now_spawns = CountLines(spawn_log);
    const bool rows_ok = RowsMatch(trainer.buffer(), rows);
    result.Check(rows_ok, "buffer rows != episodes x T per agent");
    if (now_spawns != spawns || !rows_ok) ++result.failed;
    respawns += now_spawns - spawns;
    spawns = now_spawns;
    if (opt.trace) {
      buffer_bytes = BufferBytes(trainer.buffer());
      ReplayLayers(trainer, *st.env,
                   InputsFromBuffer(trainer.buffer(), i % s.episodes,
                                    s.timeslots),
                   kWorkers, opt.smoke ? 2 : 10, layers);
    }
  }
  const double peak_rss = PeakRssMb("self");
  result.Check(spawns == kWorkers, "worker respawns during collection");
  result.Info("collects_timed", static_cast<double>(collect_s.size()));
  result.Info("collect_ms", SampleLog(collect_s));
  result.Info("worker_spawns", static_cast<double>(spawns));

  // Bit-exactness contract: the proc fleet's first buffer equals an
  // in-process num_workers = 4 collect at the same seed.
  {
    core::TrainConfig in_proc = TrainConfigFor(s, opt.seed);
    in_proc.num_workers = kWorkers;
    Stack ref = BuildStack(s, opt.seed, in_proc);
    ref.trainer->CollectRollouts();
    result.Check(BuffersBitEqual(first_buffer, ref.trainer->buffer()),
                 "proc-worker buffer differs from the in-process collect");
  }
  const int eval_episodes = opt.smoke ? 1 : 2;
  const double lambda = CheckedEvalLambda(*st.env, trainer, eval_episodes,
                                          opt.seed + 99, result);

  if (!opt.trace) {
    result.Metric("setup_s", setup_s);
    result.Metric("peak_rss_mb", peak_rss);
    result.Metric("ok_ratio", static_cast<double>(result.attempted -
                                                  result.failed) /
                                  static_cast<double>(result.attempted));
    result.Metric("op_p50_ms", Median(collect_s) * 1e3);
    result.Metric("throughput", steps_per_collect / Median(collect_s));
    return;
  }
  const double collect = Median(collect_s);
  result.Info("traced_op_p50_ms", collect * 1e3);
  // The optimize and checkpoint layers on this workload's buffer and
  // 1000-PoI networks, then serving of the resulting checkpoint.
  const fs::path ckpt = fs::path(opt.work_dir) / "rollout.agsc";
  auto t0 = Clock::now();
  trainer.OptimizeOnCurrentBuffer();
  result.Metric("core.hi_madrl.optimize_s", Since(t0));
  t0 = Clock::now();
  result.Check(trainer.SaveCheckpoint(ckpt.string()), "SaveCheckpoint failed");
  result.Metric("core.hi_madrl.checkpoint_s", Since(t0));
  result.Metric("core.hi_madrl.checkpoint_bytes",
                static_cast<double>(fs::file_size(ckpt)));
  ProbeServing(opt, s, ckpt, InputsFromBuffer(trainer.buffer(), 0, s.timeslots),
               result);
  result.Metric("core.hi_madrl.collect_s", collect);
  result.Metric("core.rollout.buffer_bytes", buffer_bytes);
  result.Metric("core.proc_sampler.respawns", static_cast<double>(respawns));
  result.Metric("core.evaluator.eval_lambda", lambda);
  ReportLayers(layers, result);
  // Lock-step rounds of W episodes; one BatchAct of W rows per agent per
  // timeslot. The rest of the collect waits on the workers and the pipes.
  const double rounds = std::ceil(static_cast<double>(s.episodes) / kWorkers);
  const double act_calls = rounds * s.timeslots * st.env->num_agents();
  result.Metric("core.proc_sampler.wait_s",
                collect - act_calls * Median(layers.dist_us) * 1e-6);
}

// ---------------------------------------------------------------------------
// serve_act_tcp

/// Load of the two phases, fixed in the workload (not calibrated per run).
/// The saturation phase keeps `window` requests in flight per connection;
/// the low rate sits well below the knee on a 4-core host. Neither can be
/// refused: at most connections x max_pipeline requests are admitted at
/// once (the frontend backpressures beyond that), below agsc_serve's default
/// --max-queue of 1024, and the deadline is far beyond any queueing delay,
/// so a stall of the host shows as latency, never as a failed request.
struct ServeLoad {
  double low_rps = 20000.0;
  int window = 128;          ///< Closed-loop requests in flight per connection.
  double limit_ms = 25.0;    ///< Latency limit for ok_ratio, from due time.
  int deadline_ms = 10000;   ///< Server-side deadline (--deadline-ms).
  int max_pipeline = 256;    ///< Per-connection in-flight bound.
  int connections = 2;
  int pool = 256;            ///< Distinct (agent, observation) requests.
};

/// Both phases are cut into windows of this length (seconds); the metrics
/// are taken over the windows, so a stall of the host during part of a run
/// moves them less.
constexpr double kWindowS = 0.25;

/// Splits the CPUs this process may run on into two disjoint halves, one
/// for the server and one for the load generator, so the two do not
/// contend for cores. False (no pinning) with fewer than 4 CPUs.
bool SplitCpus(cpu_set_t* server, cpu_set_t* load) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < 4) return false;
  CPU_ZERO(server);
  CPU_ZERO(load);
  for (size_t i = 0; i < cpus.size(); ++i) {
    CPU_SET(cpus[i], i < cpus.size() / 2 ? server : load);
  }
  return true;
}

/// Reads a number field from agsc_serve's flat stats JSON; NaN if absent.
double StatsField(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// One agsc_serve --listen process, started and probed until its first
/// Health reply.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { proc_.Reap(); }

  /// Starts the server; returns false if it does not answer Health within
  /// 60 s.
  bool Start(const std::vector<std::string>& argv, const fs::path& port_file) {
    fs::remove(port_file);
    if (!proc_.Start(argv)) return false;
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (Clock::now() < deadline) {
      std::ifstream in(port_file);
      if (in >> port_ && port_ > 0) break;
      port_ = 0;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    while (port_ > 0 && Clock::now() < deadline) {
      core::ServeClient probe;
      core::DispatchHealth health;
      if (probe.Connect("127.0.0.1", port_, 1000) &&
          probe.Health(1000, health)) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
  }

  /// SIGTERM, then waits for the exit (agsc_serve flushes --stats-json and
  /// exits with code 8 on a signal stop).
  bool Stop() {
    if (!proc_.running()) return false;
    proc_.Kill(SIGTERM);
    int code = -1;
    if (!proc_.Wait(&code, 20000)) {
      proc_.Reap();
      return false;
    }
    return code == 8;
  }

  int port() const { return port_; }
  std::string pid() const { return std::to_string(proc_.pid()); }

 private:
  util::Subprocess proc_;
  int port_ = 0;
};

struct Request {
  Clock::time_point due;
  Clock::time_point sent;
  int pool_index = 0;
  int window = 0;  ///< Whole kWindowS periods since the phase started.
};

struct Reply {
  Clock::time_point received;
  core::DispatchResult result;
  bool transport_ok = false;
};

/// One pipelined connection: a sender paced by the open-loop schedule and a
/// reader collecting the in-order replies.
struct LoadConn {
  core::ServeClient client;
  std::vector<Request> requests;
  std::vector<Reply> replies;
  std::atomic<size_t> sent{0};
  bool send_failed = false;
};

void SendLoop(LoadConn& conn, const std::vector<int>& agents,
              const std::vector<std::vector<float>>& obs) {
  // Fine-grained sleeps: the default 50 us timer slack would otherwise add
  // up to 50 us of lateness to every paced send.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  for (size_t i = 0; i < conn.requests.size(); ++i) {
    Request& req = conn.requests[i];
    if (Clock::now() < req.due) std::this_thread::sleep_until(req.due);
    req.sent = Clock::now();
    const size_t p = static_cast<size_t>(req.pool_index);
    if (!conn.client.SendAct(agents[p], obs[p], /*timeout_ms=*/10000)) {
      conn.send_failed = true;
      return;
    }
    conn.sent.store(i + 1, std::memory_order_release);
  }
}

void ReadLoop(LoadConn& conn) {
  for (size_t i = 0; i < conn.requests.size(); ++i) {
    core::DispatchResult result;
    // The reply to request i cannot arrive before request i was sent.
    const bool ok = conn.client.ReadResponse(/*timeout_ms=*/10000, result);
    const Clock::time_point now = Clock::now();
    if (!ok) return;
    while (conn.sent.load(std::memory_order_acquire) <= i) {
      std::this_thread::yield();
    }
    conn.replies[i] = {now, result, true};
  }
}

/// Runs every connection's sender and reader to the end of its schedule.
void DriveLoad(std::vector<std::unique_ptr<LoadConn>>& conns,
               const std::vector<int>& agents,
               const std::vector<std::vector<float>>& obs) {
  std::vector<std::thread> threads;
  for (auto& conn : conns) {
    LoadConn* c = conn.get();
    threads.emplace_back([c, &agents, &obs] { SendLoop(*c, agents, obs); });
    threads.emplace_back([c] { ReadLoop(*c); });
  }
  for (std::thread& t : threads) t.join();
}

/// One closed-loop connection of the saturation phase.
struct SaturationConn {
  core::ServeClient client;
  std::vector<double> window_ok;  ///< Ok replies per kWindowS of the phase.
  long sent = 0;
  long not_ok = 0;
  long mismatches = 0;
  bool transport_ok = true;
};

/// Keeps `window` requests in flight on `conn` until `end`, then drains the
/// replies. Connection c of n sends pool entries c, c + n, c + 2n, ...; each
/// ok reply is checked against the expected action of its entry.
void SaturateLoop(SaturationConn& conn, int c, int n, int window,
                  Clock::time_point start, Clock::time_point end,
                  const std::vector<int>& agents,
                  const std::vector<std::vector<float>>& obs,
                  const std::vector<std::array<float, 2>>& expected) {
  const long pool = static_cast<long>(obs.size());
  long received = 0;
  while (true) {
    if (conn.sent - received < window && Clock::now() < end) {
      const size_t p = static_cast<size_t>((c + conn.sent * n) % pool);
      if (!conn.client.SendAct(agents[p], obs[p], /*timeout_ms=*/10000)) {
        conn.transport_ok = false;
        return;
      }
      ++conn.sent;
      continue;
    }
    if (received == conn.sent) return;
    core::DispatchResult result;
    if (!conn.client.ReadResponse(/*timeout_ms=*/10000, result)) {
      conn.transport_ok = false;
      return;
    }
    const Clock::time_point now = Clock::now();
    const size_t p = static_cast<size_t>((c + received * n) % pool);
    ++received;
    if (!result.ok) {
      ++conn.not_ok;
      continue;
    }
    if (std::memcmp(expected[p].data(), result.action.data(),
                    sizeof(expected[p])) != 0) {
      ++conn.mismatches;
    }
    if (now < end) {
      const size_t at = static_cast<size_t>(Seconds(start, now) / kWindowS);
      conn.window_ok[std::min(at, conn.window_ok.size() - 1)] += 1.0;
    }
  }
}

std::vector<std::string> ServeArgv(const Options& opt, const Scale& s,
                                   const fs::path& ckpt,
                                   const fs::path& port_file,
                                   const fs::path& stats_file, int deadline_ms,
                                   int max_pipeline) {
  return {(fs::path(opt.bin_dir) / "agsc_serve").string(),
          "--snapshot", ckpt.string(),
          "--listen", "127.0.0.1:0",
          "--port-file", port_file.string(),
          "--stats-json", stats_file.string(),
          "--deadline-ms", std::to_string(deadline_ms),
          "--max-pipeline", std::to_string(max_pipeline),
          "--timeslots", std::to_string(s.timeslots),
          "--pois", std::to_string(s.pois),
          "--seed", std::to_string(opt.seed),
          "--quiet"};
}

/// Batching and refusal counters from agsc_serve's --stats-json output.
void ReportServerStats(const std::string& stats, Result& result) {
  const double batches = StatsField(stats, "batches");
  const double rows = StatsField(stats, "rows");
  result.Metric("core.dispatch_server.rows_per_batch",
                batches > 0 ? rows / batches : 0.0);
  result.Metric("core.dispatch_server.rejected_queue_full",
                StatsField(stats, "rejected_queue_full"));
  result.Metric("core.dispatch_server.rejected_client_cap",
                StatsField(stats, "rejected_client_cap"));
  result.Metric("core.dispatch_server.rejected_deadline",
                StatsField(stats, "rejected_deadline"));
  result.Metric("core.dispatch_server.shed", StatsField(stats, "requests_shed"));
  result.Metric("core.dispatch_server.expired",
                StatsField(stats, "requests_expired"));
}

void ProbeServing(const Options& opt, const Scale& s, const fs::path& ckpt,
                  const ReplayInputs& in, Result& result) {
  constexpr double kRps = 500.0;
  const fs::path dir(opt.work_dir);
  const fs::path port_file = dir / "probe.port";
  const fs::path stats_file = dir / "probe_stats.json";
  fs::remove(stats_file);
  ServerProcess server;
  if (!server.Start(ServeArgv(opt, s, ckpt, port_file, stats_file,
                              /*deadline_ms=*/10000, /*max_pipeline=*/64),
                    port_file)) {
    result.Check(false, "agsc_serve did not answer Health (serving probe)");
    return;
  }
  std::vector<int> agents;
  std::vector<std::vector<float>> obs;
  for (size_t k = 0; k < in.obs.size(); ++k) {
    for (const std::vector<float>& row : in.obs[k]) {
      agents.push_back(static_cast<int>(k));
      obs.push_back(row);
    }
  }
  std::vector<std::unique_ptr<LoadConn>> conns;
  conns.push_back(std::make_unique<LoadConn>());
  LoadConn& conn = *conns.front();
  result.Check(conn.client.Connect("127.0.0.1", server.port(), 5000),
               "serving probe connection failed");
  const int count = opt.smoke ? 20 : 500;
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  for (int i = 0; i < count; ++i) {
    Request req;
    req.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(i / kRps));
    req.pool_index = i % static_cast<int>(obs.size());
    conn.requests.push_back(req);
  }
  conn.replies.resize(conn.requests.size());
  DriveLoad(conns, agents, obs);

  core::DispatchHealth health;
  {
    core::ServeClient probe;
    result.Check(probe.Connect("127.0.0.1", server.port(), 5000) &&
                     probe.Health(1000, health),
                 "serving probe Health failed");
  }
  result.Check(server.Stop(), "agsc_serve did not stop cleanly on SIGTERM");

  std::vector<double> frontend_ms, server_ms, late_ms;
  long failed = 0;
  for (size_t i = 0; i < conn.requests.size(); ++i) {
    const Request& req = conn.requests[i];
    const Reply& rep = conn.replies[i];
    if (!rep.transport_ok || !rep.result.ok) {
      ++failed;
      continue;
    }
    late_ms.push_back(Seconds(req.due, req.sent) * 1e3);
    server_ms.push_back(rep.result.latency_ms);
    frontend_ms.push_back(Seconds(req.sent, rep.received) * 1e3 -
                          rep.result.latency_ms);
  }
  result.Check(failed == 0, "serving probe requests failed");
  result.Metric("core.serve_protocol.frontend_ms", Median(frontend_ms));
  result.Metric("core.dispatch_server.latency_ms", Median(server_ms));
  result.Metric("core.dispatch_server.batch_ms", health.ewma_batch_ms);
  result.Metric("core.dispatch_server.queue_depth",
                static_cast<double>(health.queue_depth));
  result.Metric("bench.gen_late_ms", Quantile(late_ms, 0.99));
  ReportServerStats(ReadFile(stats_file), result);
}

void RunServe(const Options& opt, Result& result) {
  const Scale s = ScaleFor(opt, 100);
  ServeLoad load;
  if (opt.smoke) {
    load.low_rps = 2000.0;
    load.window = 8;
    load.pool = 32;
  }
  const fs::path dir(opt.work_dir);
  const fs::path ckpt = dir / "serve.agsc";
  const fs::path port_file = dir / "serve.port";
  const fs::path stats_file = dir / "serve_stats.json";
  fs::remove(stats_file);

  // The served checkpoint: a fresh 128/64 policy at the workload seed
  // (serving cost depends on the architecture, not on the learned values).
  // Scale::hidden is agsc_serve's default 128/64 staging network.
  double checkpoint_s = 0.0;
  {
    Stack writer = BuildStack(s, opt.seed, TrainConfigFor(s, opt.seed));
    const auto t0 = Clock::now();
    result.Check(writer.trainer->SaveCheckpoint(ckpt.string()),
                 "SaveCheckpoint failed");
    checkpoint_s = Since(t0);
  }
  // The same checkpoint, loaded in this process (from a differently seeded
  // trainer, so only the file's parameters can make the actions agree).
  Stack staging = BuildStack(s, opt.seed, TrainConfigFor(s, opt.seed + 1));
  result.Check(staging.trainer->LoadCheckpointForInference(ckpt.string()),
               "benchmark could not load the served checkpoint");

  // Request pool from the workload seed: observations of an episode under
  // random actions, with the expected (mode) action of each.
  std::vector<int> agents;
  std::vector<std::vector<float>> obs;
  std::vector<std::array<float, 2>> expected;
  ReplayInputs replay_in;
  {
    env::ScEnv pool_env = *staging.env;
    util::Rng rng(opt.seed ^ 0xA5A5A5A5ULL);
    env::StepResult step = pool_env.Reset();
    const int k_count = pool_env.num_agents();
    replay_in.obs.resize(static_cast<size_t>(k_count));
    while (static_cast<int>(obs.size()) < load.pool) {
      std::vector<env::UvAction> joint;
      for (int k = 0; k < k_count; ++k) {
        agents.push_back(k);
        obs.push_back(step.observations[static_cast<size_t>(k)]);
        replay_in.obs[static_cast<size_t>(k)].push_back(obs.back());
        joint.push_back({rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)});
      }
      replay_in.actions.push_back(joint);
      step = step.done ? pool_env.Reset() : pool_env.Step(joint);
    }
    for (size_t p = 0; p < obs.size(); ++p) {
      const std::vector<float> input =
          staging.trainer->ActorInputFor(agents[p], obs[p]);
      nn::Tensor row(1, static_cast<int>(input.size()));
      std::copy(input.begin(), input.end(), row.data());
      const nn::Tensor mean =
          staging.trainer->actor(agents[p]).mean_net().Infer(row);
      expected.push_back({mean(0, 0), mean(0, 1)});
    }
  }

  const std::vector<std::string> argv =
      ServeArgv(opt, s, ckpt, port_file, stats_file, load.deadline_ms,
                load.max_pipeline);
  // The server inherits the calling thread's CPU set; the load threads are
  // started after the switch to the other half.
  cpu_set_t server_cpus, load_cpus;
  const bool pinned = SplitCpus(&server_cpus, &load_cpus);
  if (pinned) sched_setaffinity(0, sizeof(server_cpus), &server_cpus);
  result.Info("cpu_pinning", pinned ? "server and load on disjoint halves"
                                    : "none (fewer than 4 CPUs)");
  std::vector<double> setup_times;
  std::unique_ptr<ServerProcess> server;
  for (int r = 0; r < s.setup_reps; ++r) {
    if (server != nullptr) server->Stop();
    server = std::make_unique<ServerProcess>();
    const auto t0 = Clock::now();
    const bool up = server->Start(argv, port_file);
    setup_times.push_back(Since(t0));
    if (!up) {
      result.Check(false, "agsc_serve did not answer Health");
      result.attempted = 1;
      result.failed = 1;
      return;
    }
  }

  if (pinned) sched_setaffinity(0, sizeof(load_cpus), &load_cpus);

  // Saturation runs first, so the low-rate latency is measured on a warm
  // server: measured first, its median read up to 1.8x the warm value for
  // several seconds at the start of some runs. Saturation gets two thirds
  // of the run, as its throughput varies more from second to second than
  // the low-rate latency does.
  const double phase_s[2] = {std::max(0.5, opt.seconds / 3.0),
                             std::max(0.5, opt.seconds * 2.0 / 3.0)};
  const int low_windows =
      std::max(1, static_cast<int>(std::ceil(phase_s[0] / kWindowS)));
  const int sat_windows =
      std::max(1, static_cast<int>(std::ceil(phase_s[1] / kWindowS)));
  std::vector<std::unique_ptr<SaturationConn>> sat_conns;
  std::vector<std::unique_ptr<LoadConn>> conns;
  for (int c = 0; c < load.connections; ++c) {
    sat_conns.push_back(std::make_unique<SaturationConn>());
    sat_conns.back()->window_ok.assign(static_cast<size_t>(sat_windows), 0.0);
    conns.push_back(std::make_unique<LoadConn>());
    result.Check(
        sat_conns.back()->client.Connect("127.0.0.1", server->port(), 5000) &&
            conns.back()->client.Connect("127.0.0.1", server->port(), 5000),
        "load connection failed");
  }

  // Traced runs sample Health on a dedicated connection during saturation.
  std::atomic<bool> probing{opt.trace};
  std::vector<double> batch_ms, queue_depth;
  std::thread prober;
  if (opt.trace) {
    prober = std::thread([&] {
      core::ServeClient probe;
      if (!probe.Connect("127.0.0.1", server->port(), 5000)) return;
      while (probing.load()) {
        core::DispatchHealth h;
        if (probe.Health(1000, h)) {
          batch_ms.push_back(h.ewma_batch_ms);
          queue_depth.push_back(static_cast<double>(h.queue_depth));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }
  {
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(phase_s[1]));
    std::vector<std::thread> threads;
    for (int c = 0; c < load.connections; ++c) {
      threads.emplace_back([&, c] {
        SaturateLoop(*sat_conns[static_cast<size_t>(c)], c, load.connections,
                     load.window, start, end, agents, obs, expected);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  probing.store(false);
  if (prober.joinable()) prober.join();

  // Open-loop low-rate schedule: each connection carries half of the rate.
  const double rate = load.low_rps / load.connections;
  const long per_conn = static_cast<long>(rate * phase_s[0]);
  const auto low_start = Clock::now() + std::chrono::milliseconds(50);
  for (int c = 0; c < load.connections; ++c) {
    LoadConn& conn = *conns[static_cast<size_t>(c)];
    for (long i = 0; i < per_conn; ++i) {
      Request req;
      req.due = low_start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>((i + 0.5 * c) /
                                                              rate));
      req.pool_index = static_cast<int>((c + i * load.connections) %
                                        static_cast<long>(obs.size()));
      req.window = static_cast<int>((i + 0.5 * c) / rate / kWindowS);
      conn.requests.push_back(req);
    }
    conn.replies.resize(conn.requests.size());
  }
  DriveLoad(conns, agents, obs);

  const double peak_rss = PeakRssMb(server->pid());
  const bool stopped = server->Stop();
  result.Check(stopped, "agsc_serve did not stop cleanly on SIGTERM");
  const std::string stats = ReadFile(stats_file);

  // Outcomes. Every request must get an ok reply carrying the expected
  // action; anything else fails. Low-rate latency is timed from each due
  // time and reported as the median over kWindowS windows. A reply later
  // than limit_ms is not a failure; it lowers ok_ratio.
  long low_sent = 0, low_good = 0, low_late = 0, sat_ok = 0;
  long not_ok = 0, mismatches = 0, transport_failures = 0;
  std::vector<double> sat_window_rps(static_cast<size_t>(sat_windows), 0.0);
  for (const auto& conn : sat_conns) {
    result.attempted += conn->sent;
    not_ok += conn->not_ok;
    mismatches += conn->mismatches;
    if (!conn->transport_ok) ++transport_failures;
    for (int w = 0; w < sat_windows; ++w) {
      const double width =
          w == sat_windows - 1 ? phase_s[1] - w * kWindowS : kWindowS;
      sat_window_rps[static_cast<size_t>(w)] +=
          conn->window_ok[static_cast<size_t>(w)] / width;
      sat_ok += static_cast<long>(conn->window_ok[static_cast<size_t>(w)]);
    }
  }
  std::vector<double> low_ms, late_ms, frontend_ms, server_ms;
  std::vector<std::vector<double>> low_window_ms(
      static_cast<size_t>(low_windows));
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& conn : conns) {
    result.Check(!conn->send_failed, "a load connection failed to send");
    for (size_t i = 0; i < conn->requests.size(); ++i) {
      const Request& req = conn->requests[i];
      const Reply& rep = conn->replies[i];
      ++result.attempted;
      ++low_sent;
      std::vector<double>& window = low_window_ms[static_cast<size_t>(
          std::min(req.window, low_windows - 1))];
      if (!rep.transport_ok || !rep.result.ok) {
        ++(rep.transport_ok ? not_ok : transport_failures);
        low_ms.push_back(inf);
        window.push_back(inf);
        continue;
      }
      const std::array<float, 2>& want =
          expected[static_cast<size_t>(req.pool_index)];
      if (std::memcmp(want.data(), rep.result.action.data(), sizeof(want)) !=
          0) {
        ++mismatches;
      }
      late_ms.push_back(Seconds(req.due, req.sent) * 1e3);
      const double ms = Seconds(req.due, rep.received) * 1e3;
      low_ms.push_back(ms);
      window.push_back(ms);
      ++(ms <= load.limit_ms ? low_good : low_late);
      server_ms.push_back(rep.result.latency_ms);
      frontend_ms.push_back(Seconds(req.sent, rep.received) * 1e3 -
                            rep.result.latency_ms);
    }
  }
  result.failed = not_ok + mismatches + transport_failures;
  result.Check(mismatches == 0,
               "served actions differ from mean_net().Infer on the checkpoint");
  result.Check(transport_failures == 0, "requests without a reply");
  result.Check(not_ok == 0, "requests refused, shed or expired");
  result.Info("mismatched_actions", static_cast<double>(mismatches));
  result.Info("not_ok_replies", static_cast<double>(not_ok));
  result.Info("low_rps", load.low_rps);
  result.Info("saturation_window", load.window);
  result.Info("limit_ms", load.limit_ms);
  result.Info("low_requests", static_cast<double>(low_sent));
  result.Info("low_late_replies", static_cast<double>(low_late));
  std::vector<double> window_p50, window_p90;
  std::string low_log, sat_log;
  for (int w = 0; w < low_windows; ++w) {
    const std::vector<double>& window = low_window_ms[static_cast<size_t>(w)];
    window_p50.push_back(Quantile(window, 0.5));
    window_p90.push_back(Quantile(window, 0.9));
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.3f/%.3f", w ? " " : "",
                  window_p50.back(), Quantile(window, 0.99));
    low_log += buf;
  }
  for (int w = 0; w < sat_windows; ++w) {
    sat_log += (w ? " " : "") + std::to_string(static_cast<long>(
                                    sat_window_rps[static_cast<size_t>(w)]));
  }
  result.Info("low_windows_p50_p99_ms", low_log);
  result.Info("saturation_windows_rps", sat_log);
  result.Info("saturation_mean_rps", static_cast<double>(sat_ok) / phase_s[1]);
  result.Info("low_p90_ms", Median(window_p90));
  result.Info("low_p99_ms", Quantile(low_ms, 0.99));
  result.Info("gen_late_p99_ms", Quantile(late_ms, 0.99));
  result.Info("gen_late_max_ms", Quantile(late_ms, 1.0));

  if (!opt.trace) {
    result.Metric("setup_s", Median(setup_times));
    result.Metric("peak_rss_mb", peak_rss);
    result.Metric("ok_ratio", low_sent > 0 ? static_cast<double>(low_good) /
                                                 static_cast<double>(low_sent)
                                           : 0.0);
    result.Metric("op_p50_ms", Median(window_p50));
    result.Metric("throughput", Median(sat_window_rps));
    return;
  }
  result.Info("traced_op_p50_ms", Quantile(low_ms, 0.5));
  const double batches = StatsField(stats, "batches");
  const double rows = StatsField(stats, "rows");
  const double rows_per_batch = batches > 0 ? rows / batches : 0.0;
  result.Metric("core.hi_madrl.checkpoint_s", checkpoint_s);
  result.Metric("core.hi_madrl.checkpoint_bytes",
                static_cast<double>(fs::file_size(ckpt)));
  result.Metric("core.serve_protocol.frontend_ms", Median(frontend_ms));
  result.Metric("core.dispatch_server.latency_ms", Median(server_ms));
  result.Metric("core.dispatch_server.batch_ms", Median(batch_ms));
  result.Metric("core.dispatch_server.queue_depth", Mean(queue_depth));
  ReportServerStats(stats, result);
  result.Metric("bench.gen_late_ms", Quantile(late_ms, 0.99));
  const double lambda = CheckedEvalLambda(*staging.env, *staging.trainer,
                                          s.eval_episodes, opt.seed + 99,
                                          result);
  result.Metric("core.evaluator.eval_lambda", lambda);
  LayerSamples layers;
  const int replay_rows =
      std::max(1, static_cast<int>(std::lround(rows_per_batch)));
  ReplayLayers(*staging.trainer, *staging.env, replay_in, replay_rows,
               opt.smoke ? 2 : 50, layers);
  ReportLayers(layers, result);

  // The trainer's collect and optimize layers on the served architecture
  // (after the evaluation above: they change the staging parameters). The
  // in-process sampler runs one single-row action selection per agent per
  // timeslot; the rest of the collect is env stepping and bookkeeping.
  LayerSamples one_row;
  ReplayLayers(*staging.trainer, *staging.env, replay_in, /*rows=*/1,
               opt.smoke ? 2 : 25, one_row);
  auto t0 = Clock::now();
  staging.trainer->CollectRollouts();
  const double collect = Since(t0);
  t0 = Clock::now();
  staging.trainer->OptimizeOnCurrentBuffer();
  result.Metric("core.hi_madrl.optimize_s", Since(t0));
  result.Metric("core.hi_madrl.collect_s", collect);
  result.Metric("core.rollout.buffer_bytes",
                BufferBytes(staging.trainer->buffer()));
  const double act_calls = static_cast<double>(s.episodes) * s.timeslots *
                           staging.env->num_agents();
  result.Metric("core.proc_sampler.wait_s",
                collect - act_calls * Median(one_row.dist_us) * 1e-6);
}

bool ParseOptions(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      opt.smoke = true;
    } else if (!has_value) {
      std::cerr << "missing value for " << flag << "\n";
      return false;
    } else if (flag == "--workload") {
      opt.workload = argv[++i];
    } else if (flag == "--seed") {
      if (!util::ParseUint64(argv[++i], &opt.seed)) return false;
    } else if (flag == "--seconds") {
      if (!util::ParseDoubleInRange(argv[++i], 0.0, 3600.0, &opt.seconds)) {
        return false;
      }
    } else if (flag == "--trace") {
      int trace = 0;
      if (!util::ParseIntInRange(argv[++i], 0, 1, &trace)) return false;
      opt.trace = trace == 1;
    } else if (flag == "--bin-dir") {
      opt.bin_dir = argv[++i];
    } else if (flag == "--work-dir") {
      opt.work_dir = argv[++i];
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return false;
    }
  }
  return !opt.workload.empty() && !opt.bin_dir.empty() &&
         !opt.work_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, opt)) {
    std::cerr << "usage: agsc_perfbench --workload NAME --seed S --seconds N "
                 "--trace 0|1 --bin-dir DIR --work-dir DIR [--smoke]\n";
    return 2;
  }
  fs::create_directories(opt.work_dir);
  Result result(opt.trace);
  result.Info("workload", opt.workload);
  result.Info("seed", static_cast<double>(opt.seed));
  result.Info("build", util::BuildInfoString(std::string("gemm-isa=") +
                                             nn::ActiveGemmIsaName()));
  result.Info("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  try {
    if (opt.workload == "train_w1") {
      RunTrain(opt, result);
    } else if (opt.workload == "rollout_proc4_poi1k") {
      RunRollout(opt, result);
    } else if (opt.workload == "serve_act_tcp") {
      RunServe(opt, result);
    } else {
      std::cerr << "unknown workload: " << opt.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "workload " << opt.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  std::cout << result.Json() << std::endl;
  return 0;
}
