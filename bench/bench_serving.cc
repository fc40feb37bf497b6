// Serving-path benchmark: sustained request throughput and batching
// latency of core/DispatchServer. For each (sessions, clients, max_batch)
// configuration, client threads step their episode sessions through the
// batched inference path with in-process DispatchServer calls for a fixed
// wall-clock budget; the server's own latency window supplies p50/p99.
// Results are recorded in BENCH_serving.json at the repo root. The TCP
// frontend is measured by perfbench's `serve_act_tcp` workload
// (perfbench/run.py), which pipelines requests on each connection as real
// clients do; perfbench runs neither these in-process configurations nor
// the offered-load sweep below.
//
// A second phase sweeps OFFERED load past the saturation point: open-loop
// submitter threads pace requests at a fixed arrival rate (0.5x..2x the
// saturation capacity found by a doubling ramp that re-probes a saturating
// rate once and bisects the knee once) against a deadline +
// bounded admission queue, reporting goodput (deadline-met responses/s)
// and shed rate at each level. The curve is the congestion-collapse
// guard: with admission control on, goodput at 2x saturation must stay
// >= ~90% of its peak — overload turns into explicit rejections, not
// queueing collapse.
//
// The policy is a freshly initialized (untrained) network — serving cost
// depends on architecture, not on the learned values — snapshotted through
// the same PolicySnapshot::FromTrainer path agsc_serve uses.
//
//   --smoke                  one tiny configuration, ~fractions of a second
//                            (the ctest entry; guards the harness itself)
//   AGSC_BENCH_SCALE=paper   longer measurement window per configuration
//   AGSC_BENCH_TIMESLOTS, AGSC_BENCH_POIS   override the env scale

#include <chrono>
#include <deque>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/dispatch_server.h"
#include "core/policy_snapshot.h"
#include "env/sc_env.h"
#include "nn/tensor.h"
#include "util/build_info.h"
#include "util/table.h"

namespace agsc {
namespace {

struct Combo {
  int sessions = 0;
  int clients = 0;
  int max_batch = 0;
};

struct Result {
  Combo combo;
  double seconds = 0.0;
  uint64_t requests = 0;
  double req_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double rows_per_batch = 0.0;
};

Result Measure(const env::ScEnv& env, const core::HiMadrlTrainer& trainer,
               const Combo& combo, double budget_sec) {
  core::DispatchConfig config;
  config.num_sessions = combo.sessions;
  config.max_batch = combo.max_batch;
  config.deadline_ms = 0;  // Throughput run: serve everything, never expire.
  core::DispatchServer server(env, config);
  server.PublishSnapshot(core::PolicySnapshot::FromTrainer(trainer, "<live>"));
  server.Start();

  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(budget_sec));
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(combo.clients));
  for (int c = 0; c < combo.clients; ++c) {
    clients.emplace_back([&, c] {
      int session = c % server.num_sessions();
      while (std::chrono::steady_clock::now() < deadline) {
        if (server.StepSession(session).shutdown) break;
        session = (session + combo.clients) % server.num_sessions();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  server.Stop();

  const core::DispatchStats stats = server.Stats();
  Result r;
  r.combo = combo;
  r.seconds = seconds;
  r.requests = stats.requests_ok;
  r.req_per_sec = seconds > 0 ? stats.requests_ok / seconds : 0.0;
  r.p50_ms = stats.latency_p50_ms;
  r.p99_ms = stats.latency_p99_ms;
  r.rows_per_batch =
      stats.batches > 0 ? static_cast<double>(stats.rows) / stats.batches : 0.0;
  return r;
}

// One level of the offered-load sweep.
struct SweepResult {
  double offered_per_sec = 0.0;   ///< Target arrival rate.
  double achieved_per_sec = 0.0;  ///< What the pacers actually submitted.
  double goodput_per_sec = 0.0;   ///< Deadline-met (ok) responses per sec.
  double shed_rate = 0.0;         ///< (rejected + expired) / submitted.
  double p99_ms = 0.0;            ///< Server-side p99 of served requests.
  uint64_t submitted = 0;
  uint64_t ok = 0;
  uint64_t expired = 0;
  uint64_t rejected = 0;
};

/// Open-loop arrival at `offered_per_sec`: pacer threads submit stateless
/// Acts on a fixed clock regardless of how the server is coping (a closed
/// loop would self-throttle and hide overload). Every future is collected,
/// so ok/expired/rejected account for every submitted request.
SweepResult MeasureOfferedLoad(const env::ScEnv& env,
                               const core::HiMadrlTrainer& trainer,
                               const std::vector<float>& obs,
                               double offered_per_sec, double budget_sec) {
  core::DispatchConfig config;
  config.num_sessions = 4;
  config.max_batch = 64;
  config.deadline_ms = 10;  // The goodput criterion: served within 10 ms.
  // Queue bound matches the agsc_serve default. Sized so a full queue
  // still drains inside the deadline — overload then surfaces as fast
  // explicit rejections at the tail, not as admitted-then-expired work.
  config.max_queue = 1024;
  core::DispatchServer server(env, config);
  server.PublishSnapshot(core::PolicySnapshot::FromTrainer(trainer, "<live>"));
  server.Start();

  constexpr int kSubmitters = 4;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(budget_sec));
  std::vector<SweepResult> partial(kSubmitters);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      SweepResult& mine = partial[static_cast<size_t>(s)];
      core::RequestOptions opts;
      opts.client = static_cast<uint64_t>(s);
      const double rate = offered_per_sec / kSubmitters;
      const auto tick_step = std::chrono::milliseconds(2);
      double due = 0.0;  // Fractional-request accumulator per tick.
      std::deque<std::future<core::DispatchResult>> pending;
      const auto count = [&mine](core::DispatchResult result) {
        if (result.ok) {
          ++mine.ok;
        } else if (result.rejected) {
          ++mine.rejected;
        } else if (result.expired) {
          ++mine.expired;
        }
      };
      const auto drain_ready = [&] {
        while (!pending.empty() &&
               pending.front().wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready) {
          count(pending.front().get());
          pending.pop_front();
        }
      };
      auto tick = start;
      while (tick < deadline) {
        tick += tick_step;
        due += rate * 0.002;
        while (due >= 1.0) {
          pending.push_back(server.ActAsync(0, obs, opts));
          ++mine.submitted;
          due -= 1.0;
        }
        drain_ready();
        std::this_thread::sleep_until(tick);
      }
      for (std::future<core::DispatchResult>& f : pending) count(f.get());
    });
  }
  for (std::thread& t : submitters) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  server.Stop();

  SweepResult r;
  r.offered_per_sec = offered_per_sec;
  for (const SweepResult& p : partial) {
    r.submitted += p.submitted;
    r.ok += p.ok;
    r.expired += p.expired;
    r.rejected += p.rejected;
  }
  r.achieved_per_sec = seconds > 0 ? r.submitted / seconds : 0.0;
  r.goodput_per_sec = seconds > 0 ? r.ok / seconds : 0.0;
  r.shed_rate = r.submitted > 0
                    ? static_cast<double>(r.expired + r.rejected) / r.submitted
                    : 0.0;
  r.p99_ms = server.Stats().latency_p99_ms;
  return r;
}

/// True when a probe saturated the server: it shed more than 2%, or the
/// pacers could not drive 95% of the offered rate.
bool Saturated(const SweepResult& r) {
  return r.shed_rate > 0.02 || r.achieved_per_sec < 0.95 * r.offered_per_sec;
}

/// Finds the Act path's saturation knee with a doubling ramp of short
/// open-loop probes: the capacity is the highest probed rate the server
/// absorbed with under 2% shedding. A rate counts as saturating only when
/// two probes in a row saturate, so one host stall does not end the ramp
/// early; the ramp stops at the first such rate (or when the pacers cannot
/// drive it), and one bisection between the last clean rate and that one
/// refines the knee. A closed-loop probe would measure latency-bound
/// round-trip throughput instead, which undershoots real capacity by
/// several times.
double CalibrateCapacity(const env::ScEnv& env,
                         const core::HiMadrlTrainer& trainer,
                         const std::vector<float>& obs, double probe_sec) {
  double last_goodput = 0.0;
  // Returns the achieved rate of a clean probe at `rate`, or 0 when the
  // rate saturated twice.
  const auto clean_rate = [&](double rate) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      const SweepResult r =
          MeasureOfferedLoad(env, trainer, obs, rate, probe_sec);
      std::cerr << "    probe " << util::FormatDouble(rate, 0) << " req/s: "
                << "goodput " << util::FormatDouble(r.goodput_per_sec, 0)
                << ", shed_rate " << util::FormatDouble(r.shed_rate, 4)
                << "\n";
      last_goodput = r.goodput_per_sec;
      if (!Saturated(r)) return r.achieved_per_sec;
    }
    return 0.0;
  };
  double rate = 32000.0;
  double knee = 0.0;
  for (int i = 0; i < 8; ++i, rate *= 2.0) {
    const double achieved = clean_rate(rate);
    if (achieved == 0.0) {
      // Saturated: fall back to this probe's goodput if even the first
      // rate saturated, else bisect once between rate / 2 and rate.
      if (knee == 0.0) return last_goodput;
      const double mid = clean_rate(0.75 * rate);
      return mid > 0.0 ? mid : knee;
    }
    knee = achieved;
  }
  return knee;
}

}  // namespace
}  // namespace agsc

int main(int argc, char** argv) {
  using namespace agsc;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const bench::Settings settings = bench::Settings::FromEnv();
  bench::PrintBanner("Policy dispatch serving throughput", settings);
  std::cout << "host hardware concurrency: "
            << std::thread::hardware_concurrency() << "\n";

  const map::Dataset& dataset =
      bench::GetDataset(map::CampusId::kPurdue, settings.num_pois);
  env::EnvConfig env_config = bench::BaseEnvConfig(settings);
  env::ScEnv env(env_config, dataset, /*seed=*/1);
  core::TrainConfig train = bench::BaseTrainConfig(settings, /*seed=*/1);
  core::HiMadrlTrainer trainer(env, train);

  const double budget_sec = smoke ? 0.2 : (settings.paper ? 5.0 : 2.0);
  std::vector<Combo> combos;
  if (smoke) {
    combos = {{2, 2, 8}};
  } else {
    combos = {{1, 1, 1},    {4, 4, 16},  {8, 8, 64},
              {8, 16, 64},  {16, 16, 128}};
  }

  std::vector<Result> results;
  for (const Combo& combo : combos) {
    std::cerr << "  measuring sessions=" << combo.sessions
              << " clients=" << combo.clients
              << " max_batch=" << combo.max_batch << "...\n";
    results.push_back(Measure(env, trainer, combo, budget_sec));
  }

  // Offered-load sweep: find the Act path's saturation capacity with a
  // doubling ramp, then pace open-loop arrivals at fractions/multiples
  // of it.
  const env::StepResult probe =
      env::ScEnv(env_config, dataset, /*seed=*/1).Reset();
  const std::vector<float>& sweep_obs = probe.observations[0];
  std::cerr << "  calibrating act-path saturation capacity...\n";
  const double capacity = CalibrateCapacity(env, trainer, sweep_obs,
                                            smoke ? 0.2 : 0.5);
  const std::vector<double> load_multipliers =
      smoke ? std::vector<double>{2.0}
            : std::vector<double>{0.5, 1.0, 1.5, 2.0};
  std::vector<SweepResult> sweep;
  for (const double mult : load_multipliers) {
    std::cerr << "  offered-load sweep at " << mult << "x capacity ("
              << util::FormatDouble(mult * capacity, 0) << " req/s)...\n";
    sweep.push_back(MeasureOfferedLoad(env, trainer, sweep_obs,
                                       mult * capacity, budget_sec));
  }

  util::Table table({"sessions", "clients", "max_batch", "req/s", "p50_ms",
                     "p99_ms", "rows/batch"});
  for (const Result& r : results) {
    table.AddRow({std::to_string(r.combo.sessions),
                  std::to_string(r.combo.clients),
                  std::to_string(r.combo.max_batch),
                  util::FormatDouble(r.req_per_sec, 1),
                  util::FormatDouble(r.p50_ms, 4),
                  util::FormatDouble(r.p99_ms, 4),
                  util::FormatDouble(r.rows_per_batch, 2)});
  }
  table.Print();

  util::Table sweep_table({"offered/s", "achieved/s", "goodput/s", "ok",
                           "expired", "rejected", "shed_rate", "p99_ms"});
  for (const SweepResult& r : sweep) {
    sweep_table.AddRow({util::FormatDouble(r.offered_per_sec, 0),
                        util::FormatDouble(r.achieved_per_sec, 0),
                        util::FormatDouble(r.goodput_per_sec, 0),
                        std::to_string(r.ok), std::to_string(r.expired),
                        std::to_string(r.rejected),
                        util::FormatDouble(r.shed_rate, 4),
                        util::FormatDouble(r.p99_ms, 4)});
  }
  sweep_table.Print();

  // Machine-readable block (copied into BENCH_serving.json).
  std::cout << "{\n  \"bench\": \"bench_serving\""
            << ",\n  \"date\": \"" << bench::UtcDate() << "\""
            << ",\n  \"build\": \""
            << util::BuildInfoString(std::string("gemm-isa=") +
                                     nn::ActiveGemmIsaName())
            << "\""
            << ",\n  \"hardware_concurrency\": "
            << std::thread::hardware_concurrency()
            << ",\n  \"budget_sec\": " << budget_sec
            << ",\n  \"timeslots\": " << env_config.num_timeslots
            << ",\n  \"pois\": " << env_config.num_pois
            << ",\n  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    std::cout << "    {\"sessions\": " << r.combo.sessions
              << ", \"clients\": " << r.combo.clients
              << ", \"max_batch\": " << r.combo.max_batch
              << ", \"transport\": \"direct\""
              << ", \"requests\": " << r.requests
              << ", \"seconds\": " << r.seconds
              << ", \"req_per_sec\": " << r.req_per_sec
              << ", \"p50_ms\": " << r.p50_ms << ", \"p99_ms\": " << r.p99_ms
              << ", \"rows_per_batch\": " << r.rows_per_batch << "}"
              << (i + 1 < results.size() ? "," : "") << "\n";
  }
  std::cout << "  ],\n  \"capacity_req_per_sec\": " << capacity
            << ",\n  \"load_sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepResult& r = sweep[i];
    std::cout << "    {\"offered_per_sec\": " << r.offered_per_sec
              << ", \"achieved_per_sec\": " << r.achieved_per_sec
              << ", \"submitted\": " << r.submitted << ", \"ok\": " << r.ok
              << ", \"expired\": " << r.expired
              << ", \"rejected\": " << r.rejected
              << ", \"goodput_per_sec\": " << r.goodput_per_sec
              << ", \"shed_rate\": " << r.shed_rate
              << ", \"p99_ms\": " << r.p99_ms << "}"
              << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  std::cout << "  ]\n}\n";
  return 0;
}
