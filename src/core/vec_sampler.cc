#include "core/vec_sampler.h"

#include <chrono>
#include <sstream>
#include <thread>

#include "util/fault_inject.h"

namespace agsc::core {

VecSampler::VecSampler(env::ScEnv& primary_env, util::Rng& primary_rng,
                       int num_workers, uint64_t seed)
    : Sampler(primary_env, primary_rng, num_workers, seed),
      // With one worker the pool runs inline on the caller's thread: the
      // single-worker path adds no threads and no handoff overhead.
      pool_(num_workers > 1 ? num_workers : 0) {
  for (int w = 1; w < num_workers; ++w) {
    replica_envs_.push_back(std::make_unique<env::ScEnv>(primary_env));
    replica_envs_.back()->rng() = InitialEnvStream(w);
  }
}

VecSampler::~VecSampler() = default;

env::ScEnv& VecSampler::worker_env(int w) {
  return w == 0 ? primary_env() : *replica_envs_[static_cast<size_t>(w - 1)];
}

namespace {

// Re-throws a pool-level watchdog timeout with sampler context: which
// worker's environment was stuck and at which timeslot of which round.
[[noreturn]] void RethrowWithContext(const util::WatchdogTimeoutError& e,
                                     const char* phase, int worker, int round,
                                     int timeslot) {
  std::ostringstream msg;
  msg << "rollout watchdog: worker " << worker << " stalled in " << phase
      << " (round " << round << ", timeslot " << timeslot << "): " << e.what();
  throw util::WatchdogTimeoutError(msg.str(), e.task_index(), e.task_started(),
                                   e.elapsed_ms(), e.deadline_ms());
}

}  // namespace

void VecSampler::ResetWorkers(const std::shared_ptr<CollectState>& st,
                              int active, int round) {
  // The primary env is downgraded by the Sampler itself; replicas pick up
  // the sticky fallbacks here, before their next episode.
  for (int w = 1; w < active; ++w) {
    ApplyEnvFallbacks(fallbacks(), worker_env(w));
  }
  try {
    pool_.ParallelFor(
        active, [this, st](int w) { worker_env(w).Reset(st->cur[w]); },
        step_deadline_ms());
  } catch (const util::WatchdogTimeoutError& e) {
    RethrowWithContext(e, "Reset", e.task_index(), round, 0);
  }
}

void VecSampler::StepWorkers(const std::shared_ptr<CollectState>& st,
                             int round, int timeslot) {
  // Env step and buffer append both run inside the worker's pool task, on
  // worker-local state only.
  const auto step_task = [this, st](int i) {
    const long stall = util::FaultInjector::Instance().NextStallMs();
    if (stall > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall));
    }
    const int w = st->run_ids[static_cast<size_t>(i)];
    const size_t wi = static_cast<size_t>(w);
    env::ScEnv& e = worker_env(w);
    e.Step(st->actions[wi], st->nxt[wi]);
    for (int k = 0; k < e.num_agents(); ++k) {
      st->he[wi][static_cast<size_t>(k)] = e.HeterogeneousNeighbors(k);
      st->ho[wi][static_cast<size_t>(k)] = e.HomogeneousNeighbors(k);
    }
    if (st->nxt[wi].done) st->metrics[wi].push_back(e.EpisodeMetrics());
    CommitStep(*st, w);
  };
  try {
    pool_.ParallelFor(static_cast<int>(st->run_ids.size()), step_task,
                      step_deadline_ms());
  } catch (const util::WatchdogTimeoutError& e) {
    const int w = st->run_ids[static_cast<size_t>(e.task_index())];
    RethrowWithContext(e, "Step", w, round, timeslot);
  }
}

}  // namespace agsc::core
