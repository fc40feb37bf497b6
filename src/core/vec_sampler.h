#ifndef AGSC_CORE_VEC_SAMPLER_H_
#define AGSC_CORE_VEC_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/sampler.h"
#include "env/sc_env.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace agsc::core {

/// In-process transport of the Sampler: `num_workers` `ScEnv` replicas
/// stepped on a thread pool. Worker 0 steps the primary environment itself,
/// so one worker adds no threads at all (the pool runs inline); workers
/// 1..W-1 own copies of it. Every reset and step task writes worker-local
/// state only, so the result is independent of which pool thread runs which
/// worker.
///
/// The step deadline is a fail-fast watchdog: a batch that misses it throws
/// util::WatchdogTimeoutError annotated with the stuck worker, round and
/// timeslot. The hung task may still be running when Collect throws (its
/// writes land in state it co-owns), so treat the sampler as unusable and
/// flush + exit rather than retrying.
class VecSampler : public Sampler {
 public:
  /// `primary_env` / `primary_rng` become worker 0's environment and
  /// sampling stream (held by reference). Workers 1..num_workers-1 get
  /// copies of `primary_env` reseeded from the Sampler stream layout.
  VecSampler(env::ScEnv& primary_env, util::Rng& primary_rng, int num_workers,
             uint64_t seed);
  ~VecSampler() override;

 protected:
  util::Rng& env_stream(int w) override { return worker_env(w).rng(); }
  void ResetWorkers(const std::shared_ptr<CollectState>& st, int active,
                    int round) override;
  void StepWorkers(const std::shared_ptr<CollectState>& st, int round,
                   int timeslot) override;

 private:
  /// Worker `w`'s environment (worker 0 = the primary environment).
  env::ScEnv& worker_env(int w);

  std::vector<std::unique_ptr<env::ScEnv>> replica_envs_;  ///< Workers 1..W-1.
  // Declared last so it is destroyed first: the destructor join waits for
  // any straggling (e.g. stalled) task before the envs it touches go away.
  util::ThreadPool pool_;
};

}  // namespace agsc::core

#endif  // AGSC_CORE_VEC_SAMPLER_H_
