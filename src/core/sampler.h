#ifndef AGSC_CORE_SAMPLER_H_
#define AGSC_CORE_SAMPLER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/oracle_guard.h"
#include "core/rollout.h"
#include "env/sc_env.h"
#include "util/rng.h"

namespace agsc::core {

/// Deterministic lock-step rollout collector (Algorithm 1, Lines 5-11) over
/// `num_workers` environment replicas. The base class owns everything the
/// transports share, so the sampling loop exists exactly once:
///
///  * episodes are dealt round-robin — worker w runs global episodes
///    w, w+W, w+2W, ... — so the active workers of every round form a prefix
///    0..active-1 of the worker indices;
///  * each timeslot every agent's action selection is batched ACROSS the
///    running workers into one `BatchActFn` call on the caller's thread
///    (rows in ascending worker order, row i sampled from worker i's
///    private stream only, agent by agent), then the transport steps every
///    running worker;
///  * per-worker buffers and episode metrics are merged in stable
///    worker-index order, independent of arrival or scheduling order; the
///    buffers' rows move into the caller's buffer, they are not copied;
///  * every observation and state is stored once: a step's o_t becomes row
///    t, and its successor o_{t+1} is row t + 1 of the same episode, so the
///    buffer keeps no next-row copies (AgentRollout::next_obs and
///    MultiAgentBuffer::next_states stay empty);
///  * the RNG stream layout: worker 0 samples from the primary sampling
///    stream and steps on the primary environment's stream, both passed at
///    construction (so oracle checks and checkpoints see the same streams
///    in every mode); worker w >= 1 samples from Rng(seed).Split(2w) and
///    steps its environment from Rng(seed).Split(2w+1).
///
/// The merged result is therefore a pure function of (seed, num_workers),
/// and the two transports — VecSampler (in-process thread pool) and
/// ProcSampler (agsc_worker processes over pipes or TCP) — produce
/// bit-identical buffers, metrics and checkpoints for the same pair.
class Sampler {
 public:
  /// Computes one timeslot's actions for every agent across the running
  /// workers in one call. Row i is the i-th running worker (ascending worker
  /// order): `obs[i]` holds its observations, one per agent, and `rngs[i]`
  /// is its private sampling stream. Implementations fill one (direction,
  /// speed) action `actions_out[k][i]` and one log-probability
  /// `logps_out[k][i]` per agent k and row (both come sized), and must draw
  /// row i's sampling noise from `rngs[i]` only, agent by agent: all of
  /// agent k's draws before any of agent k+1's.
  using BatchActFn = std::function<void(
      const std::vector<const std::vector<std::vector<float>>*>& obs,
      const std::vector<util::Rng*>& rngs,
      std::vector<std::vector<std::array<float, 2>>>& actions_out,
      std::vector<std::vector<float>>& logps_out)>;

  virtual ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Collects `episodes` full episodes through `act`, appending the merged
  /// experience to `buffer` and one `Metrics` row per episode to `metrics`
  /// (both in stable worker-index order). Each episode's rows end on a done
  /// row, so the successor of every other row is the row after it.
  ///
  /// Throws util::InterruptedError if the stop check fires at a timeslot
  /// boundary; transport failures propagate as documented by each
  /// transport. Partial experience from a failed call is discarded; the
  /// sampling RNG streams have advanced, so a resumed run is still
  /// deterministic but not bit-equal to an uninterrupted one.
  void Collect(int episodes, const BatchActFn& act, MultiAgentBuffer& buffer,
               std::vector<env::Metrics>& metrics);

  /// Optional cooperative stop: polled on the caller's thread before every
  /// round and at every timeslot boundary (never inside a transport step).
  /// When it returns true, Collect throws util::InterruptedError instead of
  /// starting more work.
  void set_stop_check(std::function<bool()> stop_check) {
    stop_check_ = std::move(stop_check);
  }

  /// Deadline for each reset/step of the workers, in milliseconds (0 = no
  /// deadline). What a miss means is the transport's: fail-fast in process,
  /// respawn-and-replay for subprocess workers.
  void set_step_deadline_ms(long deadline_ms) {
    step_deadline_ms_ = deadline_ms;
  }
  long step_deadline_ms() const { return step_deadline_ms_; }

  int num_workers() const { return num_workers_; }

  /// The sampling RNG stream of worker `w` (worker 0 = the primary stream).
  util::Rng& sample_rng(int w);

  /// The RNG streams owned by workers 1..W-1, in checkpoint order:
  /// [sample_1, env_1, sample_2, env_2, ...]. Worker 0's streams belong to
  /// the trainer/environment and are checkpointed there; these are the
  /// *extra* streams a checkpoint must capture for `--resume` to stay
  /// bit-exact when num_workers > 1. The layout is transport-independent,
  /// so checkpoints resume across transports.
  std::vector<util::Rng*> SplitRngs();

  /// Adds sticky oracle fallbacks (core/oracle_guard bits): the primary
  /// environment takes the reference paths of the env bits at once, and
  /// every worker replica from its next episode start on (subprocess workers
  /// via the episode-prefix flags, respawned incarnations included).
  void AddFallbacks(Fallbacks bits);

  /// Remote subprocess workers only: the TCP port workers must --connect
  /// to (resolves a port-0 listen address); 0 for every other transport.
  virtual int bound_port() const { return 0; }

 protected:
  /// One Collect call's per-worker state. A transport writes only worker
  /// w's entries while stepping worker w; the loop reads and writes them
  /// between transport calls. In-process pool tasks co-own it through the
  /// shared_ptr the hooks receive: a task still running after a watchdog
  /// throw writes here, never into a dead stack frame.
  struct CollectState {
    CollectState(int num_workers, int num_agents);

    std::vector<MultiAgentBuffer> buffers;
    std::vector<std::vector<env::Metrics>> metrics;
    /// cur[w] is the observation the next actions are sampled from. A step
    /// writes its successor into nxt[w] (and the successor's neighbor sets
    /// into he[w]/ho[w]); CommitStep then moves cur[w]'s rows into the
    /// buffer and swaps the two, and the following step refills the
    /// emptied rows (ScEnv::Step rebuilds them, ProcSampler moves the
    /// decoded rows in).
    std::vector<env::StepResult> cur;
    std::vector<env::StepResult> nxt;
    std::vector<std::vector<std::vector<int>>> he;
    std::vector<std::vector<std::vector<int>>> ho;
    /// This timeslot's sampled actions per worker and agent: the raw
    /// (direction, speed) floats, their log-probabilities, and the same
    /// floats as env actions.
    std::vector<std::vector<std::array<float, 2>>> raw;
    std::vector<std::vector<float>> logps;
    std::vector<std::vector<env::UvAction>> actions;
    std::vector<uint8_t> running;
    /// Workers still inside this round's episode, ascending.
    std::vector<int> run_ids;
  };

  /// Validates `num_workers` (std::invalid_argument below 1) and derives
  /// the sampling streams of workers 1..W-1 from `seed`.
  Sampler(env::ScEnv& primary_env, util::Rng& primary_rng, int num_workers,
          uint64_t seed);

  /// Worker w's (w >= 1) environment stream before its first episode.
  util::Rng InitialEnvStream(int w) const;

  /// Worker w's environment stream (worker 0 = the primary env's).
  virtual util::Rng& env_stream(int w) = 0;

  /// Starts an episode on workers 0..active-1: fills st->cur[w] with each
  /// worker's initial observations. `round` is 0 on the first call of
  /// every Collect.
  virtual void ResetWorkers(const std::shared_ptr<CollectState>& st,
                            int active, int round) = 0;

  /// Steps every worker in st->run_ids with its sampled actions; fills
  /// st->nxt[w], st->he[w] and st->ho[w], appends the episode metrics when
  /// the step ends the episode, and calls CommitStep(*st, w).
  virtual void StepWorkers(const std::shared_ptr<CollectState>& st,
                           int round, int timeslot) = 0;

  /// Appends worker w's transition cur -> nxt to its buffer, marks the
  /// worker finished when the episode is done, and promotes nxt to cur.
  /// cur's observations and state move into the buffer as row t; nxt's
  /// become row t + 1 at the next call, unless this step ends the episode.
  static void CommitStep(CollectState& st, int w);

  /// The sticky fallbacks, for transports to apply at an episode start.
  Fallbacks fallbacks() const { return fallbacks_; }

  env::ScEnv& primary_env() const { return primary_env_; }

 private:
  /// Throws util::InterruptedError when the stop check fires.
  void CheckStop(int round, int timeslot) const;

  env::ScEnv& primary_env_;
  util::Rng& primary_rng_;
  const int num_workers_;
  const uint64_t seed_;
  std::vector<util::Rng> sample_rngs_;  ///< Workers 1..W-1.
  std::function<bool()> stop_check_;
  long step_deadline_ms_ = 0;
  Fallbacks fallbacks_ = 0;
};

}  // namespace agsc::core

#endif  // AGSC_CORE_SAMPLER_H_
