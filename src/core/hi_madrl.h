#ifndef AGSC_CORE_HI_MADRL_H_
#define AGSC_CORE_HI_MADRL_H_

#include <cstddef>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/copo.h"
#include "core/eoi.h"
#include "core/evaluator.h"
#include "core/oracle_guard.h"
#include "core/policy.h"
#include "core/ppo.h"
#include "core/proc_sampler.h"
#include "core/rollout.h"
#include "core/sampler.h"
#include "env/sc_env.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "util/retry.h"
#include "util/thread_pool.h"

namespace agsc::core {

/// Thrown by Train when the divergence guard has exhausted its learning-rate
/// backoff budget (TrainConfig::max_lr_backoffs) and updates are still
/// non-finite: the run cannot make progress. Train flushes a final
/// checkpoint before letting this propagate, so the last good state is on
/// disk.
class TrainingDiverged : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Which multi-agent actor-critic serves as the base module (Section V):
/// IPPO (independent critics on local obs) or MAPPO (critics on the global
/// state).
enum class BaseAlgo { kIppo, kMappo };

/// Full training configuration of h/i-MADRL (Algorithm 1). Disabling both
/// plug-ins reduces the trainer to plain IPPO/MAPPO, which is how the
/// ablations and the MAPPO baseline are run.
struct TrainConfig {
  BaseAlgo base = BaseAlgo::kIppo;
  int iterations = 100;          ///< N outer iterations.
  int episodes_per_iteration = 4;
  int policy_epochs = 4;         ///< M1.
  int lcf_epochs = 2;            ///< M2.
  int minibatch = 256;
  float gamma = 0.95f;
  /// <0 uses the paper's one-step advantage (Eqn. 24); otherwise GAE lambda.
  float gae_lambda = -1.0f;
  float clip = 0.2f;             ///< PPO clip epsilon.
  float actor_lr = 3e-4f;
  float critic_lr = 1e-3f;
  float entropy_coef = 1e-3f;
  float max_grad_norm = 10.0f;

  // --- i-EOI plug-in (Section V-A) ---
  bool use_eoi = true;
  float omega_in = 0.003f;        ///< Intrinsic weight (Eqn. 19, Table III).
  /// >= 0 linearly anneals omega_in to this value over training (Table IV).
  float omega_in_final = -1.0f;
  EoiConfig eoi;

  // --- h-CoPO plug-in (Section V-B) ---
  bool use_copo = true;
  /// true = h-CoPO (separate HE/HO neighbor advantages + chi); false = the
  /// plain CoPO of the h/i-MADRL(CoPO) baseline (merged neighbor set).
  bool hetero_copo = true;
  float lcf_lr = 50.0f;           ///< Outer meta step on the LCF degrees.
  float max_lcf_step_deg = 3.0f;  ///< Per-minibatch LCF step clamp.

  // --- Architecture variants swept by Table III ---
  bool share_params = false;       ///< SP: one network for all UVs.
  bool centralized_critic = false; ///< CC: V^k takes the global state.

  // --- Divergence guard (robustness) ---
  /// Detect non-finite losses/grad norms/parameters during updates, roll
  /// the affected network back to its last good state and skip the
  /// poisoned minibatch instead of propagating NaN.
  bool divergence_guard = true;
  /// After this many *consecutive* anomalous iterations, halve the actor
  /// and critic learning rates (with a warning) instead of crashing.
  int anomaly_backoff_after = 3;
  float lr_backoff_factor = 0.5f;
  /// Give up after this many learning-rate backoffs: the next one throws
  /// TrainingDiverged instead of halving again (Train flushes a final
  /// checkpoint first). 0 = never give up (the legacy behavior).
  int max_lr_backoffs = 0;

  // --- Long-run supervisor (robustness) ---
  /// Cooperative stop hook (e.g. util::ShutdownRequested), polled at
  /// iteration boundaries and at every sampling timeslot. When it fires
  /// mid-collect the partial iteration is abandoned via
  /// util::InterruptedError; Train flushes a final checkpoint and rethrows.
  std::function<bool()> stop_check;
  /// Rollout step deadline in milliseconds (0 = disabled), passed to the
  /// sampler as its step deadline. In process it bounds each parallel
  /// reset/step batch with num_workers > 1 (the single-worker pool runs
  /// inline, so it never fires): a hung worker turns into a
  /// util::WatchdogTimeoutError naming the stuck worker and timeslot, and
  /// no checkpoint is flushed since the hung task may still be mutating
  /// trainer state. With proc_workers > 0 it is the per-frame read/write
  /// deadline instead, and a miss is recovered by respawn and replay.
  long watchdog_ms = 0;
  /// Run the oracle self-checks (core/oracle_guard's kOraclePairs: spatial
  /// index, GEMM and channel kernels against their references) at the start
  /// of every `oracle_check_every`-th iteration, including the first. On
  /// mismatch the affected path is logged loudly and permanently downgraded
  /// to its reference (see IterationStats::oracle_fallbacks); the downgrade
  /// is recorded in checkpoints and reapplied on resume. 0 = disabled.
  int oracle_check_every = 0;
  /// Retry policy for checkpoint writes (transient I/O failures are
  /// retried with exponential backoff before the write is abandoned).
  util::RetryPolicy io_retry;

  // --- Periodic auto-checkpointing (crash recovery) ---
  /// When non-empty and checkpoint_every > 0, Train() writes a v2
  /// checkpoint to this directory every `checkpoint_every` iterations
  /// (and after the final one), updates a `latest` pointer file, and
  /// retains only the newest `checkpoint_keep` files.
  std::string checkpoint_dir;
  int checkpoint_every = 0;
  int checkpoint_keep = 3;

  // --- Parallel rollout collection ---
  /// In-process rollout workers for on-policy sampling (>= 1; the trainer
  /// constructor throws std::invalid_argument otherwise). 1 (the default)
  /// steps the primary environment on the caller's thread and spawns no
  /// threads. W > 1 runs W independent environment replicas in lock-step on
  /// a thread pool with per-worker `Rng::Split` streams; results are
  /// bit-identical for a given (seed, num_workers) pair and independent of
  /// thread scheduling.
  int num_workers = 1;

  // --- Crash-isolated subprocess rollout collection ---
  /// > 0 replaces the in-process sampler with `proc_workers` agsc_worker
  /// subprocesses (core/proc_sampler.h): each worker owns one environment
  /// replica in its own address space, and a crashed/hung/garbage-emitting
  /// worker is respawned and replayed deterministically instead of taking
  /// the trainer down. Buffers and checkpoints are bit-identical to
  /// `num_workers == proc_workers` for the same seed (checkpoints from
  /// either mode resume in the other). Takes precedence over num_workers;
  /// the CLI enforces mutual exclusivity.
  int proc_workers = 0;
  /// Path to the agsc_worker binary; required when proc_workers > 0 and
  /// listen_address is empty.
  std::string worker_binary;
  /// Non-empty switches the proc sampler to remote mode: instead of
  /// fork/exec'ing workers it listens on this "HOST:PORT" (port 0 =
  /// kernel-assigned, see SamplerBoundPort()) and `proc_workers`
  /// externally launched `agsc_worker --connect` processes claim the
  /// slots. Same protocol, same bit-exactness contract; a dropped
  /// connection replays like a local crash. The CLI sets this from
  /// --listen + --remote-workers.
  std::string listen_address;
  /// Backoff schedule between respawn attempts of a failed worker, and the
  /// total respawns tolerated per collection round before Train gives up
  /// with ProcWorkerError (the CLI maps it to util::kExitWorkerFailed).
  util::RetryPolicy worker_respawn;
  int worker_max_respawns = 8;

  // --- NN compute kernels (process-wide, applied in the ctor) ---
  /// Use the retained naive reference GEMMs instead of the blocked kernels
  /// (debug / benchmark baseline; bit-identical results, just slower).
  bool nn_naive_kernels = false;

  NetConfig net;
  uint64_t seed = 1;
  bool verbose = false;
};

/// Per-iteration training diagnostics.
struct IterationStats {
  int iteration = 0;
  env::Metrics rollout_metrics;   ///< Mean metrics of this iter's episodes.
  float mean_reward_ext = 0.0f;
  float mean_reward_int = 0.0f;
  float eoi_loss = 0.0f;
  float actor_grad_norm = 0.0f;   ///< ||grad J_CO|| (sample complexity).
  float value_loss = 0.0f;
  long total_env_steps = 0;       ///< Cumulative agent-steps consumed.
  /// Non-finite losses/grads/params caught by the divergence guard this
  /// iteration; each one rolled the affected network back and skipped the
  /// poisoned minibatch.
  int anomalies = 0;
  /// True if repeated anomalies triggered a learning-rate halving at the
  /// end of this iteration.
  bool lr_backoff = false;
  /// The paths running on their reference after an oracle self-check
  /// mismatch (core/oracle_guard bits, sticky for the rest of the run).
  Fallbacks oracle_fallbacks = 0;
};

/// The h/i-MADRL trainer (Algorithm 1): a PPO-family base module plus the
/// i-EOI and h-CoPO plug-ins. Also acts as an evaluation `Policy`.
class HiMadrlTrainer : public Policy {
 public:
  HiMadrlTrainer(env::ScEnv& env, const TrainConfig& config);

  /// One outer iteration: rollout -> i-EOI update -> M1 policy epochs ->
  /// M2 LCF meta-updates. Returns diagnostics.
  IterationStats TrainIteration();

  /// Runs `config.iterations` iterations (or `iterations` if >= 0),
  /// auto-checkpointing per `config.checkpoint_*`.
  std::vector<IterationStats> Train(int iterations = -1);

  /// Trains until the *cumulative* iteration counter reaches
  /// `total_iterations` — after a checkpoint resume this runs only the
  /// remaining iterations (no-op if already past the target).
  std::vector<IterationStats> TrainTo(int total_iterations);

  // Policy interface (deterministic evaluation uses the Gaussian mode).
  env::UvAction Act(const env::ScEnv& env, int k,
                    const std::vector<float>& obs, util::Rng& rng,
                    bool deterministic) override;

  const std::vector<Lcf>& lcfs() const { return lcfs_; }
  const TrainConfig& config() const { return config_; }
  long total_env_steps() const { return total_env_steps_; }
  /// Cumulative iterations trained (restored by LoadCheckpoint).
  int iteration() const { return iteration_; }
  /// Learning-rate backoffs taken so far (counted against max_lr_backoffs).
  int lr_backoff_count() const { return lr_backoff_count_; }
  /// Oracle-fallback bits (sticky; persisted in checkpoints).
  Fallbacks oracle_fallbacks() const { return fallbacks_; }

  /// Total scalar parameters across all live networks.
  int TotalParameterCount() const;

  /// Inference-only parameter bytes (actors only; critics and the i-EOI
  /// classifier are train-time constructs under CTDE, Section VI-F).
  int ActorParameterBytes() const;

  /// Current effective intrinsic-reward weight (after annealing).
  float CurrentOmegaIn() const;

  /// Runs one round of on-policy sampling (Algorithm 1, Lines 5-11) into
  /// the shared buffer: `config.episodes_per_iteration` episodes through
  /// the sampler (in-process or subprocess workers). Public so the
  /// sampling-throughput bench and the determinism tests can drive
  /// collection without a policy update.
  void CollectRollouts();

  /// True when CollectRollouts runs the agents' actor forwards as lanes of
  /// the optimize pool rather than one after another on the calling thread:
  /// when ActorFirstLayerBytes() is at least kLaneForwardBytes, unless
  /// internal::SetForwardPlacement forces a side. Buffers are the same
  /// either way.
  bool CollectForwardsInLanes() const;

  /// Bytes of one actor's first weight matrix, the one a collect forward
  /// streams when observations are wide.
  size_t ActorFirstLayerBytes() const;

  /// Actor first-layer weight size from which collect forwards run in
  /// lanes. The layer is 156 KiB at 100 PoIs and 1.47 MiB at 1000 PoIs
  /// (hidden 128); see hi_madrl.cc for the measured crossover.
  static constexpr size_t kLaneForwardBytes = 256 * 1024;

  /// The shared on-policy buffer filled by CollectRollouts.
  const MultiAgentBuffer& buffer() const { return buffer_; }

  /// Every IterationStats produced through Train/TrainTo over this
  /// trainer's lifetime. Unlike Train's return value this survives an
  /// abnormal exit (interrupt, divergence), so the CLI can still flush a
  /// stats CSV covering the completed iterations.
  const std::vector<IterationStats>& stats_history() const {
    return stats_history_;
  }

  /// Runs one optimize phase (i-EOI update + theta_old snapshot + M1 policy
  /// epochs + M2 LCF meta-updates) on whatever CollectRollouts already put
  /// in the buffer, without sampling or touching the iteration counters.
  /// Public so bench_micro_nn's end-to-end PpoUpdate benchmark can time the
  /// optimize hot path in isolation; Train/TrainIteration remain the real
  /// entry points.
  void OptimizeOnCurrentBuffer();

  /// Writes a v2 ("AGSCNN02") checkpoint to `path`: all network
  /// parameters, per-agent LCFs, Adam moments + step counts + learning
  /// rates, trainer and environment RNG state, and the iteration/env-step
  /// counters — everything needed for LoadCheckpoint + Train to be
  /// bit-exact with an uninterrupted run. The file carries a CRC-32 and an
  /// architecture fingerprint, and is written atomically (tmp + fsync +
  /// rename). Returns false on I/O failure.
  bool SaveCheckpoint(const std::string& path);

  /// Restores a checkpoint written by SaveCheckpoint into this trainer.
  /// v2 files are checksum-verified and rejected loudly on an architecture
  /// fingerprint mismatch; legacy v1 ("AGSCNN01") parameter files are
  /// still accepted (params + LCFs only, no optimizer/RNG state). The
  /// trainer must have been constructed with the same architecture.
  /// Returns false on failure, leaving the trainer unchanged.
  bool LoadCheckpoint(const std::string& path);

  /// Restores network parameters + LCFs from a checkpoint, ignoring
  /// optimizer, RNG, counter, and worker-stream state. This is the serving
  /// loader: unlike LoadCheckpoint it accepts checkpoints saved with any
  /// num_workers (the vrng section does not describe inference state), so a
  /// dispatch server with a 1-worker staging trainer can promote checkpoints
  /// from a multi-worker training run. v2 files are still checksum-verified
  /// and fingerprint-checked; malformed files are rejected loudly with the
  /// trainer left unchanged. Returns false on failure.
  bool LoadCheckpointForInference(const std::string& path);

  /// Live policy head for agent `k` (the shared net under SP). Used to copy
  /// actor weights into an immutable serving snapshot; the deterministic
  /// action for `k` is actor(k).mean_net() on ActorInputFor(k, obs).
  const GaussianActor& actor(int k) const { return *Nets(k).actor; }

  /// Public ActorInput: obs plus the one-hot agent id appended under
  /// share_params (identity otherwise). Exposed so serving code can build
  /// bit-identical actor rows without going through Act.
  std::vector<float> ActorInputFor(int k, const std::vector<float>& obs) const {
    return ActorInput(k, obs);
  }

  /// Restores the newest checkpoint in `dir` that passes validation,
  /// falling back to older retained files when the newest one is
  /// truncated or corrupted. Returns false if no checkpoint loads.
  bool LoadLatestCheckpoint(const std::string& dir);

  /// Hash of the env dims and architecture-relevant TrainConfig fields;
  /// stored in checkpoints and compared on load.
  uint64_t ArchitectureFingerprint() const;

  /// Remote-worker mode only (TrainConfig::listen_address set): the TCP
  /// port the sampler is listening on — resolves a port-0 listen address
  /// to the kernel's choice so the CLI can publish it (--port-file) before
  /// any worker connects. 0 in every other sampler mode.
  int SamplerBoundPort() const { return sampler_->bound_port(); }

 private:
  struct AgentNets {
    std::unique_ptr<GaussianActor> actor;
    std::unique_ptr<GaussianActor> actor_old;  ///< theta_old (Line 13).
    std::unique_ptr<ValueNet> value;           ///< V^k.
    std::unique_ptr<ValueNet> value_he;        ///< V^k_HE.
    std::unique_ptr<ValueNet> value_ho;        ///< V^k_HO.
    std::unique_ptr<nn::Adam> actor_opt;
    std::unique_ptr<nn::Adam> value_opt;
  };

  AgentNets& Nets(int k) { return nets_[config_.share_params ? 0 : k]; }
  const AgentNets& Nets(int k) const {
    return nets_[config_.share_params ? 0 : k];
  }
  /// V^k reads the global state (MAPPO, or CC) instead of the local obs.
  bool StateCritic() const {
    return config_.base == BaseAlgo::kMappo || config_.centralized_critic;
  }

  /// Actor input: raw obs, plus a one-hot agent id when parameters are
  /// shared (SP) so the shared network can distinguish UVs.
  std::vector<float> ActorInput(int k, const std::vector<float>& obs) const;
  /// Critic input: obs for IPPO, global state for MAPPO or CC (+ one-hot
  /// under SP).
  std::vector<float> CriticInput(int k, const std::vector<float>& obs,
                                 const std::vector<float>& state) const;

  /// One timeslot's action selection across rollout workers (the
  /// Sampler's BatchActFn): one tape-free actor forward per agent over all
  /// rows, then, on the calling thread in agent-then-row order, each row's
  /// noise from its worker's private stream and its log-probability.
  void BatchAct(
      const std::vector<const std::vector<std::vector<float>>*>& obs,
      const std::vector<util::Rng*>& rngs,
      std::vector<std::vector<std::array<float, 2>>>& actions_out,
      std::vector<std::vector<float>>& logps_out);
  float UpdateEoiAndRewards();
  void SnapshotOldPolicies();
  /// One optimize phase on the current buffer (Lines 12-20): i-EOI update,
  /// theta_old snapshot, M1 policy epochs, M2 LCF meta-updates.
  void Optimize(IterationStats& stats);

  /// Network input rows of one optimize phase, built once and shared by
  /// PolicyUpdate and LcfUpdate, plus the rows whose successor value needs
  /// its own critic pass (SuccessorFallbackRows; empty for every sampler).
  struct OptimizeInputs {
    std::vector<std::vector<std::vector<float>>> actor;   ///< Per agent.
    /// Per agent, only when V^k reads the global state (StateCritic);
    /// otherwise V^k reads the actor's rows.
    std::vector<std::vector<std::vector<float>>> critic;
    std::vector<std::vector<int>> obs_fallback;  ///< Per agent, on obs.
    std::vector<int> state_fallback;             ///< On the global state.
  };
  OptimizeInputs BuildOptimizeInputs() const;
  /// V^k's input rows for agent k.
  const std::vector<std::vector<float>>& CriticRows(
      const OptimizeInputs& in, int k) const {
    return StateCritic() ? in.critic[k] : in.actor[k];
  }

  /// Agent k's advantage streams under the current critics (Eqn. 24): r^k
  /// under V^k and, with CoPO, the HE/HO neighbor rewards under V_HE/V_HO.
  struct AgentAdvantages {
    AdvantageResult k, he, ho;
  };
  AgentAdvantages AdvantagesOf(int k, const OptimizeInputs& in) const;
  /// r_all under V_all (Eqns. 29, 31).
  AdvantageResult OverallAdvantages(const OptimizeInputs& in,
                                    bool normalize) const;

  /// Returns {mean actor grad norm, mean value loss}.
  std::pair<float, float> PolicyUpdate(const OptimizeInputs& in);
  void LcfUpdate(const OptimizeInputs& in);

  // Optimize-phase tasks (DESIGN.md, "Optimize-phase tasks"). Without
  // share_params each agent's networks, optimizers and LCF are touched only
  // by that agent's updates, and V_all's by no agent's, so PolicyUpdate
  // runs one task per agent group plus one for V_all, and LcfUpdate one
  // per group. Everything the serial loop drew from shared streams is drawn
  // before the tasks start, and their statistics are reduced after the
  // join in the serial order, so results do not depend on the core count.

  using Minibatches = std::vector<std::vector<int>>;
  /// One agent's minibatches in one M1 epoch, and the fault injector's
  /// PoisonLossNow() decision for each of its actor losses.
  struct EpochDraws {
    Minibatches batches;
    std::vector<uint8_t> poison;
  };
  /// What one agent's M1 epoch leaves for the ordered reduction.
  struct EpochStats {
    std::vector<float> grad_norms;    ///< Per actor step taken.
    std::vector<float> value_losses;  ///< V^k loss per critic step taken.
    int anomalies = 0;
  };
  /// Agent k's M1 epoch (Eqns. 24-28): actor and critic minibatch steps.
  EpochStats AgentPolicyEpoch(int k, const OptimizeInputs& in,
                              const EpochDraws& draws);
  /// One epoch of V_all on r_all (Line 20); returns its anomalies.
  int OverallValueEpoch(const OptimizeInputs& in, const Minibatches& batches);
  /// Agent k's LCF meta-update over one M2 epoch (Eqns. 30-32); returns
  /// its anomalies.
  int AgentLcfEpoch(int k, const OptimizeInputs& in,
                    const AgentAdvantages& adv,
                    const AdvantageResult& adv_all,
                    const Minibatches& batches);
  /// Agents whose updates share state run in one task, in agent order:
  /// group g is agent g, or every agent under share_params (one group).
  int AgentGroups() const { return static_cast<int>(nets_.size()); }
  std::pair<int, int> GroupAgents(int g) const {
    return config_.share_params ? std::pair{0, env_.num_agents()}
                                : std::pair{g, g + 1};
  }
  /// Runs task(0..count-1) on the optimize pool, creating it on first use.
  /// Large collect forwards run here too (CollectForwardsInLanes).
  void RunOptimizeTasks(int count, const std::function<void(int)>& task);

  /// All persistent network parameters in a stable order (actors, critics,
  /// V_all, i-EOI classifier).
  std::vector<nn::Variable> GatherNetParameters() const;
  /// All live Adam optimizers in a stable order matching the checkpoint.
  std::vector<nn::Adam*> GatherOptimizers();
  bool LoadCheckpointV1(const std::string& path);
  bool LoadCheckpointV2(const std::string& path);
  /// The validate step of both v2 loaders: reads `path` and checks its CRC,
  /// fingerprint and params/LCF sections against this trainer, logging why
  /// it refuses. Mutates nothing.
  bool ReadCheckpoint(const std::string& path, nn::Checkpoint& ckpt) const;
  /// Their commit step: restores params + LCFs from a checkpoint that
  /// ReadCheckpoint accepted and re-syncs theta_old.
  void RestoreNetworks(const nn::Checkpoint& ckpt);
  /// Writes ckpt_<iter>.agsc + the `latest` pointer and prunes old files.
  void WriteAutoCheckpoint();
  /// Writes a final auto-checkpoint on an abnormal Train exit, unless the
  /// current iteration already has one on disk.
  void FlushFinalCheckpoint();
  /// Halves actor/critic learning rates after repeated anomalous
  /// iterations; returns true if a backoff happened. Throws
  /// TrainingDiverged once max_lr_backoffs is exhausted.
  bool MaybeBackoffLearningRates();
  /// Runs the self-check of every pair not yet downgraded and applies any
  /// permanent fallback.
  void RunOracleChecks();
  /// Applies the sticky fallback bits to the live env/replicas/kernels
  /// (after a self-check mismatch or a checkpoint restore).
  void ApplyOracleFallbacks();

  env::ScEnv& env_;
  TrainConfig config_;
  util::Rng rng_;
  /// VecSampler, or ProcSampler when proc_workers > 0.
  std::unique_ptr<Sampler> sampler_;
  std::vector<AgentNets> nets_;
  std::unique_ptr<ValueNet> value_all_;       ///< V_all on the state.
  std::unique_ptr<nn::Adam> value_all_opt_;
  std::unique_ptr<EoiClassifier> eoi_;
  std::vector<Lcf> lcfs_;
  MultiAgentBuffer buffer_;
  std::vector<env::Metrics> rollout_metrics_;
  std::vector<IterationStats> stats_history_;
  int iteration_ = 0;
  long total_env_steps_ = 0;
  int actor_input_dim_ = 0;
  int critic_input_dim_ = 0;
  int iter_anomalies_ = 0;        ///< Guard events in the current iteration.
  int anomaly_streak_ = 0;        ///< Consecutive anomalous iterations.
  int lr_backoff_count_ = 0;      ///< LR backoffs taken (vs max_lr_backoffs).
  Fallbacks fallbacks_ = 0;       ///< Paths downgraded to their reference.
  int last_checkpoint_iter_ = -1; ///< Iteration of the newest auto-ckpt.
  /// Optimize-phase workers, which also run large collect forwards; null
  /// until the first task needs them.
  std::unique_ptr<util::ThreadPool> optimize_pool_;
};

/// The auto-checkpoint files (ckpt_<iteration>.agsc, written by
/// --checkpoint-dir runs) in `dir`, in name order, which is iteration order
/// because the number is zero-padded. Empty, with `ec` set, when `dir`
/// cannot be listed.
std::vector<std::filesystem::path> ListCheckpointFiles(const std::string& dir,
                                                       std::error_code& ec);

namespace internal {

/// Where CollectRollouts runs the agents' actor forwards.
enum class ForwardPlacement {
  kBySize,  ///< HiMadrlTrainer's size rule (the default).
  kCaller,  ///< Always one after another on the calling thread.
  kLanes,   ///< Always as lanes of the optimize pool.
};

/// Test hook: forces the collect-forward placement of every trainer in the
/// process, so both sides of the rule run on one configuration; kBySize
/// restores the rule. Buffers and checkpoints never depend on it.
void SetForwardPlacement(ForwardPlacement placement);

}  // namespace internal

}  // namespace agsc::core

#endif  // AGSC_CORE_HI_MADRL_H_
