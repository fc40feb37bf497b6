#include "core/hi_madrl.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>

#include "core/oracle_guard.h"
#include "core/vec_sampler.h"
#include "nn/serialize.h"
#include "util/fault_inject.h"
#include "util/logging.h"
#include "util/shutdown.h"

namespace agsc::core {

namespace {
constexpr double kRadToDeg = 180.0 / M_PI;

/// True when every element of every parameter is finite.
bool AllFinite(const std::vector<nn::Variable>& params) {
  for (const nn::Variable& p : params) {
    const nn::Tensor& t = p.value();
    for (int i = 0; i < t.size(); ++i) {
      if (!std::isfinite(t[i])) return false;
    }
  }
  return true;
}

uint64_t DoubleBits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

double BitsToDouble(uint64_t u) {
  double d = 0.0;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

std::atomic<internal::ForwardPlacement> g_forward_placement{
    internal::ForwardPlacement::kBySize};
}  // namespace

namespace internal {
void SetForwardPlacement(ForwardPlacement placement) {
  g_forward_placement.store(placement);
}
}  // namespace internal

HiMadrlTrainer::HiMadrlTrainer(env::ScEnv& env, const TrainConfig& config)
    : env_(env),
      config_(config),
      rng_(config.seed),
      buffer_(env.num_agents()) {
  if (config_.num_workers < 1) {
    throw std::invalid_argument(
        "TrainConfig::num_workers must be >= 1, got " +
        std::to_string(config_.num_workers));
  }
  // Install the NN kernel selection before any network is built. The config
  // is process-wide; with several trainers alive the last one constructed
  // wins, which is fine — every kernel choice is bit-identical, only speed
  // differs.
  nn::KernelConfig kernel_config;
  kernel_config.gemm = config_.nn_naive_kernels ? nn::GemmKernel::kNaive
                                                : nn::GemmKernel::kBlocked;
  nn::SetKernelConfig(kernel_config);

  const int num_agents = env_.num_agents();
  const int id_dim = config_.share_params ? num_agents : 0;
  actor_input_dim_ = env_.obs_dim() + id_dim;
  critic_input_dim_ =
      (StateCritic() ? env_.state_dim() : env_.obs_dim()) + id_dim;

  const int net_count = config_.share_params ? 1 : num_agents;
  nets_.resize(net_count);
  for (int i = 0; i < net_count; ++i) {
    AgentNets& n = nets_[i];
    n.actor = std::make_unique<GaussianActor>(
        actor_input_dim_, env::ScEnv::kActionDim, config_.net, rng_);
    n.actor_old = std::make_unique<GaussianActor>(
        actor_input_dim_, env::ScEnv::kActionDim, config_.net, rng_);
    n.value = std::make_unique<ValueNet>(critic_input_dim_, config_.net, rng_);
    n.actor_opt = std::make_unique<nn::Adam>(n.actor->Parameters(),
                                             config_.actor_lr);
    std::vector<nn::Variable> value_params = n.value->Parameters();
    if (config_.use_copo) {
      // Neighborhood value networks take the local observation (Section
      // V-B), augmented with the one-hot id under SP like the actor.
      n.value_he =
          std::make_unique<ValueNet>(actor_input_dim_, config_.net, rng_);
      n.value_ho =
          std::make_unique<ValueNet>(actor_input_dim_, config_.net, rng_);
      for (nn::Variable& p : n.value_he->Parameters()) {
        value_params.push_back(p);
      }
      for (nn::Variable& p : n.value_ho->Parameters()) {
        value_params.push_back(p);
      }
    }
    n.value_opt =
        std::make_unique<nn::Adam>(std::move(value_params), config_.critic_lr);
  }
  if (config_.use_copo) {
    value_all_ =
        std::make_unique<ValueNet>(env_.state_dim(), config_.net, rng_);
    value_all_opt_ = std::make_unique<nn::Adam>(value_all_->Parameters(),
                                                config_.critic_lr);
  }
  if (config_.use_eoi) {
    // The classifier sees the *raw* observation (no id features, which
    // would make the identification task trivial).
    eoi_ = std::make_unique<EoiClassifier>(env_.obs_dim(), num_agents,
                                           config_.eoi, rng_);
  }
  lcfs_.assign(num_agents, Lcf{});  // phi = 0, chi = 45 (Line 3).
  if (config_.proc_workers > 0) {
    // Crash-isolated subprocess collection. Workers are spawned lazily on
    // the first collect, so a trainer built only for checkpoint surgery
    // never forks.
    ProcSampler::Options opts;
    opts.worker_binary = config_.worker_binary;
    opts.respawn_backoff = config_.worker_respawn;
    opts.max_respawns = config_.worker_max_respawns;
    opts.listen_address = config_.listen_address;
    sampler_ = std::make_unique<ProcSampler>(
        env_, rng_, config_.proc_workers, config_.seed, std::move(opts));
  } else {
    sampler_ = std::make_unique<VecSampler>(env_, rng_, config_.num_workers,
                                            config_.seed);
  }
  sampler_->set_stop_check(config_.stop_check);
  sampler_->set_step_deadline_ms(config_.watchdog_ms);
}

std::vector<float> HiMadrlTrainer::ActorInput(
    int k, const std::vector<float>& obs) const {
  if (!config_.share_params) return obs;
  std::vector<float> input = obs;
  for (int j = 0; j < env_.num_agents(); ++j) {
    input.push_back(j == k ? 1.0f : 0.0f);
  }
  return input;
}

std::vector<float> HiMadrlTrainer::CriticInput(
    int k, const std::vector<float>& obs,
    const std::vector<float>& state) const {
  std::vector<float> input = StateCritic() ? state : obs;
  if (config_.share_params) {
    for (int j = 0; j < env_.num_agents(); ++j) {
      input.push_back(j == k ? 1.0f : 0.0f);
    }
  }
  return input;
}

bool HiMadrlTrainer::CollectForwardsInLanes() const {
  switch (g_forward_placement.load()) {
    case internal::ForwardPlacement::kCaller: return false;
    case internal::ForwardPlacement::kLanes: return true;
    case internal::ForwardPlacement::kBySize: break;
  }
  // The lanes spread the forwards over the cores the workers leave idle
  // while actions are chosen, and each core's L2 then holds one agent's
  // weights; below the crossover the pool handoff costs more than the
  // forward. Lanes over the calling thread in bench_rollout_throughput
  // (T = 100, 2 UAVs + 2 UGVs, one worker, 4-core AVX-512 host), by
  // first-layer bytes: 78 KiB 0.67x, 156 KiB 0.67-0.86x, 228 KiB
  // 0.86-1.00x, 266 KiB 1.06x, 303 KiB 1.17x, 378 KiB 1.21x, 753 KiB
  // 1.83-2.31x. With 2-8 workers the lanes gain 35-80% at 753 KiB and are
  // within 0.94-1.19x below 160 KiB.
  return ActorFirstLayerBytes() >= kLaneForwardBytes;
}

size_t HiMadrlTrainer::ActorFirstLayerBytes() const {
  const nn::Tensor& w =
      Nets(0).actor->mean_net().layers().front().weight().value();
  return static_cast<size_t>(w.size()) * sizeof(float);
}

void HiMadrlTrainer::BatchAct(
    const std::vector<const std::vector<std::vector<float>>*>& obs,
    const std::vector<util::Rng*>& rngs,
    std::vector<std::vector<std::array<float, 2>>>& actions_out,
    std::vector<std::vector<float>>& logps_out) {
  constexpr int kDims = env::ScEnv::kActionDim;
  static_assert(kDims == 2, "BatchActFn carries 2-D actions");
  const int num_agents = env_.num_agents();
  const int rows = static_cast<int>(obs.size());
  // Agent k's means fill means[k * rows * kDims, (k + 1) * rows * kDims).
  // Each forward is Mlp::Infer, bit-identical to the graph forward, and
  // writes only its own agent's slice, so where it runs changes no bit.
  std::vector<float> means(static_cast<size_t>(num_agents) * rows * kDims);
  const auto forward = [&](int k) {
    nn::Tensor batch(rows, actor_input_dim_);
    for (int r = 0; r < rows; ++r) {
      const std::vector<float>& o = (*obs[r])[k];
      float* dst = batch.data() + static_cast<size_t>(r) * actor_input_dim_;
      std::copy(o.begin(), o.end(), dst);
      // ActorInput's one-hot agent id under share_params.
      if (config_.share_params) dst[o.size() + k] = 1.0f;
    }
    const nn::Tensor mean = Nets(k).actor->mean_net().Infer(batch);
    std::copy(mean.data(), mean.data() + mean.size(),
              means.data() + static_cast<size_t>(k) * rows * kDims);
  };
  if (CollectForwardsInLanes()) {
    RunOptimizeTasks(num_agents, forward);
  } else {
    for (int k = 0; k < num_agents; ++k) forward(k);
  }
  // Noise and log-probabilities stay on this thread, agent then row, row r
  // drawing from its worker's stream: the draws DiagGaussian::SamplePerRow
  // made per agent, without a graph.
  for (int k = 0; k < num_agents; ++k) {
    const float* log_std = Nets(k).actor->log_std().value().data();
    for (int r = 0; r < rows; ++r) {
      const float* mean =
          means.data() + (static_cast<size_t>(k) * rows + r) * kDims;
      float* action = actions_out[k][r].data();
      nn::SampleDiagGaussianRow(mean, log_std, kDims, *rngs[r], action);
      logps_out[k][r] =
          nn::DiagGaussianRowLogProb(mean, log_std, action, kDims);
    }
  }
}

void HiMadrlTrainer::CollectRollouts() {
  buffer_.Clear();
  rollout_metrics_.clear();
  sampler_->Collect(config_.episodes_per_iteration,
                    std::bind_front(&HiMadrlTrainer::BatchAct, this), buffer_,
                    rollout_metrics_);
  total_env_steps_ += static_cast<long>(config_.episodes_per_iteration) *
                      env_.config().num_timeslots * env_.num_agents();
}

float HiMadrlTrainer::CurrentOmegaIn() const {
  if (!config_.use_eoi) return 0.0f;
  if (config_.omega_in_final < 0.0f || config_.iterations <= 1) {
    return config_.omega_in;
  }
  const float progress = std::min(
      1.0f, static_cast<float>(iteration_) /
                static_cast<float>(config_.iterations - 1));
  return config_.omega_in +
         (config_.omega_in_final - config_.omega_in) * progress;
}

float HiMadrlTrainer::UpdateEoiAndRewards() {
  const int num_agents = env_.num_agents();
  const size_t n = buffer_.size();
  float eoi_loss = 0.0f;

  // Line 12: train the identity classifier on this iteration's buffer.
  if (config_.use_eoi) {
    std::vector<const std::vector<std::vector<float>>*> per_agent;
    per_agent.reserve(num_agents);
    for (int k = 0; k < num_agents; ++k) {
      per_agent.push_back(&buffer_.agents[k].obs);
    }
    eoi_loss = eoi_->Update(per_agent, rng_);
  }

  // Compound reward r^k = r_ext + omega_in * p_mu(k|o) (Eqn. 19, Line 16).
  const float omega_in = CurrentOmegaIn();
  for (int k = 0; k < num_agents; ++k) {
    AgentRollout& r = buffer_.agents[k];
    if (config_.use_eoi) {
      r.reward_int = eoi_->IntrinsicRewards(k, r.obs);
    } else {
      r.reward_int.assign(n, 0.0f);
    }
    r.reward.resize(n);
    for (size_t i = 0; i < n; ++i) {
      r.reward[i] = r.reward_ext[i] + omega_in * r.reward_int[i];
    }
  }

  // r_all (Eqn. 29) and the neighbor mean rewards (Eqn. 23). The neighbor
  // rewards are appended below, so clear any previous pass first — this
  // makes the update idempotent over one buffer (a repeated call, e.g. from
  // OptimizeOnCurrentBuffer in bench_micro_nn, must not grow the arrays).
  for (int k = 0; k < num_agents; ++k) {
    buffer_.agents[k].reward_he.clear();
    buffer_.agents[k].reward_ho.clear();
  }
  buffer_.reward_all.assign(n, 0.0f);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> rewards_at(num_agents);
    for (int k = 0; k < num_agents; ++k) {
      rewards_at[k] = buffer_.agents[k].reward[i];
      buffer_.reward_all[i] += buffer_.agents[k].reward[i];
    }
    for (int k = 0; k < num_agents; ++k) {
      AgentRollout& r = buffer_.agents[k];
      if (config_.hetero_copo) {
        r.reward_he.push_back(static_cast<float>(
            NeighborMeanReward(r.he_neighbors[i], rewards_at)));
        r.reward_ho.push_back(static_cast<float>(
            NeighborMeanReward(r.ho_neighbors[i], rewards_at)));
      } else {
        // Plain CoPO: one merged neighbor set (stored in the HE slot).
        std::vector<int> merged = r.he_neighbors[i];
        merged.insert(merged.end(), r.ho_neighbors[i].begin(),
                      r.ho_neighbors[i].end());
        std::sort(merged.begin(), merged.end());
        merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
        r.reward_he.push_back(
            static_cast<float>(NeighborMeanReward(merged, rewards_at)));
        r.reward_ho.push_back(0.0f);
      }
    }
  }
  return eoi_loss;
}

void HiMadrlTrainer::SnapshotOldPolicies() {
  for (AgentNets& n : nets_) {
    std::vector<nn::Variable> src = n.actor->Parameters();
    std::vector<nn::Variable> dst = n.actor_old->Parameters();
    nn::CopyParameters(src, dst);
  }
}

namespace {

/// Computes (normalized) one-step or GAE advantages for a reward stream.
AdvantageResult StreamAdvantages(const std::vector<float>& rewards,
                                 const std::vector<float>& values,
                                 const std::vector<float>& next_values,
                                 const std::vector<uint8_t>& dones,
                                 const TrainConfig& config, bool normalize) {
  AdvantageResult adv =
      config.gae_lambda < 0.0f
          ? OneStepAdvantages(rewards, values, next_values, dones,
                              config.gamma)
          : GaeAdvantages(rewards, values, next_values, dones, config.gamma,
                          config.gae_lambda);
  if (normalize) NormalizeInPlace(adv.advantages);
  return adv;
}

/// Advantages of one reward stream under critic `net` from a single critic
/// pass over the stream's own input rows: successor values come from that
/// pass (SuccessorValues), and only the `fallback` rows run the critic on
/// their next input, `next_input(t)`.
AdvantageResult CriticAdvantages(
    const ValueNet& net, const std::vector<std::vector<float>>& inputs,
    const std::vector<float>& rewards, const std::vector<uint8_t>& dones,
    const std::vector<int>& fallback,
    const std::function<std::vector<float>(int)>& next_input,
    const TrainConfig& config, bool normalize) {
  const std::vector<float> values = net.Values(inputs);
  std::vector<std::vector<float>> next_rows;
  for (int t : fallback) next_rows.push_back(next_input(t));
  const std::vector<float> next_values =
      SuccessorValues(values, dones, fallback, net.Values(next_rows));
  return StreamAdvantages(rewards, values, next_values, dones, config,
                          normalize);
}

/// Elementwise dot product of two gradient snapshots.
double GradDot(const std::vector<nn::Tensor>& a,
               const std::vector<nn::Tensor>& b) {
  double dot = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    for (int j = 0; j < a[i].size(); ++j) {
      dot += static_cast<double>(a[i][j]) * b[i][j];
    }
  }
  return dot;
}

double GradNorm(const std::vector<nn::Tensor>& a) {
  double sq = 0.0;
  for (const nn::Tensor& t : a) {
    for (int j = 0; j < t.size(); ++j) {
      sq += static_cast<double>(t[j]) * t[j];
    }
  }
  return std::sqrt(sq);
}

std::vector<nn::Tensor> SnapshotGrads(std::vector<nn::Variable> params) {
  std::vector<nn::Tensor> out;
  out.reserve(params.size());
  for (nn::Variable& p : params) out.push_back(p.grad());
  return out;
}

void ZeroGrads(std::vector<nn::Variable> params) {
  for (nn::Variable& p : params) p.ZeroGrad();
}

}  // namespace

HiMadrlTrainer::OptimizeInputs HiMadrlTrainer::BuildOptimizeInputs() const {
  const int num_agents = env_.num_agents();
  const size_t n = buffer_.size();
  OptimizeInputs in;
  in.actor.resize(num_agents);
  in.critic.resize(num_agents);
  in.obs_fallback.resize(num_agents);
  for (int k = 0; k < num_agents; ++k) {
    const AgentRollout& r = buffer_.agents[k];
    in.actor[k].reserve(n);
    for (size_t i = 0; i < n; ++i) {
      in.actor[k].push_back(ActorInput(k, r.obs[i]));
    }
    if (StateCritic()) {
      in.critic[k].reserve(n);
      for (size_t i = 0; i < n; ++i) {
        in.critic[k].push_back(CriticInput(k, r.obs[i], buffer_.states[i]));
      }
    }
    in.obs_fallback[k] = SuccessorFallbackRows(r.obs, r.next_obs, r.done);
  }
  in.state_fallback = SuccessorFallbackRows(
      buffer_.states, buffer_.next_states, buffer_.done);
  return in;
}

HiMadrlTrainer::AgentAdvantages HiMadrlTrainer::AdvantagesOf(
    int k, const OptimizeInputs& in) const {
  const AgentNets& nets = Nets(k);
  const AgentRollout& r = buffer_.agents[k];
  AgentAdvantages adv;
  adv.k = CriticAdvantages(
      *nets.value, CriticRows(in, k), r.reward, r.done,
      StateCritic() ? in.state_fallback : in.obs_fallback[k],
      [&](int t) {
        return CriticInput(k, r.next_obs[t], buffer_.next_states[t]);
      },
      config_, true);
  if (config_.use_copo) {
    auto next_actor_input = [&](int t) { return ActorInput(k, r.next_obs[t]); };
    adv.he = CriticAdvantages(*nets.value_he, in.actor[k], r.reward_he, r.done,
                              in.obs_fallback[k], next_actor_input, config_,
                              true);
    adv.ho = CriticAdvantages(*nets.value_ho, in.actor[k], r.reward_ho, r.done,
                              in.obs_fallback[k], next_actor_input, config_,
                              true);
  }
  return adv;
}

AdvantageResult HiMadrlTrainer::OverallAdvantages(const OptimizeInputs& in,
                                                  bool normalize) const {
  return CriticAdvantages(
      *value_all_, buffer_.states, buffer_.reward_all, buffer_.done,
      in.state_fallback, [&](int t) { return buffer_.next_states[t]; },
      config_, normalize);
}

HiMadrlTrainer::EpochStats HiMadrlTrainer::AgentPolicyEpoch(
    int k, const OptimizeInputs& in, const EpochDraws& draws) {
  AgentNets& nets = Nets(k);
  const AgentRollout& r = buffer_.agents[k];
  const size_t n = buffer_.size();
  EpochStats out;

  // Value predictions (no grad) and advantage streams (Eqn. 24).
  const AgentAdvantages adv = AdvantagesOf(k, in);

  // Cooperation-aware advantage A_CO (Eqn. 27) or the base advantage.
  std::vector<float> a_co(n);
  for (size_t i = 0; i < n; ++i) {
    if (!config_.use_copo) {
      a_co[i] = adv.k.advantages[i];
    } else if (config_.hetero_copo) {
      a_co[i] = static_cast<float>(
          CoopAdvantage(adv.k.advantages[i], adv.he.advantages[i],
                        adv.ho.advantages[i], lcfs_[k]));
    } else {
      a_co[i] = static_cast<float>(CoopAdvantagePlain(
          adv.k.advantages[i], adv.he.advantages[i], lcfs_[k]));
    }
  }

  // Divergence guard: "last good" snapshots to roll back to when a
  // minibatch produces a non-finite loss, gradient, or parameter.
  std::vector<nn::Variable> actor_params = nets.actor->Parameters();
  std::vector<nn::Variable> value_params(nets.value_opt->params());
  std::vector<nn::Tensor> actor_good, value_good;
  if (config_.divergence_guard) {
    actor_good = nn::SnapshotParameters(actor_params);
    value_good = nn::SnapshotParameters(value_params);
  }

  for (size_t b = 0; b < draws.batches.size(); ++b) {
    const std::vector<int>& batch = draws.batches[b];
    // One constant input node for the minibatch, read by the actor and by
    // every critic whose input rows are the actor's.
    const nn::Variable obs_b =
        nn::Variable::Constant(PackBatch(in.actor[k], batch));

    // --- Actor: maximize J_CO (Eqn. 28) + entropy bonus. ---
    float actor_loss_val = 0.0f;
    {
      const nn::Tensor act_b = r.ActionBatch(batch);
      std::vector<float> logp_old_b(batch.size()), a_co_b(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        logp_old_b[i] = r.logp_old[batch[i]];
        a_co_b[i] = a_co[batch[i]];
      }
      nn::DiagGaussian dist = nets.actor->Dist(obs_b);
      nn::Variable logp = dist.LogProb(act_b);
      nn::Variable surrogate =
          PpoSurrogate(logp, logp_old_b, a_co_b, config_.clip);
      // -(surrogate + c*H); one fused node instead of Sub(Neg, ScalarMul),
      // bit-exact: negation distributes exactly over the rounded sum.
      nn::Variable actor_loss = nn::Neg(
          nn::AddScaled(surrogate, dist.Entropy(), config_.entropy_coef));
      actor_loss_val = draws.poison[b]
                           ? std::numeric_limits<float>::quiet_NaN()
                           : actor_loss.value()(0, 0);
      nets.actor_opt->ZeroGrad();
      actor_loss.Backward();
    }  // The graph ends with its Backward, before the next one is built.
    const float norm = nn::ClipGradNorm(actor_params, config_.max_grad_norm);
    if (config_.divergence_guard &&
        (!std::isfinite(actor_loss_val) || !std::isfinite(norm))) {
      // Poisoned minibatch: discard it entirely (actor and critics).
      nn::RestoreParameters(actor_good, actor_params);
      ++out.anomalies;
      continue;
    }
    out.grad_norms.push_back(norm);
    nets.actor_opt->Step();
    if (config_.divergence_guard) {
      if (!AllFinite(actor_params)) {
        nn::RestoreParameters(actor_good, actor_params);
        ++out.anomalies;
        continue;
      }
      actor_good = nn::SnapshotParameters(actor_params);
    }

    // --- Critics: Eqn. (26) TD regression for V^k, V_HE, V_HO. ---
    // Each loss's graph ends with its Backward.
    auto critic_loss = [&](const ValueNet& net, const nn::Variable& input,
                           const AdvantageResult& target) {
      nn::Tensor t(static_cast<int>(batch.size()), 1);
      for (size_t i = 0; i < batch.size(); ++i) {
        t(static_cast<int>(i), 0) = target.returns[batch[i]];
      }
      nn::Variable loss = nn::MseLoss(net.Forward(input), t);
      loss.Backward();
      return loss.value()(0, 0);
    };
    nets.value_opt->ZeroGrad();
    const nn::Variable critic_b =
        StateCritic() ? nn::Variable::Constant(PackBatch(in.critic[k], batch))
                      : obs_b;
    const float v_loss_val = critic_loss(*nets.value, critic_b, adv.k);
    float aux_loss_val = 0.0f;
    if (config_.use_copo) {
      const float he_loss_val = critic_loss(*nets.value_he, obs_b, adv.he);
      aux_loss_val = he_loss_val + critic_loss(*nets.value_ho, obs_b, adv.ho);
    }
    if (config_.divergence_guard &&
        (!std::isfinite(v_loss_val) || !std::isfinite(aux_loss_val))) {
      ++out.anomalies;
      continue;  // Params untouched: no step was taken.
    }
    out.value_losses.push_back(v_loss_val);
    nets.value_opt->Step();
    if (config_.divergence_guard) {
      if (!AllFinite(value_params)) {
        nn::RestoreParameters(value_good, value_params);
        ++out.anomalies;
        continue;
      }
      value_good = nn::SnapshotParameters(value_params);
    }
  }
  return out;
}

int HiMadrlTrainer::OverallValueEpoch(const OptimizeInputs& in,
                                      const Minibatches& batches) {
  int anomalies = 0;
  const AdvantageResult adv_all = OverallAdvantages(in, false);
  for (const std::vector<int>& batch : batches) {
    nn::Tensor target(static_cast<int>(batch.size()), 1);
    for (size_t i = 0; i < batch.size(); ++i) {
      target(static_cast<int>(i), 0) = adv_all.returns[batch[i]];
    }
    value_all_opt_->ZeroGrad();
    float loss_val = 0.0f;
    {
      nn::Variable all_loss = nn::MseLoss(
          value_all_->Forward(
              nn::Variable::Constant(buffer_.StateBatch(batch))),
          target);
      all_loss.Backward();
      loss_val = all_loss.value()(0, 0);
    }
    if (config_.divergence_guard && !std::isfinite(loss_val)) {
      ++anomalies;
      continue;  // Skip the poisoned minibatch; no step was taken.
    }
    value_all_opt_->Step();
  }
  return anomalies;
}

void HiMadrlTrainer::RunOptimizeTasks(
    int count, const std::function<void(int)>& task) {
  if (!optimize_pool_) {
    // Created by the first optimize phase or large collect, so a trainer
    // that does neither (a serving staging trainer, a small rollout-only
    // run) starts no threads. One lane per CPU the process may run on, up
    // to PolicyUpdate's task count; the calling thread runs one lane itself.
    const int m1_tasks = AgentGroups() + (config_.use_copo ? 1 : 0);
    optimize_pool_ = std::make_unique<util::ThreadPool>(
        std::min(util::AvailableCpus(), m1_tasks) - 1);
  }
  optimize_pool_->ParallelForStriped(count, task);
}

std::pair<float, float> HiMadrlTrainer::PolicyUpdate(
    const OptimizeInputs& in) {
  const int num_agents = env_.num_agents();
  const int epochs = config_.policy_epochs;
  const size_t n = buffer_.size();

  // Every draw from a shared stream, in the serial order of Algorithm 1
  // (epoch, then agent, then V_all): the minibatch shuffles from rng_, and
  // the fault injector's decision for each actor loss.
  std::vector<std::vector<EpochDraws>> draws(
      epochs, std::vector<EpochDraws>(num_agents));
  std::vector<Minibatches> all_batches(epochs);
  for (int e = 0; e < epochs; ++e) {
    for (EpochDraws& d : draws[e]) {
      d.batches = MakeMinibatches(n, config_.minibatch, rng_);
      for (size_t b = 0; b < d.batches.size(); ++b) {
        d.poison.push_back(util::FaultInjector::Instance().PoisonLossNow());
      }
    }
    if (config_.use_copo) {
      all_batches[e] = MakeMinibatches(n, config_.minibatch, rng_);
    }
  }

  // One task per agent group over all of its epochs, and one for V_all.
  const int groups = AgentGroups();
  std::vector<std::vector<EpochStats>> stats(
      epochs, std::vector<EpochStats>(num_agents));
  int all_anomalies = 0;
  RunOptimizeTasks(groups + (config_.use_copo ? 1 : 0), [&](int task) {
    if (task == groups) {
      for (int e = 0; e < epochs; ++e) {
        all_anomalies += OverallValueEpoch(in, all_batches[e]);
      }
      return;
    }
    const auto [first, last] = GroupAgents(task);
    for (int e = 0; e < epochs; ++e) {
      for (int k = first; k < last; ++k) {
        stats[e][k] = AgentPolicyEpoch(k, in, draws[e][k]);
      }
    }
  });

  // Reduce in the serial order (epoch, agent, minibatch), so the double
  // sums round exactly as they would in one thread.
  double grad_norm_sum = 0.0, value_loss_sum = 0.0;
  long grad_norm_count = 0, value_loss_count = 0;
  for (const std::vector<EpochStats>& epoch : stats) {
    for (const EpochStats& s : epoch) {
      for (float norm : s.grad_norms) grad_norm_sum += norm;
      for (float loss : s.value_losses) value_loss_sum += loss;
      grad_norm_count += static_cast<long>(s.grad_norms.size());
      value_loss_count += static_cast<long>(s.value_losses.size());
      iter_anomalies_ += s.anomalies;
    }
  }
  iter_anomalies_ += all_anomalies;
  return {grad_norm_count > 0
              ? static_cast<float>(grad_norm_sum / grad_norm_count)
              : 0.0f,
          value_loss_count > 0
              ? static_cast<float>(value_loss_sum / value_loss_count)
              : 0.0f};
}

int HiMadrlTrainer::AgentLcfEpoch(int k, const OptimizeInputs& in,
                                  const AgentAdvantages& adv,
                                  const AdvantageResult& adv_all,
                                  const Minibatches& batches) {
  AgentNets& nets = Nets(k);
  const AgentRollout& r = buffer_.agents[k];
  int anomalies = 0;
  for (const std::vector<int>& batch : batches) {
    const nn::Variable obs_b =
        nn::Variable::Constant(PackBatch(in.actor[k], batch));
    const nn::Tensor act_b = r.ActionBatch(batch);
    std::vector<float> logp_old_b(batch.size()), adv_all_b(batch.size());
    nn::Tensor w_phi(static_cast<int>(batch.size()), 1);
    nn::Tensor w_chi(static_cast<int>(batch.size()), 1);
    for (size_t i = 0; i < batch.size(); ++i) {
      const int idx = batch[i];
      logp_old_b[i] = r.logp_old[idx];
      adv_all_b[i] = adv_all.advantages[idx];
      if (config_.hetero_copo) {
        w_phi(static_cast<int>(i), 0) = static_cast<float>(
            CoopAdvantageDPhi(adv.k.advantages[idx], adv.he.advantages[idx],
                              adv.ho.advantages[idx], lcfs_[k]));
        w_chi(static_cast<int>(i), 0) = static_cast<float>(
            CoopAdvantageDChi(adv.k.advantages[idx], adv.he.advantages[idx],
                              adv.ho.advantages[idx], lcfs_[k]));
      } else {
        w_phi(static_cast<int>(i), 0) = static_cast<float>(
            CoopAdvantagePlainDPhi(adv.k.advantages[idx],
                                   adv.he.advantages[idx], lcfs_[k]));
        w_chi(static_cast<int>(i), 0) = 0.0f;
      }
    }

    // First factor of Eqn. (30): grad of J_all w.r.t. theta_new (Eqn. 31)
    // via the clipped surrogate with A_all.
    {
      nn::DiagGaussian dist_new = nets.actor->Dist(obs_b);
      nn::Variable j_all = PpoSurrogate(dist_new.LogProb(act_b), logp_old_b,
                                        adv_all_b, config_.clip);
      ZeroGrads(nets.actor->Parameters());
      j_all.Backward();
    }
    const std::vector<nn::Tensor> g_all =
        SnapshotGrads(nets.actor->Parameters());

    // Second factor (Eqn. 32): alpha * E[grad_theta_old log pi *
    // dA_CO/dLCF], evaluated on the frozen behavior policy.
    auto lcf_grad = [&](const nn::Tensor& weights) {
      {
        nn::DiagGaussian dist_old = nets.actor_old->Dist(obs_b);
        nn::Variable weighted =
            nn::Mean(nn::Mul(dist_old.LogProb(act_b),
                             nn::Variable::Constant(weights)));
        ZeroGrads(nets.actor_old->Parameters());
        weighted.Backward();
      }
      return SnapshotGrads(nets.actor_old->Parameters());
    };
    const std::vector<nn::Tensor> g_phi = lcf_grad(w_phi);
    const double norm_all = GradNorm(g_all);
    const double norm_phi = GradNorm(g_phi);
    // Normalized meta-gradient (cosine form) for numerical robustness;
    // the sign and relative magnitude follow Eqn. (30).
    const double dot_phi =
        GradDot(g_all, g_phi) / (norm_all * norm_phi + 1e-12);
    double step_phi = config_.lcf_lr * dot_phi * kRadToDeg *
                      static_cast<double>(config_.actor_lr);
    step_phi = std::clamp(step_phi,
                          -static_cast<double>(config_.max_lcf_step_deg),
                          static_cast<double>(config_.max_lcf_step_deg));
    if (config_.divergence_guard && !std::isfinite(step_phi)) {
      ++anomalies;
    } else {
      lcfs_[k].phi_deg += step_phi;
    }
    if (config_.hetero_copo) {
      const std::vector<nn::Tensor> g_chi = lcf_grad(w_chi);
      const double norm_chi = GradNorm(g_chi);
      const double dot_chi =
          GradDot(g_all, g_chi) / (norm_all * norm_chi + 1e-12);
      double step_chi = config_.lcf_lr * dot_chi * kRadToDeg *
                        static_cast<double>(config_.actor_lr);
      step_chi = std::clamp(step_chi,
                            -static_cast<double>(config_.max_lcf_step_deg),
                            static_cast<double>(config_.max_lcf_step_deg));
      if (config_.divergence_guard && !std::isfinite(step_chi)) {
        ++anomalies;
      } else {
        lcfs_[k].chi_deg += step_chi;
      }
    }
    lcfs_[k].ClampToRange();
  }
  return anomalies;
}

void HiMadrlTrainer::LcfUpdate(const OptimizeInputs& in) {
  if (!config_.use_copo || config_.lcf_epochs <= 0) return;
  const int num_agents = env_.num_agents();
  const size_t n = buffer_.size();

  // Shuffles from rng_ in the serial order: epoch, then agent.
  std::vector<std::vector<Minibatches>> batches(
      config_.lcf_epochs, std::vector<Minibatches>(num_agents));
  for (std::vector<Minibatches>& epoch : batches) {
    for (Minibatches& agent : epoch) {
      agent = MakeMinibatches(n, config_.minibatch, rng_);
    }
  }

  // The meta-update changes neither the critics nor the rewards, so the
  // overall advantage A_all (Eqn. 31) and each agent's streams (for
  // dA_CO/d(phi,chi)) are computed once for all lcf_epochs.
  const AdvantageResult adv_all = OverallAdvantages(in, true);
  const int groups = AgentGroups();
  std::vector<int> anomalies(static_cast<size_t>(groups), 0);
  RunOptimizeTasks(groups, [&](int g) {
    const auto [first, last] = GroupAgents(g);
    std::vector<AgentAdvantages> agent_adv;
    for (int k = first; k < last; ++k) {
      agent_adv.push_back(AdvantagesOf(k, in));
    }
    for (const std::vector<Minibatches>& epoch : batches) {
      for (int k = first; k < last; ++k) {
        anomalies[g] += AgentLcfEpoch(k, in, agent_adv[k - first], adv_all,
                                      epoch[k]);
      }
    }
  });
  for (int a : anomalies) iter_anomalies_ += a;
}

void HiMadrlTrainer::Optimize(IterationStats& stats) {
  stats.eoi_loss = UpdateEoiAndRewards();
  SnapshotOldPolicies();
  const OptimizeInputs inputs = BuildOptimizeInputs();
  const auto [grad_norm, value_loss] = PolicyUpdate(inputs);
  stats.actor_grad_norm = grad_norm;
  stats.value_loss = value_loss;
  LcfUpdate(inputs);
}

void HiMadrlTrainer::OptimizeOnCurrentBuffer() {
  IterationStats unused;
  Optimize(unused);
}

IterationStats HiMadrlTrainer::TrainIteration() {
  IterationStats stats;
  stats.iteration = iteration_;

  if (config_.oracle_check_every > 0 &&
      iteration_ % config_.oracle_check_every == 0) {
    RunOracleChecks();
  }

  iter_anomalies_ = 0;
  CollectRollouts();
  Optimize(stats);

  stats.anomalies = iter_anomalies_;
  anomaly_streak_ = iter_anomalies_ > 0 ? anomaly_streak_ + 1 : 0;
  stats.lr_backoff = MaybeBackoffLearningRates();
  if (stats.anomalies > 0) {
    AGSC_LOG(kWarning) << "iter " << iteration_ << ": divergence guard "
                       << "caught " << stats.anomalies
                       << " non-finite update(s); rolled back and skipped "
                       << "the poisoned minibatches (streak="
                       << anomaly_streak_ << ")";
  }

  stats.rollout_metrics = env::Metrics::Average(rollout_metrics_);
  double ext_sum = 0.0, int_sum = 0.0;
  long count = 0;
  for (const AgentRollout& r : buffer_.agents) {
    for (size_t i = 0; i < r.size(); ++i) {
      ext_sum += r.reward_ext[i];
      int_sum += r.reward_int[i];
      ++count;
    }
  }
  stats.mean_reward_ext =
      count > 0 ? static_cast<float>(ext_sum / count) : 0.0f;
  stats.mean_reward_int =
      count > 0 ? static_cast<float>(int_sum / count) : 0.0f;
  stats.total_env_steps = total_env_steps_;
  stats.oracle_fallbacks = fallbacks_;

  if (config_.verbose) {
    AGSC_LOG(kInfo) << "iter " << iteration_ << " lambda="
                    << stats.rollout_metrics.efficiency
                    << " r_ext=" << stats.mean_reward_ext
                    << " grad=" << stats.actor_grad_norm;
  }
  ++iteration_;
  return stats;
}

bool HiMadrlTrainer::MaybeBackoffLearningRates() {
  if (!config_.divergence_guard || config_.anomaly_backoff_after <= 0 ||
      anomaly_streak_ < config_.anomaly_backoff_after) {
    return false;
  }
  if (config_.max_lr_backoffs > 0 &&
      lr_backoff_count_ >= config_.max_lr_backoffs) {
    throw TrainingDiverged(
        "divergence guard: updates still non-finite after " +
        std::to_string(lr_backoff_count_) +
        " learning-rate backoff(s); giving up at iteration " +
        std::to_string(iteration_));
  }
  ++lr_backoff_count_;
  const float factor = config_.lr_backoff_factor;
  config_.actor_lr *= factor;
  config_.critic_lr *= factor;
  for (AgentNets& n : nets_) {
    n.actor_opt->set_lr(n.actor_opt->lr() * factor);
    n.value_opt->set_lr(n.value_opt->lr() * factor);
  }
  if (value_all_opt_) {
    value_all_opt_->set_lr(value_all_opt_->lr() * factor);
  }
  anomaly_streak_ = 0;
  AGSC_LOG(kWarning) << "divergence guard: " << config_.anomaly_backoff_after
                     << " consecutive anomalous iterations; halving learning "
                     << "rates (actor_lr=" << config_.actor_lr
                     << ", critic_lr=" << config_.critic_lr << ")";
  return true;
}

void HiMadrlTrainer::RunOracleChecks() {
  for (const OraclePair& pair : kOraclePairs) {
    if ((fallbacks_ & pair.bit) != 0) continue;
    const OracleCheckResult check = pair.check(env_);
    if (check.ok) continue;
    fallbacks_ |= pair.bit;
    AGSC_LOG(kError) << "oracle guard: the " << pair.name
                     << " self-check failed (" << check.detail
                     << "); permanently falling back to " << pair.reference;
  }
  ApplyOracleFallbacks();
}

void HiMadrlTrainer::ApplyOracleFallbacks() {
  // The sampler downgrades the primary env and every rollout replica, and
  // carries the bits to subprocess workers (respawned ones included).
  sampler_->AddFallbacks(fallbacks_);
  if ((fallbacks_ & kFallbackGemm) != 0) {
    nn::KernelConfig kernel_config = nn::GetKernelConfig();
    kernel_config.gemm = nn::GemmKernel::kNaive;
    nn::SetKernelConfig(kernel_config);
  }
}

std::vector<IterationStats> HiMadrlTrainer::Train(int iterations) {
  const int total = iterations >= 0 ? iterations : config_.iterations;
  const bool auto_checkpoint =
      !config_.checkpoint_dir.empty() && config_.checkpoint_every > 0;
  std::vector<IterationStats> all;
  all.reserve(total);
  try {
    for (int i = 0; i < total; ++i) {
      if (config_.stop_check && config_.stop_check()) {
        throw util::InterruptedError(
            "stop requested at iteration boundary " +
            std::to_string(iteration_));
      }
      all.push_back(TrainIteration());
      stats_history_.push_back(all.back());
      if (auto_checkpoint && (iteration_ % config_.checkpoint_every == 0 ||
                              i + 1 == total)) {
        WriteAutoCheckpoint();
      }
    }
  } catch (const util::InterruptedError&) {
    // Clean cooperative stop: persist where we got to, then let the caller
    // decide (the CLI maps this to the signal-stop exit code).
    FlushFinalCheckpoint();
    throw;
  } catch (const TrainingDiverged&) {
    // The flushed state is the last completed iteration — the run can be
    // resumed with different hyperparameters from there.
    FlushFinalCheckpoint();
    throw;
  } catch (const ProcWorkerError&) {
    // The worker fleet is broken but the trainer's own state sits at a
    // consistent boundary (the failed collect's partial buffers were
    // discarded with the throw), so the run is resumable.
    FlushFinalCheckpoint();
    throw;
  }
  // Deliberately NOT flushed on util::WatchdogTimeoutError: a hung worker
  // may still be mutating environment state concurrently, so a checkpoint
  // written here could be torn. The watchdog path is fail-fast.
  return all;
}

void HiMadrlTrainer::FlushFinalCheckpoint() {
  if (config_.checkpoint_dir.empty()) return;
  // Don't overwrite a clean iteration-boundary checkpoint with one carrying
  // identical counters: if the current iteration already has a file on
  // disk, keep it.
  if (last_checkpoint_iter_ == iteration_) return;
  WriteAutoCheckpoint();
}

std::vector<IterationStats> HiMadrlTrainer::TrainTo(int total_iterations) {
  return Train(std::max(0, total_iterations - iteration_));
}

env::UvAction HiMadrlTrainer::Act(const env::ScEnv& env, int k,
                                  const std::vector<float>& obs,
                                  util::Rng& rng, bool deterministic) {
  (void)env;
  const std::vector<float> action =
      Nets(k).actor->Act(ActorInput(k, obs), rng, deterministic, nullptr);
  return {action[0], action[1]};
}

namespace {

/// All persistent parameters in a stable order, with the LCF angles packed
/// into one trailing Kx2 tensor (phi, chi rows).
std::vector<nn::Variable> CheckpointVars(
    const std::vector<nn::Variable>& net_params,
    const std::vector<Lcf>& lcfs) {
  std::vector<nn::Variable> vars = net_params;
  nn::Tensor lcf_tensor(static_cast<int>(lcfs.size()), 2);
  for (size_t k = 0; k < lcfs.size(); ++k) {
    lcf_tensor(static_cast<int>(k), 0) = static_cast<float>(lcfs[k].phi_deg);
    lcf_tensor(static_cast<int>(k), 1) = static_cast<float>(lcfs[k].chi_deg);
  }
  vars.push_back(nn::Variable::Parameter(std::move(lcf_tensor)));
  return vars;
}

}  // namespace

std::vector<nn::Variable> HiMadrlTrainer::GatherNetParameters() const {
  std::vector<nn::Variable> params;
  for (const AgentNets& n : nets_) {
    for (const nn::Variable& p : n.actor->Parameters()) params.push_back(p);
    for (const nn::Variable& p : n.value->Parameters()) params.push_back(p);
    if (n.value_he) {
      for (const nn::Variable& p : n.value_he->Parameters()) {
        params.push_back(p);
      }
      for (const nn::Variable& p : n.value_ho->Parameters()) {
        params.push_back(p);
      }
    }
  }
  if (value_all_) {
    for (const nn::Variable& p : value_all_->Parameters()) {
      params.push_back(p);
    }
  }
  if (eoi_) {
    for (const nn::Variable& p : eoi_->net().Parameters()) {
      params.push_back(p);
    }
  }
  return params;
}

std::vector<nn::Adam*> HiMadrlTrainer::GatherOptimizers() {
  std::vector<nn::Adam*> opts;
  for (AgentNets& n : nets_) {
    opts.push_back(n.actor_opt.get());
    opts.push_back(n.value_opt.get());
  }
  if (value_all_opt_) opts.push_back(value_all_opt_.get());
  if (eoi_) opts.push_back(&eoi_->optimizer());
  return opts;
}

uint64_t HiMadrlTrainer::ArchitectureFingerprint() const {
  // FNV-1a over every field that determines network shapes or the
  // checkpoint layout. Checkpoints from a differently-shaped run are
  // rejected loudly instead of being poured into mismatched tensors.
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ULL;
    }
  };
  mix(static_cast<uint64_t>(env_.obs_dim()));
  mix(static_cast<uint64_t>(env_.state_dim()));
  mix(static_cast<uint64_t>(env_.num_agents()));
  mix(static_cast<uint64_t>(env_.num_uavs()));
  mix(config_.base == BaseAlgo::kMappo ? 1 : 0);
  mix(config_.share_params ? 1 : 0);
  mix(config_.centralized_critic ? 1 : 0);
  mix(config_.use_eoi ? 1 : 0);
  mix(config_.use_copo ? 1 : 0);
  mix(config_.hetero_copo ? 1 : 0);
  for (int width : config_.net.hidden) mix(static_cast<uint64_t>(width));
  if (config_.use_eoi) {
    for (int width : config_.eoi.hidden) mix(static_cast<uint64_t>(width));
  }
  mix(static_cast<uint64_t>(TotalParameterCount()));
  return h;
}

namespace {
constexpr char kSecParams[] = "params";
constexpr char kSecLcf[] = "lcf";
constexpr char kSecAdam[] = "adam";
constexpr char kSecRng[] = "rng";
constexpr char kSecCounters[] = "counters";
// Extra RNG streams of rollout workers 1..W-1 when the sampler has W > 1
// workers: first word = W, then per worker {sampling, env} states
// (kStateWords words each). Absent <=> the run had one worker.
constexpr char kSecVecRng[] = "vrng";
// counters section layout: iteration, total_env_steps, anomaly_streak,
// actor_lr bits, critic_lr bits. Files written since the supervisor layer
// carry a sixth word: the oracle-fallback bits (core/oracle_guard: spatial
// index 1, GEMM 2, channel 4) in the low byte, the learning-rate backoff
// count from bit 8. Older 5-word files load fine (no fallback, zero
// backoffs).
constexpr size_t kCounterWords = 5;
constexpr int kBackoffCountShift = 8;
}  // namespace

bool HiMadrlTrainer::SaveCheckpoint(const std::string& path) {
  nn::Checkpoint ckpt;
  ckpt.fingerprint = ArchitectureFingerprint();

  nn::CheckpointSection& params = ckpt.AddSection(kSecParams);
  params.tensors = nn::SnapshotParameters(GatherNetParameters());

  nn::CheckpointSection& lcf = ckpt.AddSection(kSecLcf);
  for (const Lcf& l : lcfs_) {
    lcf.words.push_back(DoubleBits(l.phi_deg));
    lcf.words.push_back(DoubleBits(l.chi_deg));
  }

  nn::CheckpointSection& adam = ckpt.AddSection(kSecAdam);
  for (nn::Adam* opt : GatherOptimizers()) {
    nn::Adam::State state = opt->ExportState();
    adam.words.push_back(static_cast<uint64_t>(state.step_count));
    adam.words.push_back(DoubleBits(static_cast<double>(state.lr)));
    for (nn::Tensor& t : state.m) adam.tensors.push_back(std::move(t));
    for (nn::Tensor& t : state.v) adam.tensors.push_back(std::move(t));
  }

  nn::CheckpointSection& rng = ckpt.AddSection(kSecRng);
  for (uint64_t w : rng_.SaveState()) rng.words.push_back(w);
  for (uint64_t w : env_.rng().SaveState()) rng.words.push_back(w);

  nn::CheckpointSection& counters = ckpt.AddSection(kSecCounters);
  counters.words = {static_cast<uint64_t>(iteration_),
                    static_cast<uint64_t>(total_env_steps_),
                    static_cast<uint64_t>(anomaly_streak_),
                    DoubleBits(static_cast<double>(config_.actor_lr)),
                    DoubleBits(static_cast<double>(config_.critic_lr)),
                    static_cast<uint64_t>(fallbacks_) |
                        (static_cast<uint64_t>(lr_backoff_count_)
                         << kBackoffCountShift)};

  if (sampler_->num_workers() > 1) {
    nn::CheckpointSection& vrng = ckpt.AddSection(kSecVecRng);
    vrng.words.push_back(static_cast<uint64_t>(sampler_->num_workers()));
    for (util::Rng* stream : sampler_->SplitRngs()) {
      for (uint64_t w : stream->SaveState()) vrng.words.push_back(w);
    }
  }

  // Encode once, retry only the write: transient I/O failures (injected or
  // real) are absorbed with exponential backoff before giving up.
  return util::AtomicWriteFileRetry(path, nn::EncodeCheckpoint(ckpt),
                                    config_.io_retry);
}

bool HiMadrlTrainer::LoadCheckpoint(const std::string& path) {
  if (nn::ReadFileMagic(path) == "AGSCNN01") return LoadCheckpointV1(path);
  return LoadCheckpointV2(path);
}

bool HiMadrlTrainer::LoadCheckpointForInference(const std::string& path) {
  // v1 files already carry params + LCFs only.
  if (nn::ReadFileMagic(path) == "AGSCNN01") return LoadCheckpointV1(path);
  // Optimizer/RNG/counter/vrng sections are deliberately ignored: none of
  // them affect a deterministic forward pass.
  nn::Checkpoint ckpt;
  if (!ReadCheckpoint(path, ckpt)) return false;
  RestoreNetworks(ckpt);
  return true;
}

bool HiMadrlTrainer::ReadCheckpoint(const std::string& path,
                                    nn::Checkpoint& ckpt) const {
  const nn::CheckpointError error = nn::LoadCheckpointFile(path, ckpt);
  if (error != nn::CheckpointError::kOk) {
    AGSC_LOG(kError) << "checkpoint " << path << ": "
                     << nn::CheckpointErrorString(error);
    return false;
  }
  if (ckpt.fingerprint != ArchitectureFingerprint()) {
    AGSC_LOG(kError) << "checkpoint " << path
                     << ": architecture fingerprint mismatch (file "
                     << ckpt.fingerprint << ", trainer "
                     << ArchitectureFingerprint()
                     << "); the env dims or TrainConfig differ from the run "
                     << "that saved this checkpoint";
    return false;
  }
  const nn::CheckpointSection* params_sec = ckpt.Find(kSecParams);
  const nn::CheckpointSection* lcf_sec = ckpt.Find(kSecLcf);
  if (!params_sec || !lcf_sec) {
    AGSC_LOG(kError) << "checkpoint " << path << ": missing section";
    return false;
  }
  const std::vector<nn::Variable> net_params = GatherNetParameters();
  if (params_sec->tensors.size() != net_params.size()) {
    AGSC_LOG(kError) << "checkpoint " << path << ": parameter count "
                     << params_sec->tensors.size() << " != expected "
                     << net_params.size();
    return false;
  }
  for (size_t i = 0; i < net_params.size(); ++i) {
    const nn::Tensor& have = params_sec->tensors[i];
    const nn::Tensor& want = net_params[i].value();
    if (have.rows() != want.rows() || have.cols() != want.cols()) {
      AGSC_LOG(kError) << "checkpoint " << path << ": tensor " << i
                       << " shape " << have.ShapeString() << " != expected "
                       << want.ShapeString();
      return false;
    }
  }
  if (lcf_sec->words.size() != lcfs_.size() * 2) {
    AGSC_LOG(kError) << "checkpoint " << path << ": LCF count mismatch";
    return false;
  }
  return true;
}

void HiMadrlTrainer::RestoreNetworks(const nn::Checkpoint& ckpt) {
  std::vector<nn::Variable> net_params = GatherNetParameters();
  nn::RestoreParameters(ckpt.Find(kSecParams)->tensors, net_params);
  const std::vector<uint64_t>& lcf = ckpt.Find(kSecLcf)->words;
  for (size_t k = 0; k < lcfs_.size(); ++k) {
    lcfs_[k].phi_deg = BitsToDouble(lcf[2 * k]);
    lcfs_[k].chi_deg = BitsToDouble(lcf[2 * k + 1]);
  }
  // Keep theta_old in sync so the next LCF update sees a consistent pair.
  SnapshotOldPolicies();
}

bool HiMadrlTrainer::LoadCheckpointV1(const std::string& path) {
  // Legacy flat parameter files: network params + LCFs only (no optimizer,
  // RNG, or counter state — resume from these is *not* bit-exact).
  std::vector<nn::Variable> vars =
      CheckpointVars(GatherNetParameters(), lcfs_);
  // LoadParameters writes into the tensors referenced by `vars`; the net
  // parameters alias the live networks, the trailing tensor is a staging
  // buffer for the LCFs.
  if (!nn::LoadParameters(path, vars)) return false;
  const nn::Tensor& lcf_tensor = vars.back().value();
  for (size_t k = 0; k < lcfs_.size(); ++k) {
    lcfs_[k].phi_deg = lcf_tensor(static_cast<int>(k), 0);
    lcfs_[k].chi_deg = lcf_tensor(static_cast<int>(k), 1);
  }
  // Keep theta_old in sync so the next LCF update sees a consistent pair.
  SnapshotOldPolicies();
  return true;
}

bool HiMadrlTrainer::LoadCheckpointV2(const std::string& path) {
  // Validate every section against the live architecture BEFORE mutating
  // anything, so a malformed checkpoint leaves the trainer untouched.
  nn::Checkpoint ckpt;
  if (!ReadCheckpoint(path, ckpt)) return false;
  const nn::CheckpointSection* adam_sec = ckpt.Find(kSecAdam);
  const nn::CheckpointSection* rng_sec = ckpt.Find(kSecRng);
  const nn::CheckpointSection* counters_sec = ckpt.Find(kSecCounters);
  if (!adam_sec || !rng_sec || !counters_sec) {
    AGSC_LOG(kError) << "checkpoint " << path << ": missing section";
    return false;
  }
  std::vector<nn::Adam*> opts = GatherOptimizers();
  if (adam_sec->words.size() != opts.size() * 2) {
    AGSC_LOG(kError) << "checkpoint " << path << ": optimizer count "
                     << adam_sec->words.size() / 2 << " != expected "
                     << opts.size();
    return false;
  }
  std::vector<nn::Adam::State> states(opts.size());
  size_t cursor = 0;
  for (size_t i = 0; i < opts.size(); ++i) {
    const std::vector<nn::Variable>& opt_params = opts[i]->params();
    const size_t count = opt_params.size();
    if (adam_sec->tensors.size() < cursor + 2 * count) {
      AGSC_LOG(kError) << "checkpoint " << path
                       << ": truncated optimizer state";
      return false;
    }
    nn::Adam::State& state = states[i];
    state.step_count = static_cast<long>(adam_sec->words[2 * i]);
    state.lr = static_cast<float>(BitsToDouble(adam_sec->words[2 * i + 1]));
    state.m.assign(adam_sec->tensors.begin() + cursor,
                   adam_sec->tensors.begin() + cursor + count);
    cursor += count;
    state.v.assign(adam_sec->tensors.begin() + cursor,
                   adam_sec->tensors.begin() + cursor + count);
    cursor += count;
    for (size_t j = 0; j < count; ++j) {
      const nn::Tensor& want = opt_params[j].value();
      if (state.m[j].rows() != want.rows() ||
          state.m[j].cols() != want.cols() ||
          state.v[j].rows() != want.rows() ||
          state.v[j].cols() != want.cols()) {
        AGSC_LOG(kError) << "checkpoint " << path
                         << ": optimizer moment shape mismatch";
        return false;
      }
    }
  }
  if (cursor != adam_sec->tensors.size()) {
    AGSC_LOG(kError) << "checkpoint " << path
                     << ": trailing optimizer tensors";
    return false;
  }
  if (rng_sec->words.size() != 2 * util::Rng::kStateWords ||
      counters_sec->words.size() < kCounterWords) {
    AGSC_LOG(kError) << "checkpoint " << path << ": bad RNG/counter state";
    return false;
  }
  // Worker RNG streams: a checkpoint is only bit-exact to resume with the
  // same worker count, so a mismatch is rejected loudly. Files without a
  // vrng section come from single-worker runs.
  const nn::CheckpointSection* vrng_sec = ckpt.Find(kSecVecRng);
  const uint64_t my_workers = static_cast<uint64_t>(sampler_->num_workers());
  const uint64_t file_workers =
      vrng_sec && !vrng_sec->words.empty() ? vrng_sec->words[0] : 1;
  if (file_workers != my_workers) {
    AGSC_LOG(kError) << "checkpoint " << path << ": saved with num_workers="
                     << file_workers << " but this trainer has num_workers="
                     << my_workers
                     << "; resume is only bit-exact with a matching worker "
                     << "count";
    return false;
  }
  if (vrng_sec &&
      vrng_sec->words.size() !=
          1 + 2 * util::Rng::kStateWords * (file_workers - 1)) {
    AGSC_LOG(kError) << "checkpoint " << path << ": bad worker RNG state";
    return false;
  }

  // Commit: everything validated, now restore all state atomically.
  RestoreNetworks(ckpt);
  for (size_t i = 0; i < opts.size(); ++i) {
    opts[i]->ImportState(states[i]);
  }
  std::array<uint64_t, util::Rng::kStateWords> rng_state{};
  std::copy_n(rng_sec->words.begin(), util::Rng::kStateWords,
              rng_state.begin());
  rng_.LoadState(rng_state);
  std::copy_n(rng_sec->words.begin() + util::Rng::kStateWords,
              util::Rng::kStateWords, rng_state.begin());
  env_.rng().LoadState(rng_state);
  if (vrng_sec != nullptr) {
    const std::vector<util::Rng*> streams = sampler_->SplitRngs();
    for (size_t i = 0; i < streams.size(); ++i) {
      std::copy_n(vrng_sec->words.begin() + 1 + i * util::Rng::kStateWords,
                  util::Rng::kStateWords, rng_state.begin());
      streams[i]->LoadState(rng_state);
    }
  }
  iteration_ = static_cast<int>(counters_sec->words[0]);
  total_env_steps_ = static_cast<long>(counters_sec->words[1]);
  anomaly_streak_ = static_cast<int>(counters_sec->words[2]);
  config_.actor_lr = static_cast<float>(BitsToDouble(counters_sec->words[3]));
  config_.critic_lr =
      static_cast<float>(BitsToDouble(counters_sec->words[4]));
  // Supervisor word: oracle-fallback bits + LR backoff count. A run
  // downgraded to a reference path stays downgraded across resume (the
  // optimized path already proved untrustworthy on this machine).
  const uint64_t word = counters_sec->words.size() > kCounterWords
                            ? counters_sec->words[kCounterWords]
                            : 0;
  fallbacks_ = static_cast<Fallbacks>(word & kAllFallbacks);
  lr_backoff_count_ = static_cast<int>(word >> kBackoffCountShift);
  for (const OraclePair& pair : kOraclePairs) {
    if ((fallbacks_ & pair.bit) == 0) continue;
    AGSC_LOG(kWarning) << "checkpoint " << path << ": restoring the "
                       << pair.name << " fallback to " << pair.reference;
  }
  ApplyOracleFallbacks();
  return true;
}

bool HiMadrlTrainer::LoadLatestCheckpoint(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<fs::path> candidates = ListCheckpointFiles(dir, ec);
  if (ec) {
    AGSC_LOG(kError) << "checkpoint dir " << dir << ": " << ec.message();
    return false;
  }
  std::reverse(candidates.begin(), candidates.end());  // Newest first.
  // Honor the `latest` pointer when it names an existing candidate.
  std::ifstream latest_in(fs::path(dir) / "latest");
  std::string latest_name;
  if (latest_in && std::getline(latest_in, latest_name)) {
    auto it = std::find(candidates.begin(), candidates.end(),
                        fs::path(dir) / latest_name);
    if (it != candidates.end()) std::rotate(candidates.begin(), it, it + 1);
  }
  for (const fs::path& path : candidates) {
    if (LoadCheckpoint(path.string())) {
      AGSC_LOG(kInfo) << "resumed from checkpoint " << path.string()
                      << " (iteration " << iteration_ << ")";
      return true;
    }
    AGSC_LOG(kWarning) << "checkpoint " << path.string()
                       << " failed validation; falling back to an older one";
  }
  AGSC_LOG(kError) << "no loadable checkpoint in " << dir;
  return false;
}

std::vector<std::filesystem::path> ListCheckpointFiles(const std::string& dir,
                                                       std::error_code& ec) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("ckpt_") && name.ends_with(".agsc")) {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

void HiMadrlTrainer::WriteAutoCheckpoint() {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(config_.checkpoint_dir, ec);
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt_%06d.agsc", iteration_);
  const fs::path dir(config_.checkpoint_dir);
  const std::string path = (dir / name).string();
  if (!SaveCheckpoint(path)) {
    AGSC_LOG(kWarning) << "auto-checkpoint failed: " << path;
    return;
  }
  last_checkpoint_iter_ = iteration_;
  util::AtomicWriteFileRetry((dir / "latest").string(),
                             std::string(name) + "\n", config_.io_retry);
  // Keep-last-K retention over the checkpoint files, oldest first.
  const std::vector<fs::path> retained =
      ListCheckpointFiles(config_.checkpoint_dir, ec);
  const size_t keep = static_cast<size_t>(std::max(1, config_.checkpoint_keep));
  for (size_t i = 0; i + keep < retained.size(); ++i) {
    fs::remove(retained[i], ec);
  }
}

int HiMadrlTrainer::TotalParameterCount() const {
  int total = 0;
  for (const AgentNets& n : nets_) {
    total += n.actor->ParameterCount();
    total += n.value->ParameterCount();
    if (n.value_he) total += n.value_he->ParameterCount();
    if (n.value_ho) total += n.value_ho->ParameterCount();
  }
  if (value_all_) total += value_all_->ParameterCount();
  if (eoi_) total += eoi_->net().ParameterCount();
  return total;
}

int HiMadrlTrainer::ActorParameterBytes() const {
  int total = 0;
  for (const AgentNets& n : nets_) total += n.actor->ParameterCount();
  return total * static_cast<int>(sizeof(float));
}

}  // namespace agsc::core
