#ifndef AGSC_CORE_ROLLOUT_H_
#define AGSC_CORE_ROLLOUT_H_

#include <cstdint>
#include <vector>

#include "nn/tensor.h"
#include "util/rng.h"

namespace agsc::core {

/// One agent's on-policy experience for the current iteration (the shared
/// "data buffer" of Algorithm 1, Lines 5 and 11).
struct AgentRollout {
  std::vector<std::vector<float>> obs;       ///< o_t.
  /// Never written: o_{t+1} of a non-done row is obs[t + 1], since the
  /// sampler stores each row once (DESIGN item 15). Still declared because
  /// perfbench/agsc_perfbench.cc reads it; it goes when that reader does.
  std::vector<std::vector<float>> next_obs;
  std::vector<float> action_dir;             ///< Raw action dim 0.
  std::vector<float> action_speed;           ///< Raw action dim 1.
  std::vector<float> logp_old;               ///< log pi_old(a|o) at sampling.
  std::vector<float> reward_ext;             ///< Extrinsic (Eqn. 17).
  std::vector<float> reward_int;   ///< Intrinsic p_mu(k|o) (filled later).
  std::vector<float> reward;       ///< Compound r^k (Eqn. 19, filled later).
  std::vector<float> reward_he;    ///< Mean HE-neighbor reward (Eqn. 23).
  std::vector<float> reward_ho;    ///< Mean HO-neighbor reward (Eqn. 23).
  std::vector<std::vector<int>> he_neighbors;  ///< Per-step HE neighbor ids.
  std::vector<std::vector<int>> ho_neighbors;  ///< Per-step HO neighbor ids.
  std::vector<uint8_t> done;                   ///< Episode-boundary flags.

  size_t size() const { return obs.size(); }
  void Clear();

  /// Appends every stream of `other` after this rollout's streams, taking
  /// over its rows instead of copying them (the sampler's merge of
  /// per-worker rollouts in stable worker order). `other` is left empty.
  void Append(AgentRollout&& other);

  /// Packs rows `indices` of the 2-D actions into an Nx2 tensor.
  nn::Tensor ActionBatch(const std::vector<int>& indices) const;
};

/// The full multi-agent buffer: per-agent rollouts plus the global-state
/// stream shared by MAPPO critics and the overall value network V_all.
struct MultiAgentBuffer {
  std::vector<AgentRollout> agents;
  std::vector<std::vector<float>> states;       ///< s_t.
  /// Never written, like AgentRollout::next_obs: s_{t+1} is states[t + 1].
  std::vector<std::vector<float>> next_states;
  std::vector<float> reward_all;  ///< Sum over agents of r^k (Eqn. 29).
  std::vector<uint8_t> done;

  explicit MultiAgentBuffer(int num_agents) : agents(num_agents) {}

  size_t size() const { return states.size(); }
  void Clear();

  /// Appends `other` (same agent count) after this buffer's streams,
  /// agent-by-agent and for the global-state streams. The rows move: no
  /// observation or state is copied, and `other` is left empty.
  void Append(MultiAgentBuffer&& other);

  nn::Tensor StateBatch(const std::vector<int>& indices) const;
};

/// Packs rows `indices` of `rows` (all of equal length) into a tensor, each
/// followed by the one-hot id of agent `k` over `id_agents` columns when
/// `id_agents` > 0 (core/policy's WriteInputRow layout).
nn::Tensor PackBatch(const std::vector<std::vector<float>>& rows,
                     const std::vector<int>& indices, int k = 0,
                     int id_agents = 0);

/// Returns {0, 1, ..., n-1}.
std::vector<int> AllIndices(size_t n);

/// Splits a shuffled copy of {0..n-1} into minibatches of at most
/// `batch_size` (the last one may be smaller; never empty).
std::vector<std::vector<int>> MakeMinibatches(size_t n, int batch_size,
                                              util::Rng& rng);

}  // namespace agsc::core

#endif  // AGSC_CORE_ROLLOUT_H_
