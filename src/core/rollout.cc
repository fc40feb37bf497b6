#include "core/rollout.h"

#include <iterator>
#include <stdexcept>
#include <utility>

#include "util/rng.h"

namespace agsc::core {

void AgentRollout::Clear() {
  obs.clear();
  next_obs.clear();
  action_dir.clear();
  action_speed.clear();
  logp_old.clear();
  reward_ext.clear();
  reward_int.clear();
  reward.clear();
  reward_he.clear();
  reward_ho.clear();
  he_neighbors.clear();
  ho_neighbors.clear();
  done.clear();
}

namespace {

/// Moves `src`'s elements after `dst`'s. Into an empty `dst` the whole
/// vector moves; otherwise each element does, so a row vector hands over
/// its storage instead of being copied.
template <typename T>
void AppendVec(std::vector<T>& dst, std::vector<T>&& src) {
  if (dst.empty()) {
    dst = std::move(src);
  } else {
    dst.insert(dst.end(), std::make_move_iterator(src.begin()),
               std::make_move_iterator(src.end()));
  }
  src.clear();
}

}  // namespace

void AgentRollout::Append(AgentRollout&& other) {
  AppendVec(obs, std::move(other.obs));
  AppendVec(next_obs, std::move(other.next_obs));
  AppendVec(action_dir, std::move(other.action_dir));
  AppendVec(action_speed, std::move(other.action_speed));
  AppendVec(logp_old, std::move(other.logp_old));
  AppendVec(reward_ext, std::move(other.reward_ext));
  AppendVec(reward_int, std::move(other.reward_int));
  AppendVec(reward, std::move(other.reward));
  AppendVec(reward_he, std::move(other.reward_he));
  AppendVec(reward_ho, std::move(other.reward_ho));
  AppendVec(he_neighbors, std::move(other.he_neighbors));
  AppendVec(ho_neighbors, std::move(other.ho_neighbors));
  AppendVec(done, std::move(other.done));
}

void MultiAgentBuffer::Append(MultiAgentBuffer&& other) {
  if (other.agents.size() != agents.size()) {
    throw std::invalid_argument("MultiAgentBuffer::Append: agent count");
  }
  for (size_t k = 0; k < agents.size(); ++k) {
    agents[k].Append(std::move(other.agents[k]));
  }
  AppendVec(states, std::move(other.states));
  AppendVec(next_states, std::move(other.next_states));
  AppendVec(reward_all, std::move(other.reward_all));
  AppendVec(done, std::move(other.done));
}

nn::Tensor PackBatch(const std::vector<std::vector<float>>& rows,
                     const std::vector<int>& indices) {
  if (indices.empty()) throw std::invalid_argument("PackBatch: empty batch");
  const int dim = static_cast<int>(rows[indices[0]].size());
  nn::Tensor batch(static_cast<int>(indices.size()), dim);
  for (size_t r = 0; r < indices.size(); ++r) {
    const std::vector<float>& row = rows[indices[r]];
    for (int c = 0; c < dim; ++c) batch(static_cast<int>(r), c) = row[c];
  }
  return batch;
}

nn::Tensor AgentRollout::ObsBatch(const std::vector<int>& indices) const {
  return PackBatch(obs, indices);
}

nn::Tensor AgentRollout::NextObsBatch(const std::vector<int>& indices) const {
  return PackBatch(next_obs, indices);
}

nn::Tensor AgentRollout::ActionBatch(const std::vector<int>& indices) const {
  nn::Tensor batch(static_cast<int>(indices.size()), 2);
  for (size_t r = 0; r < indices.size(); ++r) {
    batch(static_cast<int>(r), 0) = action_dir[indices[r]];
    batch(static_cast<int>(r), 1) = action_speed[indices[r]];
  }
  return batch;
}

void MultiAgentBuffer::Clear() {
  for (AgentRollout& a : agents) a.Clear();
  states.clear();
  next_states.clear();
  reward_all.clear();
  done.clear();
}

nn::Tensor MultiAgentBuffer::StateBatch(const std::vector<int>& indices) const {
  return PackBatch(states, indices);
}

nn::Tensor MultiAgentBuffer::NextStateBatch(
    const std::vector<int>& indices) const {
  return PackBatch(next_states, indices);
}

std::vector<int> AllIndices(size_t n) {
  std::vector<int> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = static_cast<int>(i);
  return idx;
}

std::vector<std::vector<int>> MakeMinibatches(size_t n, int batch_size,
                                              util::Rng& rng) {
  std::vector<int> idx = AllIndices(n);
  rng.Shuffle(idx);
  std::vector<std::vector<int>> batches;
  for (size_t start = 0; start < idx.size();
       start += static_cast<size_t>(batch_size)) {
    const size_t end = std::min(idx.size(), start + batch_size);
    batches.emplace_back(idx.begin() + start, idx.begin() + end);
  }
  return batches;
}

}  // namespace agsc::core
