#include "core/policy_snapshot.h"

#include <stdexcept>
#include <utility>

#include "nn/serialize.h"
#include "util/rng.h"

namespace agsc::core {

std::shared_ptr<PolicySnapshot> PolicySnapshot::FromTrainer(
    const HiMadrlTrainer& trainer, std::string source_path) {
  auto snap = std::shared_ptr<PolicySnapshot>(new PolicySnapshot());
  const TrainConfig& config = trainer.config();
  snap->num_agents_ = static_cast<int>(trainer.lcfs().size());
  snap->share_params_ = config.share_params;
  snap->fingerprint_ = trainer.ArchitectureFingerprint();
  snap->source_path_ = std::move(source_path);

  const GaussianActor& first = trainer.actor(0);
  snap->input_dim_ = first.obs_dim();
  snap->obs_dim_ = snap->input_dim_ -
                   (snap->share_params_ ? snap->num_agents_ : 0);
  if (first.action_dim() != 2) {
    throw std::logic_error("PolicySnapshot: expected 2-D UV actions, got " +
                           std::to_string(first.action_dim()));
  }

  // One freshly-constructed head per distinct network; the orthogonal init
  // values are immediately overwritten by the trainer's parameters, so the
  // seed here is irrelevant — it just satisfies the ctor.
  util::Rng init_rng(1);
  const int num_heads = snap->share_params_ ? 1 : snap->num_agents_;
  for (int h = 0; h < num_heads; ++h) {
    const GaussianActor& src = trainer.actor(h);
    auto head = std::make_unique<GaussianActor>(
        snap->input_dim_, src.action_dim(), config.net, init_rng);
    const std::vector<nn::Variable> src_params = src.Parameters();
    std::vector<nn::Variable> dst_params = head->Parameters();
    nn::CopyParameters(src_params, dst_params);
    snap->heads_.push_back(std::move(head));
  }
  return snap;
}

std::array<float, 2> PolicySnapshot::Act(int agent,
                                         const std::vector<float>& obs) const {
  const std::vector<Row> rows = {{agent, &obs}};
  std::vector<std::array<float, 2>> out;
  ActBatch(rows, out);
  return out[0];
}

void PolicySnapshot::ActBatch(
    const std::vector<Row>& rows,
    std::vector<std::array<float, 2>>& actions_out) const {
  actions_out.assign(rows.size(), {0.0f, 0.0f});
  std::vector<std::vector<int>> groups(heads_.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    if (row.agent < 0 || row.agent >= num_agents_) {
      throw std::invalid_argument("PolicySnapshot: agent " +
                                  std::to_string(row.agent) + " out of range");
    }
    if (row.obs == nullptr ||
        static_cast<int>(row.obs->size()) != obs_dim_) {
      throw std::invalid_argument("PolicySnapshot: bad observation width");
    }
    groups[share_params_ ? 0 : row.agent].push_back(static_cast<int>(i));
  }
  for (size_t g = 0; g < groups.size(); ++g) {
    const std::vector<int>& members = groups[g];
    if (members.empty()) continue;
    const size_t dim = static_cast<size_t>(input_dim_);
    nn::Tensor batch(static_cast<int>(members.size()), input_dim_);
    for (size_t r = 0; r < members.size(); ++r) {
      const Row& row = rows[static_cast<size_t>(members[r])];
      WriteInputRow(*row.obs, row.agent, share_params_ ? num_agents_ : 0,
                    {batch.data() + r * dim, dim});
    }
    const nn::Tensor modes = heads_[g]->mean_net().Infer(batch);
    for (size_t r = 0; r < members.size(); ++r) {
      actions_out[static_cast<size_t>(members[r])] = {
          modes(static_cast<int>(r), 0), modes(static_cast<int>(r), 1)};
    }
  }
}

std::shared_ptr<PolicySnapshot> LoadPolicySnapshot(HiMadrlTrainer& staging,
                                                   const std::string& path,
                                                   std::string* error) {
  if (!staging.LoadCheckpointForInference(path)) {
    if (error != nullptr) {
      *error = "checkpoint rejected: " + path +
               " (missing, corrupted, truncated, or architecture mismatch)";
    }
    return nullptr;
  }
  if (error != nullptr) error->clear();
  return PolicySnapshot::FromTrainer(staging, path);
}

}  // namespace agsc::core
