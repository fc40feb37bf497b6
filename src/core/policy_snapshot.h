#ifndef AGSC_CORE_POLICY_SNAPSHOT_H_
#define AGSC_CORE_POLICY_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/hi_madrl.h"
#include "core/policy.h"

namespace agsc::core {

/// Immutable, refcounted copy of a trained policy's actor parameters, built
/// for concurrent serving. A snapshot owns its own parameter storage (deep
/// copies, never aliasing the trainer's live networks), so once constructed
/// it is never written again and any number of dispatch threads may run
/// inference through it without synchronization. Publication happens through
/// util::SnapshotRegistry<PolicySnapshot>: a trainer promotes a new
/// checkpoint by building a fresh snapshot off to the side and swapping the
/// registry pointer — in-flight batches keep the old snapshot alive through
/// their shared_ptr until they finish.
///
/// Correctness contract (asserted by dispatch_server_test): for every agent
/// k and observation, Act/ActBatch return exactly the bytes of the
/// Evaluator's deterministic path on the same checkpoint —
/// HiMadrlTrainer::Act(..., deterministic=true). Both write the input row
/// with core::WriteInputRow and run mean_net().Infer on it, and GEMM
/// accumulation order per output element is independent of the batch row
/// count, so batching N sessions into one forward changes nothing. That
/// this mean is the graph path's Gaussian mode (Dist(row).Mode()) is pinned
/// separately: MlpInferTest for Infer against Forward, and
/// HiMadrlTest.ActBitEqualsGraphModeAndSample for Act against the mode.
class PolicySnapshot {
 public:
  /// One observation row awaiting an action: `agent` selects the policy head
  /// (the shared head under share_params, with the one-hot id appended by
  /// the snapshot — callers pass the raw env observation either way).
  struct Row {
    int agent = 0;
    const std::vector<float>* obs = nullptr;
  };

  /// Deep-copies the actor parameters out of `trainer`. The returned
  /// snapshot is independent of the trainer's subsequent updates.
  /// `source_path` is recorded for logs/stats (the checkpoint file the
  /// trainer just loaded, or "<live>" when snapshotting mid-training).
  static std::shared_ptr<PolicySnapshot> FromTrainer(
      const HiMadrlTrainer& trainer, std::string source_path);

  /// Deterministic (mode) action for one observation. Reference path used
  /// by tests; the server always goes through ActBatch.
  std::array<float, 2> Act(int agent, const std::vector<float>& obs) const;

  /// Batched deterministic inference: rows are grouped per policy head and
  /// each group runs as a single GEMM through nn::Mlp::Infer. Output order
  /// matches input order. Rows for the same head may belong to different
  /// sessions/agents — grouping is purely by network identity.
  void ActBatch(const std::vector<Row>& rows,
                std::vector<std::array<float, 2>>& actions_out) const;

  int num_agents() const { return num_agents_; }
  int obs_dim() const { return obs_dim_; }
  bool share_params() const { return share_params_; }
  uint64_t fingerprint() const { return fingerprint_; }
  const std::string& source_path() const { return source_path_; }

  /// Monotonic publish version, stamped by the publisher *before* the
  /// registry swap (a snapshot is immutable once visible to readers).
  uint64_t version() const { return version_; }
  void set_version(uint64_t v) { version_ = v; }

 private:
  PolicySnapshot() = default;

  int num_agents_ = 0;
  int obs_dim_ = 0;        ///< Raw env observation width.
  int input_dim_ = 0;      ///< Actor input width (obs [+ one-hot id]).
  bool share_params_ = false;
  uint64_t fingerprint_ = 0;
  uint64_t version_ = 0;
  std::string source_path_;
  /// One mean MLP per policy head (1 under SP, else per agent), each with
  /// freshly allocated parameters restored from the trainer.
  std::vector<std::unique_ptr<GaussianActor>> heads_;
};

/// Loads `path` into the long-lived `staging` trainer (params + LCFs only,
/// via LoadCheckpointForInference — accepts checkpoints from any worker
/// count) and deep-copies the result into a fresh snapshot. Returns nullptr
/// with `*error` set when the file is missing, corrupted, truncated, or
/// fingerprint-mismatched; the staging trainer is left unchanged in that
/// case, so the previously published snapshot stays valid.
std::shared_ptr<PolicySnapshot> LoadPolicySnapshot(HiMadrlTrainer& staging,
                                                   const std::string& path,
                                                   std::string* error);

}  // namespace agsc::core

#endif  // AGSC_CORE_POLICY_SNAPSHOT_H_
