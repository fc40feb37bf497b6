#ifndef AGSC_ENV_SC_ENV_H_
#define AGSC_ENV_SC_ENV_H_

#include <cstdint>
#include <vector>

#include "env/channel.h"
#include "env/channel_batch.h"
#include "env/config.h"
#include "env/metrics.h"
#include "map/spatial_index.h"
#include "map/trace.h"
#include "util/rng.h"

namespace agsc::env {

/// Unmanned-vehicle kind (the two heterogeneous agent types).
enum class UvKind { kUav, kUgv };

/// Dynamic state of one UV.
struct UvState {
  UvKind kind = UvKind::kUav;
  map::Point2 pos;
  map::RoadPosition road_pos;  ///< Valid for UGVs only.
  double energy_j = 0.0;       ///< Remaining energy E_t^k.
  double initial_energy_j = 0.0;
  bool active = true;          ///< False once the battery is exhausted.
  double last_speed = 0.0;     ///< Realized speed in the last slot (m/s).
};

/// Raw policy action: two reals, squashed/clamped to [-1, 1] by the env.
/// Mapping (Section IV-B2): direction = (a0+1)*pi in [0, 2pi); speed =
/// (a1+1)/2 * v_max. For UGVs the same desired displacement is projected
/// onto the road network (A_g subset of A_u).
struct UvAction {
  double raw_direction = 0.0;
  double raw_speed = 0.0;
};

/// One AG-NOMA data-collection event (u, g, i, i')_z of Section III-B.
struct CollectionEvent {
  int subchannel = -1;
  int uav = -1;      ///< Global agent index of the relay-source UAV; -1 none.
  int ugv = -1;      ///< Global agent index of the decoding UGV; -1 none.
  int poi_uav = -1;  ///< PoI i accessed by the UAV; -1 none.
  int poi_ugv = -1;  ///< PoI i' accessed directly by the UGV; -1 none.
  double collected_uav_gbit = 0.0;  ///< Delta D_{z,t}^{i,u} (Def. 1).
  double collected_ugv_gbit = 0.0;  ///< Delta D_{z,t}^{i',g} (Def. 2).
  bool loss_uav = false;  ///< SINR below threshold on the UAV chain.
  bool loss_ugv = false;  ///< SINR below threshold on the UGV uplink.
  double sinr_uplink_uav_db = 0.0;  ///< gamma^{i,u} (Eqn. 4).
  double sinr_relay_db = 0.0;       ///< gamma^{u,g} (Eqn. 9).
  double sinr_uplink_ugv_db = 0.0;  ///< gamma^{i',g} (Eqn. 6).

  bool operator==(const CollectionEvent&) const = default;
};

/// Output of Reset/Step.
struct StepResult {
  std::vector<std::vector<float>> observations;  ///< o_t^k per agent.
  std::vector<float> state;                      ///< Global s_t.
  std::vector<double> rewards;  ///< Extrinsic r_{t,ext}^k (Eqn. 17).
  bool done = false;
  std::vector<CollectionEvent> events;  ///< This slot's collection events.

  /// Field-wise equality, the comparison the oracle self-checks lock-step.
  bool operator==(const StepResult&) const = default;
};

struct ScEnvHotPathPeer;

/// The air-ground spatial-crowdsourcing Dec-POMDP (Sections III & IV).
///
/// Agent indexing: 0..U-1 are UAVs, U..U+G-1 are UGVs. Each timeslot first
/// moves every UV (UAVs freely, UGVs along the road graph), charges movement
/// energy (Eqn. 1), then runs AG-NOMA data collection over Z subchannels
/// (Defs. 1-2) and returns per-agent extrinsic rewards (Eqn. 17).
///
/// Hot path: with `EnvConfig::use_spatial_index` (default) the env uses
/// grid-accelerated nearest queries and the road graph's cached routing; the
/// naive linear-scan path (`use_spatial_index = false`) is bit-identical and
/// kept as a test oracle. The out-param `Reset`/`Step` overloads reuse the
/// caller's `StepResult` storage, so a steady-state step allocates nothing
/// once buffers are warm (with `record_event_log` off).
class ScEnv {
 public:
  static constexpr int kActionDim = 2;

  /// `dataset` supplies the campus (roads, bounds, spawn) and PoI layout.
  ScEnv(const EnvConfig& config, map::Dataset dataset, uint64_t seed);

  int num_agents() const { return config_.num_agents(); }
  int num_uavs() const { return config_.num_uavs; }
  int num_ugvs() const { return config_.num_ugvs; }
  bool IsUav(int k) const { return k < config_.num_uavs; }

  /// Length of each local observation o^k: 3*(K + I) normalized features,
  /// self entry first, out-of-range entries blinded to zero.
  int obs_dim() const;

  /// Length of the global state s (same layout, no blinding, canonical UV
  /// order).
  int state_dim() const;

  /// Starts a new episode; returns initial observations (rewards zero).
  StepResult Reset();

  /// Advances one timeslot. `actions` must have num_agents() entries.
  StepResult Step(const std::vector<UvAction>& actions);

  /// Out-param variants of Reset/Step: identical results, but they reuse
  /// `result`'s storage so the steady-state hot path does not allocate.
  void Reset(StepResult& result);
  void Step(const std::vector<UvAction>& actions, StepResult& result);

  /// Metrics of the episode so far (final once done).
  Metrics EpisodeMetrics() const;

  int timeslot() const { return timeslot_; }
  const UvState& uv(int k) const { return uvs_[k]; }
  double PoiRemainingGbit(int i) const { return poi_data_[i]; }
  const map::Dataset& dataset() const { return dataset_; }
  const EnvConfig& config() const { return config_; }
  const ChannelModel& channel() const { return channel_; }

  /// Permanently switches this env onto the naive linear-scan path (the
  /// retained test oracle). Only the indexed -> naive direction exists: the
  /// spatial grids are built at construction time, so an env downgraded by
  /// the oracle-fallback guard stays naive for its lifetime. Bit-identical
  /// results, just slower.
  void DisableSpatialIndex() { config_.use_spatial_index = false; }

  /// Permanently switches this env onto the scalar per-link ChannelModel
  /// path (the retained channel oracle), clearing `env_fast_math` too since
  /// the fast tier only exists inside the batched kernels. Like
  /// DisableSpatialIndex, only the batched -> scalar direction exists; the
  /// default batched tier is bit-identical, just slower when disabled.
  void DisableChannelBatch() {
    config_.use_channel_batch = false;
    config_.env_fast_math = false;
  }

  /// The environment's private RNG stream. Exposed mutably so checkpoints
  /// can capture/restore it for bit-exact training resume.
  util::Rng& rng() { return rng_; }
  const util::Rng& rng() const { return rng_; }

  /// Heterogeneous relaying neighbors of agent `k` from the *last* slot's
  /// events: the UGV(s) decoding a UAV's data or vice versa (Section V-B).
  std::vector<int> HeterogeneousNeighbors(int k) const;

  /// Homogeneous nearby neighbors: same-kind UVs within
  /// `neighbor_range_fraction * area diagonal`, ascending agent index.
  std::vector<int> HomogeneousNeighbors(int k) const;

  /// Local observation of agent `k` / global state, written into `out`
  /// (cleared first; capacity reused).
  void BuildObservation(int k, std::vector<float>* out) const;
  void BuildState(std::vector<float>* out) const;

  /// Positions of every UV at every slot of the current episode
  /// (trajectories[k][t]); used for Fig. 2 / Fig. 11 renders.
  const std::vector<std::vector<map::Point2>>& trajectories() const {
    return trajectories_;
  }

  /// All events of the current episode in slot order (Fig. 11 analysis).
  /// Empty when `EnvConfig::record_event_log` is off.
  const std::vector<std::vector<CollectionEvent>>& event_log() const {
    return event_log_;
  }

 private:
  friend struct ScEnvHotPathPeer;

  void MoveAgents(const std::vector<UvAction>& actions,
                  std::vector<double>& energy_used);
  void CollectData(std::vector<double>& rewards,
                   std::vector<CollectionEvent>& events);
  double SampleFadingGain();
  void RebuildAgentGrid();

  EnvConfig config_;
  map::Dataset dataset_;
  ChannelModel channel_;
  util::Rng rng_;

  int timeslot_ = 0;
  bool done_ = true;
  std::vector<UvState> uvs_;
  std::vector<double> poi_data_;  ///< Remaining D_t^i (Gbit).
  std::vector<CollectionEvent> last_events_;

  // Spatial indices (use_spatial_index): poi_grid_ is static per dataset;
  // agent_grid_ is rebuilt (allocation-free) after every move.
  map::PointGrid poi_grid_;
  map::PointGrid agent_grid_;

  // Batched channel state (use_channel_batch): the SoA PoI mirror and the
  // precomputed params/normalized coordinates are episode-static, built at
  // construction. gain_cache_ holds one gain vector per (agent, subchannel)
  // slot, recomputed lazily per CollectData call (epoch/stamp invalidation)
  // and shared across the uplink/relay/interference terms of that slot.
  ChannelBatchParams batch_params_;
  PoiSoa poi_soa_;
  std::vector<float> poi_xn_, poi_yn_;  ///< (p - bounds.min) * inv_{w,h}.
  std::vector<std::vector<double>> gain_cache_;
  std::vector<uint32_t> gain_cache_stamp_;
  uint32_t gain_cache_epoch_ = 0;
  mutable std::vector<double> dist_scratch_;  ///< VisibleMask distances.

  // Reusable scratch so steady-state stepping performs no heap allocation.
  struct RelayPair {
    int subchannel;
    int uav;
    int ugv;      // Decoder (nearest UGV), -1 if none.
    int poi_uav;  // i.
  };
  struct DirectUplink {
    int subchannel;
    int ugv;
    int poi_ugv;  // i'.
  };
  std::vector<map::Point2> agent_pos_scratch_;
  std::vector<double> energy_scratch_;
  std::vector<int> uavs_scratch_, ugvs_scratch_;
  std::vector<uint8_t> claimed_scratch_;
  std::vector<RelayPair> pairs_scratch_;
  std::vector<DirectUplink> directs_scratch_;
  std::vector<int> ugv_channel_scratch_;
  std::vector<std::vector<int>> channel_pois_scratch_;
  mutable std::vector<uint8_t> vis_scratch_;   ///< BuildObservation PoIs.
  mutable std::vector<int> neighbor_scratch_;  ///< HomogeneousNeighbors.

  // Episode accumulators.
  long loss_events_ = 0;
  double energy_ratio_sum_uav_ = 0.0;  ///< Sum over t,u of eta/E0.
  double energy_ratio_sum_ugv_ = 0.0;
  std::vector<std::vector<map::Point2>> trajectories_;
  std::vector<std::vector<CollectionEvent>> event_log_;
};

/// Test/bench backdoor into the private per-phase helpers, so the micro
/// benches and hot-path tests can time MoveAgents / CollectData separately.
/// Both helpers mutate env state (positions, PoI claims, the RNG stream).
struct ScEnvHotPathPeer {
  static void MoveAgents(ScEnv& env, const std::vector<UvAction>& actions,
                         std::vector<double>& energy_used) {
    env.MoveAgents(actions, energy_used);
  }
  static void CollectData(ScEnv& env, std::vector<double>& rewards,
                          std::vector<CollectionEvent>& events) {
    env.CollectData(rewards, events);
  }
};

}  // namespace agsc::env

#endif  // AGSC_ENV_SC_ENV_H_
