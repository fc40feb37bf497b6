#include "core/worker_protocol.h"

#include <tuple>

#include "core/oracle_guard.h"
#include "util/ipc.h"

namespace agsc::core {

namespace {

using util::WireReader;
using util::WireWriter;

void PutRngState(WireWriter& w,
                 const std::array<uint64_t, util::Rng::kStateWords>& state) {
  for (uint64_t word : state) w.U64(word);
}

bool GetRngState(WireReader& r,
                 std::array<uint64_t, util::Rng::kStateWords>& state) {
  for (uint64_t& word : state) word = r.U64();
  return r.ok();
}

// Smallest encoding of each counted record: an action (two F32), a
// WorkerActions (its U32 count) and a vector (its U64 length).
constexpr size_t kActionBytes = 8;
constexpr size_t kMinActionsBytes = 4;
constexpr size_t kMinVecBytes = 8;

/// Reads a U32 record count. Fails if it is past `cap` or past what the
/// remaining bytes can hold at `min_record_bytes` each, before the caller
/// sizes a container by it: a payload then allocates at most a few times
/// its own size.
bool GetCount(WireReader& r, uint32_t cap, size_t min_record_bytes,
              uint32_t& n) {
  n = r.U32();
  return r.ok() && n <= cap && n <= r.remaining() / min_record_bytes;
}

void PutActions(WireWriter& w, const WorkerActions& actions) {
  w.U32(static_cast<uint32_t>(actions.per_agent.size()));
  for (const std::array<float, 2>& a : actions.per_agent) {
    w.F32(a[0]);
    w.F32(a[1]);
  }
}

bool GetActions(WireReader& r, WorkerActions& actions) {
  uint32_t n = 0;
  if (!GetCount(r, 1u << 16, kActionBytes, n)) return false;
  actions.per_agent.resize(n);
  for (std::array<float, 2>& a : actions.per_agent) {
    a[0] = r.F32();
    a[1] = r.F32();
  }
  return r.ok();
}

// Every EnvConfig field in declaration order: the kMsgInit layout after
// the version and campus words. Both Init codecs walk this one list, so a
// field reaches workers only once it is listed here (with a
// kWorkerProtocolVersion bump).
using Env = env::EnvConfig;
constexpr auto kEnvFields = std::make_tuple(
    &Env::num_timeslots, &Env::tau_move, &Env::tau_coll, &Env::num_pois,
    &Env::initial_data_gbit, &Env::num_uavs, &Env::num_ugvs, &Env::uav_vmax,
    &Env::ugv_vmax, &Env::uav_height, &Env::uav_energy_kj,
    &Env::ugv_energy_kj, &Env::uav_idle_power_w, &Env::uav_move_power_w,
    &Env::ugv_idle_power_w, &Env::ugv_move_power_w, &Env::num_subchannels,
    &Env::bandwidth_hz, &Env::noise_psd, &Env::alpha1, &Env::alpha2,
    &Env::eta_los_db, &Env::eta_nlos_db, &Env::omega_los, &Env::beta_los,
    &Env::rho_uav_w, &Env::rho_poi_w, &Env::sinr_threshold_db,
    &Env::throughput_factor, &Env::medium_access, &Env::rayleigh_mean_gain,
    &Env::rayleigh_fading, &Env::omega_coll, &Env::omega_move,
    &Env::observe_range_fraction, &Env::neighbor_range_fraction,
    &Env::record_event_log, &Env::use_spatial_index,
    &Env::use_channel_batch, &Env::env_fast_math);

void PutField(WireWriter& w, int v) { w.I32(v); }
void PutField(WireWriter& w, double v) { w.F64(v); }
void PutField(WireWriter& w, bool v) { w.Bool(v); }
void PutField(WireWriter& w, env::MediumAccess v) {
  w.U32(static_cast<uint32_t>(v));
}

void GetField(WireReader& r, int& v) { v = r.I32(); }
void GetField(WireReader& r, double& v) { v = r.F64(); }
void GetField(WireReader& r, bool& v) { v = r.Bool(); }
void GetField(WireReader& r, env::MediumAccess& v) {
  v = static_cast<env::MediumAccess>(r.U32());
}

}  // namespace

std::string EncodeWorkerInit(const WorkerInit& init) {
  WireWriter w;
  w.U32(kWorkerProtocolVersion);
  w.U32(static_cast<uint32_t>(init.campus));
  std::apply([&](auto... field) { (PutField(w, init.config.*field), ...); },
             kEnvFields);
  return w.Take();
}

bool DecodeWorkerInit(const std::string& payload, WorkerInit& out) {
  WireReader r(payload);
  if (r.U32() != kWorkerProtocolVersion) return false;
  const uint32_t campus = r.U32();
  if (!r.ok() || campus > static_cast<uint32_t>(map::CampusId::kNcsu)) {
    return false;
  }
  out.campus = static_cast<map::CampusId>(campus);
  env::EnvConfig& c = out.config;
  std::apply([&](auto... field) { (GetField(r, c.*field), ...); },
             kEnvFields);
  return static_cast<uint32_t>(c.medium_access) <=
             static_cast<uint32_t>(env::MediumAccess::kOfdma) &&
         r.Done();
}

std::string EncodeWorkerRegister(const WorkerRegister& reg) {
  WireWriter w;
  w.U32(reg.protocol_version);
  w.I32(reg.worker_id);
  w.I32(reg.connect_seq);
  return w.Take();
}

bool DecodeWorkerRegister(const std::string& payload, WorkerRegister& out) {
  WireReader r(payload);
  out.protocol_version = r.U32();
  out.worker_id = r.I32();
  out.connect_seq = r.I32();
  return r.Done();
}

std::string EncodeWorkerHello(const WorkerHello& hello) {
  WireWriter w;
  w.U32(hello.protocol_version);
  w.I32(hello.worker_id);
  w.I32(hello.num_agents);
  w.I32(hello.obs_dim);
  w.I32(hello.state_dim);
  return w.Take();
}

bool DecodeWorkerHello(const std::string& payload, WorkerHello& out) {
  WireReader r(payload);
  out.protocol_version = r.U32();
  out.worker_id = r.I32();
  out.num_agents = r.I32();
  out.obs_dim = r.I32();
  out.state_dim = r.I32();
  return r.Done();
}

std::string EncodeEpisodePrefix(const EpisodePrefix& prefix) {
  WireWriter w;
  w.U32(prefix.flags);
  PutRngState(w, prefix.rng_state);
  w.U32(static_cast<uint32_t>(prefix.replay.size()));
  for (const WorkerActions& actions : prefix.replay) PutActions(w, actions);
  return w.Take();
}

bool DecodeEpisodePrefix(const std::string& payload, EpisodePrefix& out) {
  WireReader r(payload);
  out.flags = r.U32();
  if ((out.flags & ~kAllFallbacks) != 0) return false;
  if (!GetRngState(r, out.rng_state)) return false;
  uint32_t steps = 0;
  if (!GetCount(r, 1u << 20, kMinActionsBytes, steps)) return false;
  out.replay.resize(steps);
  for (WorkerActions& actions : out.replay) {
    if (!GetActions(r, actions)) return false;
  }
  return r.Done();
}

std::string EncodeWorkerActions(const WorkerActions& actions) {
  WireWriter w;
  PutActions(w, actions);
  return w.Take();
}

bool DecodeWorkerActions(const std::string& payload, WorkerActions& out) {
  WireReader r(payload);
  return GetActions(r, out) && r.Done();
}

std::string EncodeWorkerStepResult(const WorkerStepResult& result) {
  WireWriter w;
  w.U32(result.is_reset ? 0 : 1);
  w.Bool(result.done);
  w.U32(static_cast<uint32_t>(result.observations.size()));
  for (const std::vector<float>& obs : result.observations) w.F32Vec(obs);
  w.F32Vec(result.state);
  w.F64Vec(result.rewards);
  w.U32(static_cast<uint32_t>(result.he_neighbors.size()));
  for (const std::vector<int32_t>& n : result.he_neighbors) w.I32Vec(n);
  w.U32(static_cast<uint32_t>(result.ho_neighbors.size()));
  for (const std::vector<int32_t>& n : result.ho_neighbors) w.I32Vec(n);
  PutRngState(w, result.rng_state);
  if (result.done) {
    w.F64(result.metrics.data_collection_ratio);
    w.F64(result.metrics.data_loss_ratio);
    w.F64(result.metrics.energy_consumption_ratio);
    w.F64(result.metrics.geographical_fairness);
    w.F64(result.metrics.efficiency);
  }
  return w.Take();
}

bool DecodeWorkerStepResult(const std::string& payload,
                            WorkerStepResult& out) {
  WireReader r(payload);
  const uint32_t kind = r.U32();
  if (!r.ok() || kind > 1) return false;
  out.is_reset = kind == 0;
  out.done = r.Bool();
  uint32_t agents = 0;
  if (!GetCount(r, 1u << 16, kMinVecBytes, agents)) return false;
  out.observations.resize(agents);
  for (std::vector<float>& obs : out.observations) {
    if (!r.F32Vec(obs)) return false;
  }
  if (!r.F32Vec(out.state)) return false;
  if (!r.F64Vec(out.rewards)) return false;
  uint32_t he = 0;
  if (!GetCount(r, 1u << 16, kMinVecBytes, he)) return false;
  out.he_neighbors.resize(he);
  for (std::vector<int32_t>& n : out.he_neighbors) {
    if (!r.I32Vec(n)) return false;
  }
  uint32_t ho = 0;
  if (!GetCount(r, 1u << 16, kMinVecBytes, ho)) return false;
  out.ho_neighbors.resize(ho);
  for (std::vector<int32_t>& n : out.ho_neighbors) {
    if (!r.I32Vec(n)) return false;
  }
  if (!GetRngState(r, out.rng_state)) return false;
  if (out.done) {
    out.metrics.data_collection_ratio = r.F64();
    out.metrics.data_loss_ratio = r.F64();
    out.metrics.energy_consumption_ratio = r.F64();
    out.metrics.geographical_fairness = r.F64();
    out.metrics.efficiency = r.F64();
  } else {
    out.metrics = env::Metrics{};
  }
  return r.Done();
}

bool CampusIdFromName(const std::string& name, map::CampusId& out) {
  for (map::CampusId id : {map::CampusId::kPurdue, map::CampusId::kNcsu}) {
    if (map::CampusName(id) == name) {
      out = id;
      return true;
    }
  }
  return false;
}

}  // namespace agsc::core
