#ifndef AGSC_CORE_WORKER_PROTOCOL_H_
#define AGSC_CORE_WORKER_PROTOCOL_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "env/config.h"
#include "env/metrics.h"
#include "map/campus.h"
#include "util/rng.h"

namespace agsc::core {

/// Wire protocol between the trainer's ProcSampler and the agsc_worker
/// processes — local subprocesses over stdin/stdout pipes, or remote
/// `agsc_worker --connect` processes over TCP (util/net). Frames are
/// carried by util::FrameWriter/FrameReader (length-prefixed,
/// CRC-checksummed, sequence-numbered); this header owns the message-type
/// registry and the payload codecs.
///
/// Conversation (one per worker, per incarnation/connection):
///   worker  -> trainer  kMsgRegister        remote only: claim a worker slot
///   trainer -> worker   kMsgInit            campus + full EnvConfig
///   worker  -> trainer  kMsgHello           version + dims echo
///   repeat per episode:
///     trainer -> worker kMsgEpisodePrefix   env-RNG state + replay actions
///     worker  -> trainer kMsgStepResult     (reply to the prefix)
///     repeat per timeslot:
///       trainer -> worker kMsgStep          one slot's actions
///       worker  -> trainer kMsgStepResult
///   trainer -> worker   kMsgShutdown        clean exit
///
/// The prefix frame is both the per-episode reset and the crash-replay
/// vehicle: it carries the environment RNG state the episode must start
/// from plus the K actions already issued this episode. K = 0 is a plain
/// reset; K > 0 means "reset, replay these silently, and reply with the
/// K-th step's result" — which is exactly what a respawned worker needs to
/// resume as if the crash never happened.
///
/// All floats/doubles travel as raw bit patterns, so a replayed or
/// multi-process rollout is bit-identical to the in-process one.

/// v2 added kMsgRegister (remote workers over TCP). v3 appended the
/// EnvConfig channel-path fields (use_channel_batch / env_fast_math) to
/// kMsgInit and a channel fallback flag. v4 carries the core/oracle_guard
/// fallback bits in EpisodePrefix::flags, which moved the channel flag from
/// 2 to 4.
inline constexpr uint32_t kWorkerProtocolVersion = 4;

enum WorkerMsgType : uint32_t {
  kMsgInit = 1,
  kMsgHello = 2,
  kMsgEpisodePrefix = 3,
  kMsgStep = 4,
  kMsgShutdown = 5,
  kMsgStepResult = 6,
  kMsgRegister = 7,
};

/// kMsgInit payload: everything a worker needs to rebuild the trainer's
/// environment deterministically (map::BuildDataset(campus, pois) + the
/// verbatim EnvConfig; the RNG state arrives per episode).
struct WorkerInit {
  map::CampusId campus = map::CampusId::kPurdue;
  env::EnvConfig config;
};

/// kMsgRegister payload: the first frame a remote (`--connect`) worker
/// sends on every fresh TCP connection, claiming its `--worker-id` slot.
/// `connect_seq` counts the worker's connections (0 = first) — the remote
/// analogue of the local incarnation number, and the scope the worker
/// fault campaigns key off. Local pipe workers never send this: their
/// identity is the pipe itself.
struct WorkerRegister {
  uint32_t protocol_version = kWorkerProtocolVersion;
  int32_t worker_id = 0;
  int32_t connect_seq = 0;
};

/// kMsgHello payload: the worker's view of the protocol and the rebuilt
/// env's dimensions; the trainer rejects any mismatch at spawn instead of
/// desynchronizing mid-collect.
struct WorkerHello {
  uint32_t protocol_version = kWorkerProtocolVersion;
  int32_t worker_id = 0;
  int32_t num_agents = 0;
  int32_t obs_dim = 0;
  int32_t state_dim = 0;
};

/// One slot's actions for every agent: the raw {direction, speed} floats
/// exactly as sampled; the worker widens them to env::UvAction the same way
/// VecSampler does.
struct WorkerActions {
  std::vector<std::array<float, 2>> per_agent;
};

/// kMsgEpisodePrefix payload (see the conversation diagram above).
struct EpisodePrefix {
  /// The trainer's sticky oracle fallbacks (core/oracle_guard bits); the
  /// decoder refuses bits outside kAllFallbacks.
  uint32_t flags = 0;
  std::array<uint64_t, util::Rng::kStateWords> rng_state{};
  std::vector<WorkerActions> replay;  ///< Actions already issued; may be empty.
};

/// kMsgStepResult payload: everything the trainer appends to the rollout
/// buffer for one slot, plus the worker's post-step env RNG state (the
/// trainer mirrors it so the next prefix — ordinary or crash-replay —
/// resumes the exact stream position).
struct WorkerStepResult {
  bool is_reset = false;
  bool done = false;
  std::vector<std::vector<float>> observations;
  std::vector<float> state;
  std::vector<double> rewards;                   ///< Empty for a reset.
  std::vector<std::vector<int32_t>> he_neighbors;  ///< Empty for a reset.
  std::vector<std::vector<int32_t>> ho_neighbors;  ///< Empty for a reset.
  std::array<uint64_t, util::Rng::kStateWords> rng_state{};
  env::Metrics metrics;  ///< Valid only when done.
};

std::string EncodeWorkerInit(const WorkerInit& init);
bool DecodeWorkerInit(const std::string& payload, WorkerInit& out);

std::string EncodeWorkerRegister(const WorkerRegister& reg);
bool DecodeWorkerRegister(const std::string& payload, WorkerRegister& out);

std::string EncodeWorkerHello(const WorkerHello& hello);
bool DecodeWorkerHello(const std::string& payload, WorkerHello& out);

std::string EncodeEpisodePrefix(const EpisodePrefix& prefix);
bool DecodeEpisodePrefix(const std::string& payload, EpisodePrefix& out);

std::string EncodeWorkerActions(const WorkerActions& actions);
bool DecodeWorkerActions(const std::string& payload, WorkerActions& out);

std::string EncodeWorkerStepResult(const WorkerStepResult& result);
bool DecodeWorkerStepResult(const std::string& payload, WorkerStepResult& out);

/// Maps a campus display name ("Purdue"/"NCSU") back to its id; false if
/// the name matches no campus. Used to derive the kMsgInit campus from the
/// trainer's live dataset.
bool CampusIdFromName(const std::string& name, map::CampusId& out);

}  // namespace agsc::core

#endif  // AGSC_CORE_WORKER_PROTOCOL_H_
