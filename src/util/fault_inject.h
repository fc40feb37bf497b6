#ifndef AGSC_UTIL_FAULT_INJECT_H_
#define AGSC_UTIL_FAULT_INJECT_H_

#include <mutex>
#include <optional>
#include <string>

namespace agsc::util {

/// Deterministic fault injection for exercising crash-recovery paths in
/// tests. All faults are disabled by default; they are armed either
/// programmatically via set_config() or from environment flags via
/// ReloadFromEnv():
///
///   AGSC_FAULT_FAIL_WRITE=N        AtomicWriteFile call #N (1-based) fails
///                                  without touching the destination.
///   AGSC_FAULT_FAIL_WRITE_COUNT=M  with FAIL_WRITE=N, calls N..N+M-1 all
///                                  fail (default 1). M >= the retry
///                                  policy's attempts makes the failure
///                                  persistent; smaller M makes it a
///                                  transient fault the retry layer
///                                  absorbs.
///   AGSC_FAULT_MUTATE_WRITE=N      AtomicWriteFile call #N writes a
///                                  corrupted payload, shaped by the two
///                                  flags below.
///   AGSC_FAULT_TRUNCATE_AT=B       the mutated payload is truncated to B
///                                  bytes.
///   AGSC_FAULT_FLIP_BYTE=B         byte B of the mutated payload is XORed
///                                  with 0xFF (after any truncation).
///   AGSC_FAULT_SIGNAL_WRITE=N      raise(SIGINT) just before AtomicWrite-
///                                  File call #N runs — a deterministic
///                                  "signal arrives mid-checkpoint".
///   AGSC_FAULT_NAN_LOSS=N          guarded training loss #N evaluates as
///                                  NaN (exercises the divergence guard).
///   AGSC_FAULT_NAN_LOSS_EVERY=K    every Kth guarded loss is NaN — a
///                                  persistent divergence that drives the
///                                  LR-backoff / give-up path.
///   AGSC_FAULT_STALL_TASK=N        guarded worker task #N stalls for
///                                  AGSC_FAULT_STALL_MS milliseconds
///                                  (exercises the rollout watchdog).
///   AGSC_FAULT_STALL_EVERY=K       every Kth guarded task stalls (may be
///                                  combined with STALL_TASK) — a
///                                  *sustained* slowdown rather than a
///                                  one-off; drives the serving layer past
///                                  saturation so admission control and
///                                  brownout engage.
///   AGSC_FAULT_STALL_MS=M          stall duration (default 0 = no stall).
///
/// Misbehaving-client modes, observed by serving-side client fleets
/// (agsc_serve's local clients, ServeClient) to reproduce overload without
/// bespoke load generators:
///
///   AGSC_FAULT_FLOOD_CLIENTS=N     the first N local agsc_serve clients
///                                  FLOOD: instead of lock-step request/
///                                  response they keep AGSC_FAULT_FLOOD_-
///                                  DEPTH async requests in flight each —
///                                  the admission queue fills and the
///                                  per-client cap / fairness machinery
///                                  must contain them.
///   AGSC_FAULT_FLOOD_DEPTH=D       in-flight pipeline per flooding client
///                                  (default 64).
///   AGSC_FAULT_STALL_DRAIN_MS=M    ServeClient sleeps M ms before every
///                                  response read — a peer that stops
///                                  draining its socket; combined with a
///                                  pipelined send loop it trips the
///                                  frontend's write budget and the
///                                  slow-client quarantine.
///
/// Subprocess-rollout faults, observed by the agsc_worker binary (the
/// trainer process inherits the same environment but never calls these
/// hooks). Scoped by AGSC_FAULT_WORKER_ID, and disarmed for respawned
/// incarnations so a replayed shard does not re-trip the same fault:
///
///   AGSC_FAULT_KILL_WORKER_NTH=N   the worker SIGKILLs itself on receiving
///                                  its Nth step frame — a deterministic
///                                  mid-round crash (segfault/OOM stand-in).
///   AGSC_FAULT_CORRUPT_FRAME=N     the worker's Nth outgoing result frame
///                                  has a payload byte flipped after the
///                                  CRC is computed (garbage-emitting
///                                  worker; the trainer must detect it).
///   AGSC_FAULT_STALL_PIPE=N        the worker sleeps AGSC_FAULT_STALL_MS
///                                  before writing its Nth result frame
///                                  (hung worker; exercises the read
///                                  timeout -> respawn path).
///   AGSC_FAULT_STALL_READS=N       the worker sleeps AGSC_FAULT_STALL_MS
///                                  before *reading* its Nth incoming frame
///                                  (counted over every incoming frame,
///                                  init/prefix included) — a peer that
///                                  stops draining; exercises the bounded
///                                  FrameWriter::Write -> kTimeout path.
///                                  Scoped by its own incarnation knob
///                                  AGSC_FAULT_STALL_READS_INCARNATION
///                                  (read by agsc_worker, default 0) so the
///                                  stall can target a *respawned*
///                                  incarnation whose episode prefix
///                                  carries a large replay log.
///   AGSC_FAULT_DROP_CONN=N         a remote (--connect) worker drops its
///                                  TCP connection instead of reading its
///                                  Nth incoming frame, then reconnects —
///                                  the injected mid-episode network
///                                  partition behind the reconnect-and-
///                                  replay tests. Pipe workers exit 4
///                                  instead (the trainer sees EOF).
///   AGSC_FAULT_WORKER_ID=W         restrict the worker faults above to
///                                  worker W (default -1 = any worker).
///
/// The injector is a process-wide singleton; counters advance across all
/// call sites so "the Nth write" is well defined for a whole run. All
/// entry points are thread-safe: checkpoint writes and worker stalls may
/// run concurrently under --num-workers.
class FaultInjector {
 public:
  struct Config {
    int fail_write = 0;       ///< 1-based first write call to fail; 0 = off.
    int fail_write_count = 1; ///< How many consecutive writes fail.
    int mutate_write = 0;     ///< 1-based write call to corrupt; 0 = off.
    long truncate_at = -1;    ///< Truncation length for the mutated write.
    long flip_byte = -1;      ///< Byte offset to flip in the mutated write.
    int signal_write = 0;     ///< 1-based write call to precede with SIGINT.
    int nan_loss = 0;         ///< 1-based guarded loss to poison; 0 = off.
    int nan_loss_every = 0;   ///< Every Kth guarded loss is NaN; 0 = off.
    int stall_task = 0;       ///< 1-based guarded worker task to stall.
    int stall_every = 0;      ///< Every Kth guarded task stalls; 0 = off.
    long stall_ms = 0;        ///< Stall duration in milliseconds.
    int flood_clients = 0;    ///< Local serve clients that flood; 0 = none.
    int flood_depth = 64;     ///< In-flight pipeline per flooding client.
    long stall_drain_ms = 0;  ///< ServeClient delay before response reads.
    int kill_worker_nth = 0;  ///< 1-based incoming step frame to die on.
    int corrupt_frame = 0;    ///< 1-based outgoing frame to corrupt.
    int stall_pipe = 0;       ///< 1-based outgoing frame to delay.
    int stall_reads = 0;      ///< 1-based incoming frame to stall before.
    int drop_conn = 0;        ///< 1-based incoming frame to drop conn before.
    int fault_worker_id = -1; ///< Worker the faults above target; -1 = any.
  };

  /// Faults to apply to the next outgoing IPC frame (worker side).
  struct FrameFault {
    long stall_ms = 0;       ///< Sleep before writing; 0 = none.
    long corrupt_byte = -1;  ///< Payload byte to flip post-CRC; -1 = none.
  };

  /// Faults to apply before the next incoming IPC frame (worker side).
  struct ReadFault {
    long stall_ms = 0;  ///< Sleep before reading; 0 = none (STALL_READS).
    bool drop = false;  ///< Drop the connection instead (DROP_CONN).
  };

  static FaultInjector& Instance();

  /// Installs `config` and resets all counters.
  void set_config(const Config& config);
  Config config() const;

  /// Re-reads the AGSC_FAULT_* environment flags and resets all counters.
  void ReloadFromEnv();

  /// Disables all faults and resets all counters.
  void Reset();

  /// Called once per AtomicWriteFile with the payload about to be written.
  /// Advances the write counter and returns false if this write must fail.
  /// When this write is the mutation target and its truncation or flip
  /// applies to `bytes`, `corrupted` receives the mutated copy; otherwise it
  /// stays empty, so an ordinary write never copies its payload. May raise
  /// SIGINT first when this write is the signal target.
  bool OnWrite(const std::string& bytes,
               std::optional<std::string>& corrupted);

  /// OnWrite that applies the mutation to `bytes` in place.
  bool OnWrite(std::string& bytes);

  /// Called once per guarded loss evaluation; returns true if this loss
  /// must be treated as NaN.
  bool PoisonLossNow();

  /// Called once per guarded worker task (rollout env steps); returns the
  /// stall to inject in milliseconds (0 = run normally). The caller sleeps
  /// outside the injector's lock. Fires one-shot on task STALL_TASK and
  /// repeatedly on every STALL_EVERYth task.
  long NextStallMs();

  /// Misbehaving-client knobs (FLOOD_CLIENTS / FLOOD_DEPTH /
  /// STALL_DRAIN_MS); plain reads, no counters advance.
  int FloodClients() const;
  int FloodDepth() const;
  long StallDrainMs() const;

  /// Called by agsc_worker once per incoming step frame; true means this
  /// worker must SIGKILL itself now (KILL_WORKER_NTH).
  bool KillWorkerNow();

  /// Called by agsc_worker once per outgoing result frame; returns the
  /// CORRUPT_FRAME / STALL_PIPE faults due for this frame. The caller
  /// sleeps and flips outside the injector's lock.
  FrameFault NextFrameFault();

  /// Called by agsc_worker once per incoming frame, *before* the read;
  /// returns the STALL_READS / DROP_CONN faults due for this frame. The
  /// caller sleeps / drops outside the injector's lock.
  ReadFault NextReadFault();

  /// Disarms the subprocess-rollout faults only (KILL_WORKER_NTH,
  /// CORRUPT_FRAME, STALL_PIPE, DROP_CONN). agsc_worker calls this when
  /// the faults are scoped to another worker id, or when it is a respawned
  /// incarnation / reconnection — a replayed shard must not re-trip the
  /// fault that killed its predecessor. STALL_READS is NOT covered: it is
  /// scoped by its own incarnation knob (see the env-flag table) and
  /// disarmed via DisarmReadStallFault.
  void DisarmWorkerFaults();

  /// Disarms STALL_READS only (its incarnation scope is independent so the
  /// stall can be aimed at a respawned incarnation's replay prefix).
  void DisarmReadStallFault();

  int write_count() const;

 private:
  FaultInjector() { ReloadFromEnv(); }

  mutable std::mutex mutex_;
  Config config_;
  int write_count_ = 0;
  int loss_count_ = 0;
  int task_count_ = 0;
  int frame_in_count_ = 0;
  int frame_out_count_ = 0;
  int frame_read_count_ = 0;
};

/// Writes `bytes` to `path` crash-safely: the payload goes to `path.tmp`,
/// is fsync'd, and is then renamed over `path`, so readers observe either
/// the old file or the complete new one, never a torn write. Returns false
/// on any I/O failure (or an injected fault), leaving the old file intact.
/// Single attempt — see util::AtomicWriteFileRetry for the retrying variant.
bool AtomicWriteFile(const std::string& path, const std::string& bytes);

}  // namespace agsc::util

#endif  // AGSC_UTIL_FAULT_INJECT_H_
