#ifndef AGSC_CORE_ORACLE_GUARD_H_
#define AGSC_CORE_ORACLE_GUARD_H_

#include <array>
#include <cstdint>
#include <string>

#include "env/sc_env.h"

namespace agsc::core {

/// The sticky oracle fallbacks: one bit per fast path that an oracle
/// self-check caught disagreeing with its retained reference. The same
/// values are the low byte of the checkpoint supervisor word and
/// EpisodePrefix::flags.
using Fallbacks = uint32_t;
inline constexpr Fallbacks kFallbackSpatialIndex = 1u << 0;
inline constexpr Fallbacks kFallbackGemm = 1u << 1;
inline constexpr Fallbacks kFallbackChannel = 1u << 2;
inline constexpr Fallbacks kAllFallbacks =
    kFallbackSpatialIndex | kFallbackGemm | kFallbackChannel;

/// Outcome of one oracle self-check. `ok == false` means the optimized path
/// disagreed with its retained reference implementation; `detail` names the
/// first mismatching operation.
struct OracleCheckResult {
  bool ok = true;
  std::string detail;
};

/// One fast path and its reference: a row of kOraclePairs.
struct OraclePair {
  Fallbacks bit;
  const char* name;       ///< The fast path, as the log names it.
  const char* reference;  ///< The path its downgrade switches to.
  const char* csv_column; ///< The bit's agsc_train stats-CSV column.
  /// Compares the fast path against its reference: for the GEMMs the
  /// process-wide kernels, for the env paths two copies of `env` stepped 16
  /// timeslots. Never mutates `env`.
  OracleCheckResult (*check)(const env::ScEnv& env);
};

/// The spatial index, the GEMM kernels and the channel kernels, in bit
/// order, which is also the stats-CSV column order.
extern const std::array<OraclePair, 3> kOraclePairs;

/// Switches `env` to the reference path of each env bit in `bits` (spatial
/// index, channel); other bits are ignored. Only the fast -> reference
/// direction exists, so a downgrade is sticky.
void ApplyEnvFallbacks(Fallbacks bits, env::ScEnv& env);

/// Runs two copies of `env` in lock-step for up to `steps` random-action
/// timeslots, one as it is and one downgraded by ApplyEnvFallbacks with
/// `downgrade`, and compares every StepResult field bit-exactly. Both copies
/// start from `env`'s current RNG state, so they see identical episode
/// randomness; actions come from a private fixed-seed RNG, and `env` itself
/// is never mutated. Trivially passes when the downgrade leaves `env`'s
/// paths as they are, and for the channel under `env_fast_math`: the fast
/// tier deviates from libm bit patterns by design (its acceptance is
/// statistical, pinned by tests).
OracleCheckResult LockStepEnvCheck(const env::ScEnv& env, Fallbacks downgrade,
                                   int steps);

/// Compares the process-wide GEMM kernel selection (nn::GetKernelConfig)
/// against the naive reference kernels on a deterministic set of random
/// tensors (all three MatMul variants, several shapes). The kernels are
/// designed to be bit-identical, so any difference is a real defect — the
/// caller should fall back to GemmKernel::kNaive. Trivially passes when the
/// naive kernels are already selected. Uses a private fixed-seed RNG; never
/// touches training streams.
OracleCheckResult NnKernelSelfCheck();

}  // namespace agsc::core

#endif  // AGSC_CORE_ORACLE_GUARD_H_
