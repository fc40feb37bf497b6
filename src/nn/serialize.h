#ifndef AGSC_NN_SERIALIZE_H_
#define AGSC_NN_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/autograd.h"

namespace agsc::nn {

// ---------------------------------------------------------------------------
// v1 flat parameter files ("AGSCNN01") — kept for backward compatibility.
// ---------------------------------------------------------------------------

/// Writes `params` (shapes + row-major float data) to a binary file.
/// Format: magic "AGSCNN01", count, then per tensor {rows, cols, data}.
/// Returns false on I/O failure.
bool SaveParameters(const std::string& path,
                    const std::vector<Variable>& params);

/// Loads parameters saved by SaveParameters into `params` *in place*:
/// the file must contain the same number of tensors with matching shapes.
/// The load is all-or-nothing: on any I/O failure or shape/count mismatch
/// it returns false and leaves every parameter untouched.
bool LoadParameters(const std::string& path, std::vector<Variable>& params);

/// Copies parameter values from `src` into `dst` (shapes must match).
void CopyParameters(const std::vector<Variable>& src,
                    std::vector<Variable>& dst);

/// Snapshots current parameter values (used by PPO for pi_old).
std::vector<Tensor> SnapshotParameters(const std::vector<Variable>& params);

/// Restores a snapshot taken by SnapshotParameters.
void RestoreParameters(const std::vector<Tensor>& snapshot,
                       std::vector<Variable>& params);

// ---------------------------------------------------------------------------
// v2 checkpoint files ("AGSCNN02") — crash-safe, checksummed, sectioned.
//
// Layout (little-endian):
//   magic "AGSCNN02"                                 8 bytes
//   fingerprint                                      u64
//   section_count                                    u32
//   per section:
//     name_len, name bytes                           u32 + bytes
//     word_count, words                              u32 + u64 each
//     tensor_count, per tensor {rows, cols, data}    u32 + (i32,i32,f32...)
//   crc32 over everything above                      u32
//
// The fingerprint is an arbitrary caller-chosen architecture hash; loaders
// compare it against their own and reject mismatches loudly. The trailing
// CRC-32 (util::Crc32) detects truncation and bit corruption. Writes go
// through util::AtomicWriteFile (tmp + fsync + rename) so a crash mid-save
// never destroys the previous checkpoint.
// ---------------------------------------------------------------------------

/// One named group of raw 64-bit words and tensors inside a checkpoint.
struct CheckpointSection {
  std::string name;
  std::vector<uint64_t> words;
  std::vector<Tensor> tensors;
};

/// In-memory image of a v2 checkpoint file.
struct Checkpoint {
  uint64_t fingerprint = 0;
  std::vector<CheckpointSection> sections;

  /// Appends an empty section and returns it.
  CheckpointSection& AddSection(const std::string& name);

  /// Returns the section called `name`, or nullptr if absent.
  const CheckpointSection* Find(const std::string& name) const;
};

/// Outcome of reading a v2 checkpoint. Everything except kOk means the file
/// must not be trusted; kBadChecksum covers truncation and bit corruption.
enum class CheckpointError {
  kOk,
  kIoError,       ///< File missing or unreadable.
  kBadMagic,      ///< Not an AGSCNN02 file.
  kBadChecksum,   ///< CRC mismatch: truncated or corrupted payload.
  kBadFormat,     ///< Structurally invalid payload despite a valid CRC.
};

/// Human-readable name of `error` for log messages.
const char* CheckpointErrorString(CheckpointError error);

/// Serializes `checkpoint` to its byte representation (CRC included).
std::string EncodeCheckpoint(const Checkpoint& checkpoint);

/// Parses and validates bytes produced by EncodeCheckpoint.
CheckpointError DecodeCheckpoint(const std::string& bytes, Checkpoint& out);

/// Encodes `checkpoint` and writes it crash-safely via AtomicWriteFile.
/// Returns false on I/O failure; the previous file (if any) survives.
bool SaveCheckpointFile(const std::string& path, const Checkpoint& checkpoint);

/// Reads `path`, validating magic and CRC before any contents are used.
CheckpointError LoadCheckpointFile(const std::string& path, Checkpoint& out);

/// Reads just the 8-byte magic of `path` ("AGSCNN01"/"AGSCNN02"/...).
/// Returns an empty string if the file cannot be read.
std::string ReadFileMagic(const std::string& path);

}  // namespace agsc::nn

#endif  // AGSC_NN_SERIALIZE_H_
