#include "nn/serialize.h"

#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/fault_inject.h"
#include "util/ipc.h"

namespace agsc::nn {

namespace {

constexpr char kMagicV1[8] = {'A', 'G', 'S', 'C', 'N', 'N', '0', '1'};
constexpr char kMagicV2[8] = {'A', 'G', 'S', 'C', 'N', 'N', '0', '2'};

// Sanity bounds for decoding untrusted (possibly corrupted) files: a
// payload that passes the CRC but claims absurd counts is still rejected.
constexpr uint32_t kMaxSections = 1u << 16;
constexpr uint32_t kMaxNameLen = 1u << 12;
constexpr uint32_t kMaxItemsPerSection = 1u << 24;
constexpr int32_t kMaxTensorDim = 1 << 24;

void AppendBytes(std::string& out, const void* data, size_t len) {
  out.append(static_cast<const char*>(data), len);
}

template <typename T>
void AppendScalar(std::string& out, T value) {
  AppendBytes(out, &value, sizeof(value));
}

/// Bounds-checked sequential reader over an untrusted byte buffer.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Read(T* out) {
    if (size_ - pos_ < sizeof(T)) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadBytes(void* out, size_t len) {
    if (size_ - pos_ < len) return false;
    std::memcpy(out, data_ + pos_, len);
    pos_ += len;
    return true;
  }

  size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace

bool SaveParameters(const std::string& path,
                    const std::vector<Variable>& params) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(kMagicV1, sizeof(kMagicV1));
  const uint32_t count = static_cast<uint32_t>(params.size());
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Variable& p : params) {
    const Tensor& t = p.value();
    const int32_t rows = t.rows(), cols = t.cols();
    out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
    out.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
    out.write(reinterpret_cast<const char*>(t.data()),
              static_cast<std::streamsize>(sizeof(float)) * t.size());
  }
  return static_cast<bool>(out);
}

bool LoadParameters(const std::string& path, std::vector<Variable>& params) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) != 0) {
    return false;
  }
  uint32_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in || count != params.size()) return false;
  // Stage the whole file into temporaries first: a mid-file mismatch or
  // short read must not leave earlier parameters already overwritten.
  std::vector<Tensor> staged;
  staged.reserve(params.size());
  for (const Variable& p : params) {
    int32_t rows = 0, cols = 0;
    in.read(reinterpret_cast<char*>(&rows), sizeof(rows));
    in.read(reinterpret_cast<char*>(&cols), sizeof(cols));
    const Tensor& t = p.value();
    if (!in || rows != t.rows() || cols != t.cols()) return false;
    Tensor loaded(rows, cols);
    in.read(reinterpret_cast<char*>(loaded.data()),
            static_cast<std::streamsize>(sizeof(float)) * loaded.size());
    if (!in) return false;
    staged.push_back(std::move(loaded));
  }
  RestoreParameters(staged, params);
  return true;
}

void CopyParameters(const std::vector<Variable>& src,
                    std::vector<Variable>& dst) {
  if (src.size() != dst.size()) {
    throw std::invalid_argument("CopyParameters: count mismatch");
  }
  for (size_t i = 0; i < src.size(); ++i) {
    const Tensor& s = src[i].value();
    Tensor& d = dst[i].mutable_value();
    if (s.rows() != d.rows() || s.cols() != d.cols()) {
      throw std::invalid_argument("CopyParameters: shape mismatch");
    }
    d = s;
  }
}

std::vector<Tensor> SnapshotParameters(const std::vector<Variable>& params) {
  std::vector<Tensor> snapshot;
  snapshot.reserve(params.size());
  for (const Variable& p : params) snapshot.push_back(p.value());
  return snapshot;
}

void RestoreParameters(const std::vector<Tensor>& snapshot,
                       std::vector<Variable>& params) {
  if (snapshot.size() != params.size()) {
    throw std::invalid_argument("RestoreParameters: count mismatch");
  }
  for (size_t i = 0; i < params.size(); ++i) {
    params[i].mutable_value() = snapshot[i];
  }
}

// ---------------------------------------------------------------------------
// v2 checkpoints.
// ---------------------------------------------------------------------------

CheckpointSection& Checkpoint::AddSection(const std::string& name) {
  sections.push_back(CheckpointSection{name, {}, {}});
  return sections.back();
}

const CheckpointSection* Checkpoint::Find(const std::string& name) const {
  for (const CheckpointSection& s : sections) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const char* CheckpointErrorString(CheckpointError error) {
  switch (error) {
    case CheckpointError::kOk:
      return "ok";
    case CheckpointError::kIoError:
      return "I/O error";
    case CheckpointError::kBadMagic:
      return "bad magic (not an AGSCNN02 checkpoint)";
    case CheckpointError::kBadChecksum:
      return "checksum mismatch (truncated or corrupted)";
    case CheckpointError::kBadFormat:
      return "malformed payload";
  }
  return "unknown";
}

std::string EncodeCheckpoint(const Checkpoint& checkpoint) {
  // Reserve the exact encoded size, so the image is built in one buffer.
  size_t size = sizeof(kMagicV2) + sizeof(uint64_t) + 2 * sizeof(uint32_t);
  for (const CheckpointSection& section : checkpoint.sections) {
    size += 3 * sizeof(uint32_t) + section.name.size() +
            sizeof(uint64_t) * section.words.size();
    for (const Tensor& t : section.tensors) {
      size += 2 * sizeof(int32_t) +
              sizeof(float) * static_cast<size_t>(t.size());
    }
  }
  std::string out;
  out.reserve(size);
  AppendBytes(out, kMagicV2, sizeof(kMagicV2));
  AppendScalar(out, checkpoint.fingerprint);
  AppendScalar(out, static_cast<uint32_t>(checkpoint.sections.size()));
  for (const CheckpointSection& section : checkpoint.sections) {
    AppendScalar(out, static_cast<uint32_t>(section.name.size()));
    AppendBytes(out, section.name.data(), section.name.size());
    AppendScalar(out, static_cast<uint32_t>(section.words.size()));
    for (uint64_t w : section.words) AppendScalar(out, w);
    AppendScalar(out, static_cast<uint32_t>(section.tensors.size()));
    for (const Tensor& t : section.tensors) {
      AppendScalar(out, static_cast<int32_t>(t.rows()));
      AppendScalar(out, static_cast<int32_t>(t.cols()));
      AppendBytes(out, t.data(), sizeof(float) * static_cast<size_t>(t.size()));
    }
  }
  AppendScalar(out, util::Crc32(out.data(), out.size()));
  return out;
}

CheckpointError DecodeCheckpoint(const std::string& bytes, Checkpoint& out) {
  if (bytes.size() < sizeof(kMagicV2) + sizeof(uint32_t)) {
    return CheckpointError::kBadMagic;
  }
  if (std::memcmp(bytes.data(), kMagicV2, sizeof(kMagicV2)) != 0) {
    return CheckpointError::kBadMagic;
  }
  const size_t payload_size = bytes.size() - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + payload_size, sizeof(stored_crc));
  if (util::Crc32(bytes.data(), payload_size) != stored_crc) {
    return CheckpointError::kBadChecksum;
  }

  ByteReader reader(bytes.data() + sizeof(kMagicV2),
                    payload_size - sizeof(kMagicV2));
  Checkpoint parsed;
  uint32_t section_count = 0;
  if (!reader.Read(&parsed.fingerprint) || !reader.Read(&section_count) ||
      section_count > kMaxSections) {
    return CheckpointError::kBadFormat;
  }
  parsed.sections.reserve(section_count);
  for (uint32_t s = 0; s < section_count; ++s) {
    CheckpointSection section;
    uint32_t name_len = 0;
    if (!reader.Read(&name_len) || name_len > kMaxNameLen) {
      return CheckpointError::kBadFormat;
    }
    section.name.resize(name_len);
    if (!reader.ReadBytes(section.name.data(), name_len)) {
      return CheckpointError::kBadFormat;
    }
    uint32_t word_count = 0;
    if (!reader.Read(&word_count) || word_count > kMaxItemsPerSection) {
      return CheckpointError::kBadFormat;
    }
    section.words.resize(word_count);
    for (uint32_t i = 0; i < word_count; ++i) {
      if (!reader.Read(&section.words[i])) return CheckpointError::kBadFormat;
    }
    uint32_t tensor_count = 0;
    if (!reader.Read(&tensor_count) || tensor_count > kMaxItemsPerSection) {
      return CheckpointError::kBadFormat;
    }
    section.tensors.reserve(tensor_count);
    for (uint32_t i = 0; i < tensor_count; ++i) {
      int32_t rows = 0, cols = 0;
      if (!reader.Read(&rows) || !reader.Read(&cols) || rows < 0 ||
          cols < 0 || rows > kMaxTensorDim || cols > kMaxTensorDim) {
        return CheckpointError::kBadFormat;
      }
      const size_t elems = static_cast<size_t>(rows) * cols;
      if (reader.remaining() < sizeof(float) * elems) {
        return CheckpointError::kBadFormat;
      }
      Tensor t(rows, cols);
      if (!reader.ReadBytes(t.data(), sizeof(float) * elems)) {
        return CheckpointError::kBadFormat;
      }
      section.tensors.push_back(std::move(t));
    }
    parsed.sections.push_back(std::move(section));
  }
  if (reader.remaining() != 0) return CheckpointError::kBadFormat;
  out = std::move(parsed);
  return CheckpointError::kOk;
}

bool SaveCheckpointFile(const std::string& path,
                        const Checkpoint& checkpoint) {
  return util::AtomicWriteFile(path, EncodeCheckpoint(checkpoint));
}

CheckpointError LoadCheckpointFile(const std::string& path, Checkpoint& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return CheckpointError::kIoError;
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) return CheckpointError::kIoError;
  return DecodeCheckpoint(bytes, out);
}

std::string ReadFileMagic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in) return {};
  return std::string(magic, sizeof(magic));
}

}  // namespace agsc::nn
