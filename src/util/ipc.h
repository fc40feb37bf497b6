#ifndef AGSC_UTIL_IPC_H_
#define AGSC_UTIL_IPC_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace agsc::util {

/// CRC-32 (IEEE reflected polynomial 0xEDB88320) over `n` bytes; chainable
/// via `seed` (pass a previous return value to continue a running checksum).
/// The one checksum of the repository: IPC frames and checkpoint files
/// (nn/serialize) both use it. Buffers of 64 bytes or more fold with
/// PCLMULQDQ where the CPU has it; shorter ones, the last n % 16 bytes and
/// CPUs without it run a slicing-by-8 table. Both give the same value
/// (DESIGN item 19).
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

namespace internal {

/// Tiers of Crc32, lowest first. kTable is slicing-by-8; kFold folds
/// 64-byte blocks with carry-less multiplies (PCLMULQDQ, SSE4.1) and leaves
/// the last n % 16 bytes to the table.
enum class CrcTier { kTable, kFold };

/// Every tier this CPU can run, lowest first; always starts with kTable.
std::vector<CrcTier> SupportedCrcTiers();

/// "table" or "fold".
const char* CrcTierName(CrcTier tier);

/// Crc32 at a forced tier, for the bit-identity sweep; Crc32 itself runs
/// the highest supported tier. Throws std::invalid_argument for a tier this
/// CPU cannot run.
uint32_t Crc32AtTier(const void* data, size_t n, uint32_t seed, CrcTier tier);

}  // namespace internal

/// Length-prefixed, checksummed, sequence-numbered frames over a pipe or a
/// TCP socket — the wire format between the trainer and its agsc_worker
/// processes (local pipes or --connect sockets, see util/net) and between
/// agsc_serve and its framed clients.
///
/// Timeout sentinel (shared by FrameReader::Read, FrameWriter::Flush/Write
/// and TcpListener::Accept): negative = unbounded, 0 = probe (only succeed
/// on what is already buffered / immediately possible), positive =
/// deadline in milliseconds.
///
/// Layout (all little-endian, which every supported target is):
///   u32 magic   "AGF1" (0x31464741)
///   u32 type    message type (worker_protocol.h owns the registry)
///   u64 seq     per-direction sequence number, 0-based, gap-free
///   u32 len     payload byte count (bounded by kMaxFramePayload)
///   u32 crc     CRC-32 over [type, seq, len, payload]
///   u8  payload[len]
///
/// Every field that could mislead the reader is covered: a corrupted type,
/// seq or length fails the CRC, a corrupted CRC fails the comparison, and a
/// corrupted magic fails the magic check. A reader therefore never acts on
/// a damaged frame — it reports kCorrupt and the owner escalates (the
/// trainer kills and respawns the worker; the worker exits).
struct Frame {
  uint32_t type = 0;
  uint64_t seq = 0;
  std::string payload;
};

inline constexpr uint32_t kFrameMagic = 0x31464741u;  // "AGF1"
inline constexpr uint32_t kFrameHeaderBytes = 24;
/// Upper bound on a single payload: generous for rollout chunks (a step
/// result is O(num_agents * obs_dim) floats) while keeping a corrupted
/// length field from provoking a multi-GiB allocation.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

enum class IpcStatus {
  kOk,       ///< A whole valid frame was read.
  kEof,      ///< Clean EOF at a frame boundary (peer closed the pipe).
  kTimeout,  ///< Deadline expired before a whole frame arrived.
  kCorrupt,  ///< Bad magic, oversized length, CRC mismatch, or torn frame.
  kError,    ///< read(2)/poll(2) failure.
};

const char* IpcStatusName(IpcStatus status);

/// Serializes frames onto `fd`. Not thread-safe; one writer per stream.
///
/// Frames are staged with Append and sent by Flush, so a run of frames
/// leaves in one send(2); Write is one Append plus one Flush.
///
/// The constructor switches `fd` to O_NONBLOCK: a bounded write is only
/// honest on a nonblocking fd (a blocking write(2) past the pipe/socket
/// buffer blocks until completion regardless of any prior poll). The
/// paired FrameReader tolerates the shared-fd consequence (EAGAIN) by
/// polling. Socket sends use MSG_NOSIGNAL so a dead peer yields kError
/// (EPIPE), not SIGPIPE; pipe writers rely on net::IgnoreSigpipe().
class FrameWriter {
 public:
  explicit FrameWriter(int fd);

  /// Stages one frame behind those already appended; nothing is sent until
  /// Flush. `seq` is the caller's counter (FrameReader enforces the
  /// gap-free contract on the far side). `corrupt_payload_byte`, when >= 0,
  /// XOR-flips that payload byte *after* the CRC is computed — the
  /// deliberately-damaged-frame hook for the CORRUPT_FRAME fault campaign.
  /// Returns kError, staging nothing, for a payload over kMaxFramePayload.
  IpcStatus Append(uint32_t type, uint64_t seq, const std::string& payload,
                   long corrupt_payload_byte = -1);

  /// Sends every appended frame. `timeout_ms` bounds the whole send with
  /// the shared sentinel (negative = block until written, 0 = only what
  /// fits in the kernel buffer right now, positive = deadline): a peer
  /// that stops draining yields kTimeout instead of wedging the caller.
  /// The staged frames are dropped whatever the outcome. After
  /// kTimeout/kError the stream may hold a torn frame — the owner must
  /// escalate (kill/respawn the worker or drop the connection), never keep
  /// writing. Returns kOk, kTimeout, or kError (e.g. EPIPE from a dead
  /// peer).
  IpcStatus Flush(long timeout_ms = -1);

  /// Append + Flush of one frame.
  IpcStatus Write(uint32_t type, uint64_t seq, const std::string& payload,
                  long timeout_ms = -1, long corrupt_payload_byte = -1);

 private:
  int fd_;
  bool is_socket_ = false;
  std::string staged_;
};

/// Deserializes frames from `fd`, enforcing magic/length/CRC and the
/// gap-free sequence contract. Not thread-safe; one reader per stream, and
/// the reader lives as long as the stream: it reads ahead, so bytes it has
/// taken from the fd exist only in its buffer.
///
/// Each poll+read pulls up to kReadAheadBytes, i.e. every frame the kernel
/// holds up to that size, and later Reads serve frames from memory. The
/// buffer never grows. A payload over kDirectReadBytes takes the bytes
/// already buffered and reads the rest straight into Frame::payload, so a
/// frame at kMaxFramePayload costs one payload-sized allocation.
class FrameReader {
 public:
  static constexpr size_t kReadAheadBytes = size_t{64} << 10;
  static constexpr size_t kDirectReadBytes = size_t{16} << 10;

  explicit FrameReader(int fd);

  /// Reads exactly one frame. `timeout_ms` bounds the whole call with the
  /// shared sentinel: negative blocks forever, 0 never waits (a buffered
  /// whole frame is served without any syscall, otherwise the fd is
  /// probed), positive is a deadline. kEof is only reported at a frame
  /// boundary with nothing buffered; EOF mid-frame is a torn write and
  /// reports kCorrupt. A frame whose seq is not the next expected value
  /// also reports kCorrupt: a lost or replayed chunk must not be silently
  /// accepted. kCorrupt is final: every later Read reports it again.
  /// After kTimeout a partial frame whose payload is at most
  /// kDirectReadBytes stays buffered and the next Read resumes it; a
  /// larger payload cannot be given back, so later Reads report kCorrupt.
  /// Owners escalate on kTimeout as on kCorrupt.
  IpcStatus Read(Frame& out, long timeout_ms);

  /// True iff a whole frame is buffered: the next Read makes no syscall.
  bool HasBufferedFrame() const;

  uint64_t next_seq() const { return next_seq_; }

 private:
  size_t buffered() const { return end_ - begin_; }
  /// One poll + one read of at most `n` bytes into `dst`; kOk with
  /// `*got` > 0, or kEof, kTimeout, kError.
  IpcStatus ReadSome(char* dst, size_t n, size_t* got, long timeout_ms,
                     const std::chrono::steady_clock::time_point& deadline);
  /// Moves the partial frame to the front of the buffer, then ReadSome
  /// into the free tail.
  IpcStatus Fill(long timeout_ms,
                 const std::chrono::steady_clock::time_point& deadline);

  int fd_;
  uint64_t next_seq_ = 0;
  std::unique_ptr<char[]> buf_;
  size_t begin_ = 0;  ///< First unconsumed byte.
  size_t end_ = 0;    ///< One past the last buffered byte.
  bool broken_ = false;  ///< kCorrupt seen, or a large payload abandoned.
};

/// Bounds-checked binary encode/decode helpers for frame payloads. Floats
/// and doubles travel as raw bit patterns (memcpy through u32/u64), so a
/// value decoded on the far side is bit-identical to the one encoded —
/// the foundation of the proc-sampler's bit-exactness contract.
class WireWriter {
 public:
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I32(int32_t v) { Raw(&v, sizeof(v)); }
  void F32(float v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Bool(bool v) { U32(v ? 1 : 0); }
  void F32Span(const float* data, size_t n) {
    U64(n);
    Raw(data, n * sizeof(float));
  }
  void F32Vec(const std::vector<float>& v) { F32Span(v.data(), v.size()); }
  void F64Vec(const std::vector<double>& v) {
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(double));
  }
  void I32Vec(const std::vector<int32_t>& v) {
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(int32_t));
  }

  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }

 private:
  void Raw(const void* data, size_t n) {
    if (n > 0) bytes_.append(static_cast<const char*>(data), n);
  }
  std::string bytes_;
};

/// Reading past the end or a length prefix larger than the remaining bytes
/// sets ok() to false and yields zeros from then on; callers check ok()
/// once after decoding a whole payload instead of after every field.
class WireReader {
 public:
  explicit WireReader(const std::string& bytes) : bytes_(bytes) {}

  uint32_t U32() { return Scalar<uint32_t>(); }
  uint64_t U64() { return Scalar<uint64_t>(); }
  int32_t I32() { return Scalar<int32_t>(); }
  float F32() { return Scalar<float>(); }
  double F64() { return Scalar<double>(); }
  /// A U32 that must be 0 or 1: any other value fails the read, so a
  /// decoded flag re-encodes to the bytes it came from.
  bool Bool() {
    const uint32_t v = U32();
    if (v > 1) Fail();
    return v == 1;
  }
  bool F32Vec(std::vector<float>& out) { return Vec(out); }
  bool F64Vec(std::vector<double>& out) { return Vec(out); }
  bool I32Vec(std::vector<int32_t>& out) { return Vec(out); }

  /// True iff every read so far stayed in bounds.
  bool ok() const { return ok_; }
  /// True iff ok() and the whole payload was consumed (no trailing bytes —
  /// a length/content mismatch the CRC cannot see).
  bool Done() const { return ok_ && pos_ == bytes_.size(); }
  /// Bytes not yet read. A decoder checks a record count against it before
  /// sizing a container, so a payload cannot claim more records than it
  /// has room for.
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  template <typename T>
  T Scalar() {
    if (!ok_ || sizeof(T) > bytes_.size() - pos_) {
      Fail();
      return T{};
    }
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  template <typename T>
  bool Vec(std::vector<T>& out) {
    const uint64_t n = U64();
    if (!ok_ || n > (bytes_.size() - pos_) / sizeof(T)) return Fail();
    out.resize(n);
    if (n > 0) {
      std::memcpy(out.data(), bytes_.data() + pos_, n * sizeof(T));
      pos_ += n * sizeof(T);
    }
    return true;
  }
  bool Fail() {
    ok_ = false;
    return false;
  }

  const std::string& bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace agsc::util

#endif  // AGSC_UTIL_IPC_H_
