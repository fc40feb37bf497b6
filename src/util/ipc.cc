#include "util/ipc.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <chrono>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "util/net.h"

namespace agsc::util {

namespace {

// Slicing-by-8 tables: kCrc[0] is the bytewise table of the reflected
// polynomial 0xEDB88320; kCrc[s][b] advances kCrc[s-1][b] by one zero byte,
// so eight table lookups fold in eight input bytes at once.
constexpr auto kCrc = [] {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t n = 0; n < 256; ++n) {
    uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][n] = c;
  }
  for (size_t s = 1; s < t.size(); ++s) {
    for (size_t n = 0; n < 256; ++n) {
      t[s][n] = (t[s - 1][n] >> 8) ^ t[0][t[s - 1][n] & 0xFFu];
    }
  }
  return t;
}();

long RemainingMs(const std::chrono::steady_clock::time_point& deadline) {
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
      .count();
}

using internal::CrcTier;

/// Advances the running (inverted) CRC register `c` over `n` bytes.
uint32_t TableCrc(const unsigned char* p, size_t n, uint32_t c) {
  // The 8-byte step reads the running CRC's low byte as the first input
  // byte, which holds on little-endian targets only (see the frame layout).
  static_assert(std::endian::native == std::endian::little);
  for (; n >= 8; n -= 8, p += 8) {
    uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^
        kCrc[5][(lo >> 16) & 0xFFu] ^ kCrc[4][lo >> 24] ^
        kCrc[3][hi & 0xFFu] ^ kCrc[2][(hi >> 8) & 0xFFu] ^
        kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = kCrc[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__) || defined(__i386__)
/// One fold step: multiplies the two halves of lane `x` by those of `k` and
/// adds the next 16 input bytes.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i x,
                                                             __m128i k,
                                                             __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009) in the
// bit-reflected domain of 0xEDB88320. Each k is x^e mod P(x), reflected and
// shifted left one bit: four 128-bit lanes each advance 512 bits per
// 64-byte block (k1, k2: e = 544, 480), fold into one lane that advances
// 128 bits per 16-byte block (k3, k4: e = 160, 96), shrink to 64 bits (k5:
// e = 64), and a Barrett reduction by mu = floor(x^64 / P(x)) and P(x)
// itself leaves the 32-bit remainder. Advances the running CRC register
// `c` like TableCrc; n >= 64 and a multiple of 16.
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldCrc(
    const unsigned char* p, size_t n, uint32_t c) {
  const auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  const __m128i k1k2 = _mm_set_epi64x(0x1C6E41596, 0x154442BD4);
  const __m128i k3k4 = _mm_set_epi64x(0x0CCAA009E, 0x1751997D0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163CD6124);
  const __m128i mu_p = _mm_set_epi64x(0x1F7011641, 0x1DB710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x1 = Fold(x1, k1k2, load(p));
    x2 = Fold(x2, k1k2, load(p + 16));
    x3 = Fold(x3, k1k2, load(p + 32));
    x4 = Fold(x4, k1k2, load(p + 48));
  }
  x1 = Fold(Fold(Fold(x1, k3k4, x2), k3k4, x3), k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold(x1, k3k4, load(p));

  // 128 -> 64 bits, then Barrett to 32.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_srli_si128(x1, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), mu_p, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), mu_p, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}
#endif  // x86

CrcTier DetectCrcTier() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    return CrcTier::kFold;
  }
#endif
  return CrcTier::kTable;
}

CrcTier ActiveCrcTier() {
  static const CrcTier tier = DetectCrcTier();
  return tier;
}

/// The fold takes every whole 16-byte block of a buffer of 64 bytes or
/// more; the table takes shorter buffers and the last n % 16 bytes.
uint32_t RunCrc([[maybe_unused]] CrcTier tier, const void* data, size_t n,
               uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
#if defined(__x86_64__) || defined(__i386__)
  if (tier == CrcTier::kFold && n >= 64) {
    const size_t folded = n & ~size_t{15};
    c = FoldCrc(p, folded, c);
    p += folded;
    n -= folded;
  }
#endif
  return TableCrc(p, n, c) ^ 0xFFFFFFFFu;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  return RunCrc(ActiveCrcTier(), data, n, seed);
}

namespace internal {

std::vector<CrcTier> SupportedCrcTiers() {
  std::vector<CrcTier> tiers;
  for (int t = 0; t <= static_cast<int>(ActiveCrcTier()); ++t) {
    tiers.push_back(static_cast<CrcTier>(t));
  }
  return tiers;
}

const char* CrcTierName(CrcTier tier) {
  return tier == CrcTier::kFold ? "fold" : "table";
}

uint32_t Crc32AtTier(const void* data, size_t n, uint32_t seed,
                     CrcTier tier) {
  // Folding on a CPU without PCLMULQDQ is SIGILL, not an exception.
  if (static_cast<int>(tier) < 0 ||
      static_cast<int>(tier) > static_cast<int>(ActiveCrcTier())) {
    throw std::invalid_argument("CRC-32 tier not supported by this CPU");
  }
  return RunCrc(tier, data, n, seed);
}

}  // namespace internal

const char* IpcStatusName(IpcStatus status) {
  switch (status) {
    case IpcStatus::kOk: return "ok";
    case IpcStatus::kEof: return "eof";
    case IpcStatus::kTimeout: return "timeout";
    case IpcStatus::kCorrupt: return "corrupt";
    case IpcStatus::kError: return "error";
  }
  return "unknown";
}

FrameWriter::FrameWriter(int fd) : fd_(fd) {
  int sock_type = 0;
  socklen_t len = sizeof(sock_type);
  is_socket_ =
      ::getsockopt(fd, SOL_SOCKET, SO_TYPE, &sock_type, &len) == 0;
  // Bounded writes require EAGAIN: a *blocking* write(2) of more than the
  // buffer's free space blocks until everything is written, no matter what
  // poll(POLLOUT) said beforehand. The paired FrameReader polls around the
  // shared-fd consequence. If fcntl fails (exotic fd) writes simply block,
  // which is the pre-deadline behavior.
  SetNonBlocking(fd, true);
}

IpcStatus FrameWriter::Append(uint32_t type, uint64_t seq,
                              const std::string& payload,
                              long corrupt_payload_byte) {
  if (payload.size() > kMaxFramePayload) return IpcStatus::kError;
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const size_t at = staged_.size();
  staged_.reserve(at + kFrameHeaderBytes + payload.size());
  const auto put = [this](const auto& v) {
    staged_.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(kFrameMagic);
  put(type);
  put(seq);
  put(len);
  // CRC over [type, seq, len, payload]: everything after the magic except
  // the CRC field itself.
  uint32_t crc = Crc32(staged_.data() + at + 4, kFrameHeaderBytes - 8);
  crc = Crc32(payload.data(), payload.size(), crc);
  put(crc);
  staged_.append(payload);

  if (corrupt_payload_byte >= 0 &&
      static_cast<size_t>(corrupt_payload_byte) < payload.size()) {
    staged_[at + kFrameHeaderBytes +
            static_cast<size_t>(corrupt_payload_byte)] ^=
        static_cast<char>(0xFF);
  }
  return IpcStatus::kOk;
}

IpcStatus FrameWriter::Flush(long timeout_ms) {
  const bool bounded = timeout_ms >= 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(bounded ? timeout_ms : 0);
  const auto send_all = [&] {
    size_t written = 0;
    while (written < staged_.size()) {
      const char* p = staged_.data() + written;
      const size_t left = staged_.size() - written;
      // MSG_NOSIGNAL only exists for sockets; pipes rely on IgnoreSigpipe().
      const ssize_t n = is_socket_ ? ::send(fd_, p, left, MSG_NOSIGNAL)
                                   : ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          // Buffer full: wait for drain within the deadline. An expired
          // deadline still gets one zero-timeout probe, mirroring the read
          // side: only actual waiting is refused.
          const long remaining =
              bounded ? std::max(0L, RemainingMs(deadline)) : -1L;
          struct pollfd pfd{fd_, POLLOUT, 0};
          const int pr = ::poll(&pfd, 1, static_cast<int>(remaining));
          if (pr < 0) {
            if (errno == EINTR) continue;
            return IpcStatus::kError;
          }
          if (pr == 0) return IpcStatus::kTimeout;
          continue;
        }
        return IpcStatus::kError;
      }
      written += static_cast<size_t>(n);
    }
    return IpcStatus::kOk;
  };
  const IpcStatus status = send_all();
  staged_.clear();
  return status;
}

IpcStatus FrameWriter::Write(uint32_t type, uint64_t seq,
                             const std::string& payload, long timeout_ms,
                             long corrupt_payload_byte) {
  const IpcStatus status = Append(type, seq, payload, corrupt_payload_byte);
  return status == IpcStatus::kOk ? Flush(timeout_ms) : status;
}

FrameReader::FrameReader(int fd)
    : fd_(fd), buf_(new char[kReadAheadBytes]) {}

bool FrameReader::HasBufferedFrame() const {
  if (buffered() < kFrameHeaderBytes) return false;
  uint32_t len = 0;
  std::memcpy(&len, buf_.get() + begin_ + 16, 4);
  return len <= buffered() - kFrameHeaderBytes;
}

IpcStatus FrameReader::ReadSome(char* dst, size_t n, size_t* got,
                                long timeout_ms,
                                const std::chrono::steady_clock::time_point&
                                    deadline) {
  for (;;) {
    // Poll unconditionally — the fd may be nonblocking (a FrameWriter on
    // the same socket switches it), so even the unbounded path must wait
    // for readiness instead of spinning on EAGAIN. An expired deadline
    // still gets one zero-timeout readiness probe: data that is already
    // in the kernel is served, only actual waiting is refused. Without
    // this a tight deadline (1 ms truncates to 0 on the steady-clock round
    // trip) would misreport a ready frame as timeout.
    const long remaining =
        timeout_ms < 0 ? -1L
                       : (timeout_ms == 0 ? 0L
                                          : std::max(0L, RemainingMs(deadline)));
    struct pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(remaining));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return IpcStatus::kError;
    }
    if (pr == 0) return IpcStatus::kTimeout;
    const ssize_t r = ::read(fd_, dst, n);
    if (r < 0) {
      // Readiness can be spurious (another reader raced us, or the kernel
      // woke us for an event that drained); go back to poll.
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return IpcStatus::kError;
    }
    if (r == 0) return IpcStatus::kEof;
    *got = static_cast<size_t>(r);
    return IpcStatus::kOk;
  }
}

IpcStatus FrameReader::Fill(long timeout_ms,
                            const std::chrono::steady_clock::time_point&
                                deadline) {
  // Only a partial frame is ever buffered here, and it fits with room to
  // spare (a buffered payload is at most kDirectReadBytes).
  if (begin_ > 0) {
    std::memmove(buf_.get(), buf_.get() + begin_, buffered());
    end_ -= begin_;
    begin_ = 0;
  }
  size_t got = 0;
  const IpcStatus status = ReadSome(buf_.get() + end_, kReadAheadBytes - end_,
                                    &got, timeout_ms, deadline);
  end_ += got;
  return status;
}

IpcStatus FrameReader::Read(Frame& out, long timeout_ms) {
  if (broken_) return IpcStatus::kCorrupt;
  const auto corrupt = [this] {
    broken_ = true;
    return IpcStatus::kCorrupt;
  };
  // Sentinel: negative = unbounded, 0 = probe, positive = deadline. A
  // whole buffered frame needs no clock.
  std::chrono::steady_clock::time_point deadline;
  if (timeout_ms > 0 && !HasBufferedFrame()) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(timeout_ms);
  }
  while (buffered() < kFrameHeaderBytes) {
    const IpcStatus status = Fill(timeout_ms, deadline);
    if (status == IpcStatus::kEof) {
      return buffered() == 0 ? IpcStatus::kEof : corrupt();
    }
    if (status != IpcStatus::kOk) return status;
  }

  uint32_t magic = 0, type = 0, len = 0, crc = 0;
  uint64_t seq = 0;
  const char* header = buf_.get() + begin_;
  std::memcpy(&magic, header, 4);
  std::memcpy(&type, header + 4, 4);
  std::memcpy(&seq, header + 8, 8);
  std::memcpy(&len, header + 16, 4);
  std::memcpy(&crc, header + 20, 4);
  if (magic != kFrameMagic) return corrupt();
  if (len > kMaxFramePayload) return corrupt();
  uint32_t want = Crc32(header + 4, 16);

  if (len <= kDirectReadBytes) {
    // The whole frame fits the read-ahead: complete it there, check it,
    // and copy out only a valid payload.
    while (buffered() < kFrameHeaderBytes + len) {
      const IpcStatus status = Fill(timeout_ms, deadline);
      if (status == IpcStatus::kEof) return corrupt();
      if (status != IpcStatus::kOk) return status;
    }
    const char* payload = buf_.get() + begin_ + kFrameHeaderBytes;
    if (Crc32(payload, len, want) != crc) return corrupt();
    if (seq != next_seq_) return corrupt();
    out.payload.assign(payload, len);
    begin_ += kFrameHeaderBytes + len;
  } else {
    // Large payload: take what is buffered, read the rest in place.
    out.payload.resize(len);
    const size_t have =
        std::min<size_t>(buffered() - kFrameHeaderBytes, len);
    std::memcpy(out.payload.data(), header + kFrameHeaderBytes, have);
    begin_ += kFrameHeaderBytes + have;
    for (size_t got = have; got < len;) {
      size_t n = 0;
      const IpcStatus status = ReadSome(out.payload.data() + got, len - got,
                                        &n, timeout_ms, deadline);
      if (status != IpcStatus::kOk) {
        // The consumed head of this frame cannot be given back.
        broken_ = true;
        return status == IpcStatus::kEof ? IpcStatus::kCorrupt : status;
      }
      got += n;
    }
    if (Crc32(out.payload.data(), len, want) != crc) return corrupt();
    if (seq != next_seq_) return corrupt();
  }
  if (begin_ == end_) begin_ = end_ = 0;
  ++next_seq_;
  out.type = type;
  out.seq = seq;
  return IpcStatus::kOk;
}

}  // namespace agsc::util
