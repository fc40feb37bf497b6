// Mutation fuzz sweep over the util/ipc frame reader. A stream of valid
// frames (empty, small, and payloads past the read-ahead's direct-read
// cut-off) is cut at every offset, bit-flipped in headers and payloads, and
// given inflated length fields up to and past kMaxFramePayload, then
// delivered through a pipe in seeded random chunk sizes before the write
// end closes. Read must return the undamaged prefix frames bit-exact and
// then kCorrupt, or kEof when a cut falls exactly on a frame boundary. It
// never returns a frame whose bytes differ from what was written, and never
// allocates past the cap: this binary replaces operator new to record the
// largest single allocation.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tests/crc_reference.h"
#include "util/ipc.h"
#include "util/net.h"
#include "util/rng.h"

namespace {

std::atomic<size_t> g_largest_allocation{0};

void* Allocate(size_t n) {
  size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
  while (n > seen && !g_largest_allocation.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(size_t n) { return Allocate(n); }
void* operator new[](size_t n) { return Allocate(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace agsc::util {
namespace {

struct Spec {
  uint32_t type;
  std::string payload;
};

std::string Encode(const std::vector<Spec>& frames,
                   std::vector<size_t>* boundaries) {
  std::string bytes;
  boundaries->assign(1, 0);
  for (size_t i = 0; i < frames.size(); ++i) {
    std::string header(kFrameHeaderBytes, '\0');
    const uint32_t magic = kFrameMagic;
    const uint64_t seq = i;
    const uint32_t len = static_cast<uint32_t>(frames[i].payload.size());
    std::memcpy(&header[0], &magic, 4);
    std::memcpy(&header[4], &frames[i].type, 4);
    std::memcpy(&header[8], &seq, 8);
    std::memcpy(&header[16], &len, 4);
    // The independent reference, not the Crc32 under test: payloads past
    // kDirectReadBytes take Crc32's fold, and a wrong but self-consistent
    // fold would pass a stream built with it.
    uint32_t crc = testing::BytewiseCrc32(header.data() + 4, 16);
    crc = testing::BytewiseCrc32(frames[i].payload.data(),
                                 frames[i].payload.size(), crc);
    std::memcpy(&header[20], &crc, 4);
    bytes += header + frames[i].payload;
    boundaries->push_back(bytes.size());
  }
  return bytes;
}

std::vector<Spec> RandomFrames(Rng& rng, const std::vector<size_t>& sizes) {
  std::vector<Spec> frames;
  for (size_t size : sizes) {
    Spec spec{static_cast<uint32_t>(rng.UniformInt(uint64_t{8})),
              std::string(size, '\0')};
    for (char& c : spec.payload) {
      c = static_cast<char>(rng.UniformInt(uint64_t{256}));
    }
    frames.push_back(std::move(spec));
  }
  return frames;
}

/// Random chunk sizes covering `n` bytes: byte dribbles, mid-size pieces
/// and pieces larger than the read-ahead.
std::vector<size_t> Chunks(Rng& rng, size_t n) {
  std::vector<size_t> chunks;
  for (size_t at = 0; at < n;) {
    const uint64_t scale = rng.UniformInt(uint64_t{3});
    const uint64_t cap = scale == 0 ? 16 : (scale == 1 ? 2048 : 100000);
    const size_t piece = std::min<size_t>(n - at, 1 + rng.UniformInt(cap));
    chunks.push_back(piece);
    at += piece;
  }
  return chunks;
}

struct Outcome {
  size_t frames_ok = 0;  ///< Leading frames returned bit-exact.
  bool mismatch = false;  ///< A returned frame differs from the original.
  IpcStatus last = IpcStatus::kOk;
};

/// Delivers `bytes` through a pipe in `chunks`, closes the write end, and
/// reads frames until the first non-kOk status.
Outcome Deliver(const std::string& bytes, const std::vector<size_t>& chunks,
                const std::vector<Spec>& frames) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  std::thread writer([&] {
    size_t at = 0;
    for (size_t piece : chunks) {
      for (size_t done = 0; done < piece;) {
        const ssize_t n =
            ::write(fds[1], bytes.data() + at + done, piece - done);
        if (n <= 0) {  // The reader stopped early and closed its end.
          ::close(fds[1]);
          return;
        }
        done += static_cast<size_t>(n);
      }
      at += piece;
    }
    ::close(fds[1]);
  });
  Outcome out;
  {
    FrameReader reader(fds[0]);
    Frame frame;
    for (;;) {
      out.last = reader.Read(frame, /*timeout_ms=*/30000);
      if (out.last != IpcStatus::kOk) break;
      const size_t i = out.frames_ok;
      if (i >= frames.size() || frame.seq != i ||
          frame.type != frames[i].type || frame.payload != frames[i].payload) {
        out.mismatch = true;
        break;
      }
      ++out.frames_ok;
    }
  }
  ::close(fds[0]);  // Unblocks a writer stuck on a full pipe (EPIPE).
  writer.join();
  return out;
}

/// Index of the frame holding byte `offset`.
size_t FrameAt(const std::vector<size_t>& boundaries, size_t offset) {
  return static_cast<size_t>(
      std::upper_bound(boundaries.begin(), boundaries.end(), offset) -
      boundaries.begin() - 1);
}

class FrameFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IgnoreSigpipe();
    g_largest_allocation.store(0);
  }
  void TearDown() override {
    // One payload-sized allocation at most: never past the cap (+1 for the
    // string's terminator).
    EXPECT_LE(g_largest_allocation.load(), size_t{kMaxFramePayload} + 1);
  }
};

/// Small frames, cut at every offset of the stream.
TEST_F(FrameFuzzTest, CutAtEveryOffset) {
  Rng rng(101);
  const std::vector<Spec> frames = RandomFrames(rng, {0, 1, 37, 300, 5, 1000});
  std::vector<size_t> boundaries;
  const std::string bytes = Encode(frames, &boundaries);
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    const std::string prefix = bytes.substr(0, cut);
    const Outcome out = Deliver(prefix, Chunks(rng, cut), frames);
    const size_t whole = FrameAt(boundaries, cut);
    const bool on_boundary = boundaries[whole] == cut;
    ASSERT_FALSE(out.mismatch) << "cut " << cut;
    ASSERT_EQ(out.frames_ok, whole) << "cut " << cut;
    ASSERT_EQ(out.last, on_boundary ? IpcStatus::kEof : IpcStatus::kCorrupt)
        << "cut " << cut;
  }
}

/// Frames past the direct-read cut-off and the read-ahead, cut at every
/// boundary, one byte either side, and seeded random offsets.
TEST_F(FrameFuzzTest, CutLargeFramesAroundBoundariesAndAtRandom) {
  Rng rng(202);
  const std::vector<Spec> frames = RandomFrames(
      rng, {100, FrameReader::kDirectReadBytes + 1, 7,
            FrameReader::kReadAheadBytes + 3000, 0, 20});
  std::vector<size_t> boundaries;
  const std::string bytes = Encode(frames, &boundaries);
  std::vector<size_t> cuts;
  for (size_t b : boundaries) {
    for (size_t c : {b - 1, b, b + 1, b + kFrameHeaderBytes,
                     b + kFrameHeaderBytes - 1}) {
      if (c <= bytes.size()) cuts.push_back(c);
    }
  }
  for (int i = 0; i < 300; ++i) {
    cuts.push_back(rng.UniformInt(uint64_t{bytes.size() + 1}));
  }
  for (size_t cut : cuts) {
    const Outcome out = Deliver(bytes.substr(0, cut), Chunks(rng, cut), frames);
    const size_t whole = FrameAt(boundaries, cut);
    ASSERT_FALSE(out.mismatch) << "cut " << cut;
    ASSERT_EQ(out.frames_ok, whole) << "cut " << cut;
    ASSERT_EQ(out.last, boundaries[whole] == cut ? IpcStatus::kEof
                                                 : IpcStatus::kCorrupt)
        << "cut " << cut;
  }
}

/// Every header bit of every frame, then seeded flips anywhere.
TEST_F(FrameFuzzTest, SingleBitFlipsInHeadersAndPayloads) {
  Rng rng(303);
  const std::vector<Spec> frames = RandomFrames(
      rng, {0, 12, 300, FrameReader::kDirectReadBytes + 100, 9});
  std::vector<size_t> boundaries;
  const std::string bytes = Encode(frames, &boundaries);
  std::vector<size_t> bits;
  for (size_t f = 0; f < frames.size(); ++f) {
    for (size_t bit = 0; bit < kFrameHeaderBytes * 8; ++bit) {
      bits.push_back(boundaries[f] * 8 + bit);
    }
  }
  for (int i = 0; i < 600; ++i) {
    bits.push_back(rng.UniformInt(uint64_t{bytes.size() * 8}));
  }
  for (size_t bit : bits) {
    std::string damaged = bytes;
    damaged[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    const Outcome out = Deliver(damaged, Chunks(rng, damaged.size()), frames);
    ASSERT_FALSE(out.mismatch) << "bit " << bit;
    ASSERT_EQ(out.frames_ok, FrameAt(boundaries, bit / 8)) << "bit " << bit;
    ASSERT_EQ(out.last, IpcStatus::kCorrupt) << "bit " << bit;
  }
}

/// Length fields inflated past the frame, the read-ahead and the cap.
TEST_F(FrameFuzzTest, InflatedLengthFields) {
  Rng rng(404);
  const std::vector<Spec> frames =
      RandomFrames(rng, {40, 0, 700, FrameReader::kDirectReadBytes + 8, 3});
  std::vector<size_t> boundaries;
  const std::string bytes = Encode(frames, &boundaries);
  for (size_t f = 0; f < frames.size(); ++f) {
    const uint32_t len = static_cast<uint32_t>(frames[f].payload.size());
    std::vector<uint64_t> inflated = {
        uint64_t{len} + 1, uint64_t{len} + 24, uint64_t{len} + 4096,
        FrameReader::kDirectReadBytes, FrameReader::kDirectReadBytes + 1,
        FrameReader::kReadAheadBytes, uint64_t{kMaxFramePayload} + 1,
        0xFFFFFFFFu};
    // One frame at exactly the cap: legal to allocate, torn by EOF.
    if (f == 2) inflated.push_back(kMaxFramePayload);
    for (int i = 0; i < 4; ++i) {
      inflated.push_back(len + 1 + rng.UniformInt(uint64_t{kMaxFramePayload}));
    }
    for (uint64_t value : inflated) {
      if (value <= len) continue;
      const uint32_t field = static_cast<uint32_t>(value);
      std::string damaged = bytes;
      std::memcpy(&damaged[boundaries[f] + 16], &field, 4);
      const Outcome out = Deliver(damaged, Chunks(rng, damaged.size()), frames);
      ASSERT_FALSE(out.mismatch) << "frame " << f << " len " << field;
      ASSERT_EQ(out.frames_ok, f) << "frame " << f << " len " << field;
      ASSERT_EQ(out.last, IpcStatus::kCorrupt)
          << "frame " << f << " len " << field;
    }
  }
}

}  // namespace
}  // namespace agsc::util
