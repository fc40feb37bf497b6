// Bit-exactness of the lane-wise tanh (nn::TanhInPlace) at every ISA tier
// the CPU supports, against a scalar transcription of fdlibm's tanhf and
// expm1f kept here as the reference, the way util_test keeps a bit-at-a-time
// CRC-32. On glibc 2.36, whose tanhf is that fdlibm code, the transcription
// is itself checked against std::tanh on every input the tests draw:
//  - StratifiedInputs: every exponent with 4096 mantissas and both signs,
//    the special values, and a window around every branch boundary of the
//    scalar code, plus spans of every tail length;
//  - AllFloatInputs (ctest label "slow"): all 2^32 bit patterns.

#include <gnu/libc-version.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "nn/tensor.h"
#include "util/thread_pool.h"

namespace agsc {
namespace {

using nn::internal::GemmIsa;
using nn::internal::GemmIsaName;

std::uint32_t Bits(float x) { return std::bit_cast<std::uint32_t>(x); }
float FromBits(std::uint32_t bits) { return std::bit_cast<float>(bits); }

// fdlibm's expm1f and tanhf as glibc 2.36 ships them
// (sysdeps/ieee754/flt-32/s_expm1f.c and s_tanhf.c), branch for branch.
// Only errno and the floating-point exception flags are left out.
float FdlibmExpm1f(float x) {
  constexpr float one = 1.0f, huge = 1.0e+30f, tiny = 1.0e-30f;
  constexpr float o_threshold = 8.8721679688e+01f;  // 0x42b17180
  constexpr float ln2_hi = 6.9313812256e-01f;       // 0x3f317180
  constexpr float ln2_lo = 9.0580006145e-06f;       // 0x3717f7d1
  constexpr float invln2 = 1.4426950216e+00f;       // 0x3fb8aa3b
  constexpr float Q1 = -3.3333335072e-02f;          // 0xbd088889
  constexpr float Q2 = 1.5873016091e-03f;           // 0x3ad00d01
  constexpr float Q3 = -7.9365076090e-05f;          // 0xb8a670cd
  constexpr float Q4 = 4.0082177293e-06f;           // 0x36867e54
  constexpr float Q5 = -2.0109921195e-07f;          // 0xb457edbb
  float hi, lo, c = 0.0f, t;
  std::int32_t k;
  std::uint32_t hx = Bits(x);
  const std::uint32_t xsb = hx & 0x80000000u;
  hx &= 0x7fffffffu;

  if (hx >= 0x4195b844u) {  // |x| >= 27 ln2
    if (hx >= 0x42b17218u) {  // |x| >= 88.721...
      if (hx > 0x7f800000u) return x + x;  // NaN
      if (hx == 0x7f800000u) return xsb == 0 ? x : -1.0f;
      if (x > o_threshold) return huge * huge;
    }
    if (xsb != 0) return tiny - one;
  }

  if (hx > 0x3eb17218u) {  // |x| > ln2 / 2
    if (hx < 0x3f851592u) {  // and |x| < 3 ln2 / 2
      if (xsb == 0) {
        hi = x - ln2_hi;
        lo = ln2_lo;
        k = 1;
      } else {
        hi = x + ln2_hi;
        lo = -ln2_lo;
        k = -1;
      }
    } else {
      k = static_cast<std::int32_t>(invln2 * x + (xsb == 0 ? 0.5f : -0.5f));
      t = static_cast<float>(k);
      hi = x - t * ln2_hi;
      lo = t * ln2_lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25
    t = huge + x;
    return x - (t - (huge + x));
  } else {
    k = 0;
  }

  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      one + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
  t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return one + 2.0f * (x - e);
  }
  const std::uint32_t k_exp = static_cast<std::uint32_t>(k) << 23;
  float y;
  if (k <= -2 || k > 56) {
    y = one - (e - x);
    y = FromBits(Bits(y) + k_exp);
    return y - one;
  }
  if (k < 23) {
    t = FromBits(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    y = t - (e - x);
  } else {
    t = FromBits(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
    y = x - (e + t);
    y += one;
  }
  return FromBits(Bits(y) + k_exp);
}

float FdlibmTanhf(float x) {
  constexpr float one = 1.0f, two = 2.0f, tiny = 1.0e-30f;
  const std::int32_t jx = static_cast<std::int32_t>(Bits(x));
  const std::int32_t ix = jx & 0x7fffffff;
  if (ix >= 0x7f800000) {  // inf or NaN
    return jx >= 0 ? one / x + one : one / x - one;
  }
  float z;
  if (ix < 0x41b00000) {  // |x| < 22
    if (ix == 0) return x;
    if (ix < 0x24000000) return x * (one + x);  // |x| < 2^-55
    if (ix >= 0x3f800000) {                     // |x| >= 1
      const float t = FdlibmExpm1f(two * std::fabs(x));
      z = one - two / (t + two);
    } else {
      const float t = FdlibmExpm1f(-two * std::fabs(x));
      z = -t / (t + two);
    }
  } else {
    z = one - tiny;
  }
  return jx >= 0 ? z : -z;
}

bool LibmIsFdlibm() { return std::string(gnu_get_libc_version()) == "2.36"; }

void NoteLibmCheck() {
  if (!LibmIsFdlibm()) {
    std::cout << "[   NOTE   ] glibc " << gnu_get_libc_version()
              << ": the reference transcribes glibc 2.36's tanhf, so it is "
                 "not compared with this std::tanh\n";
  }
}

/// Mismatches over a set of inputs, by kind: kind 0 is the reference
/// against std::tanh, kind t + 1 is tier t against the reference.
struct Tally {
  std::vector<GemmIsa> tiers = nn::internal::SupportedGemmIsas();
  std::vector<long long> count = std::vector<long long>(tiers.size() + 1);
  std::vector<std::string> first = std::vector<std::string>(tiers.size() + 1);

  std::string Kind(std::size_t kind) const {
    if (kind == 0) return "reference vs std::tanh";
    return std::string(GemmIsaName(tiers[kind - 1])) + " vs reference";
  }

  void Check(std::size_t kind, float x, float want, float got) {
    if (Bits(got) == Bits(want)) return;
    if (count[kind]++ > 0) return;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "x = 0x%08x (%a) gives 0x%08x, want 0x%08x",
                  Bits(x), x, Bits(got), Bits(want));
    first[kind] = buf;
  }

  void Add(const Tally& other) {
    for (std::size_t kind = 0; kind < count.size(); ++kind) {
      if (count[kind] == 0) first[kind] = other.first[kind];
      count[kind] += other.count[kind];
    }
  }

  void ExpectClean() const {
    for (std::size_t kind = 0; kind < count.size(); ++kind) {
      EXPECT_EQ(count[kind], 0) << Kind(kind) << ", first: " << first[kind];
    }
  }
};

/// Runs n <= kChunk inputs through the reference, std::tanh (on glibc 2.36)
/// and every tier, and counts the results whose bits differ.
constexpr std::size_t kChunk = 4096;

void CheckChunk(const float* in, std::size_t n, bool check_libm,
                Tally& tally) {
  float want[kChunk], got[kChunk];
  for (std::size_t i = 0; i < n; ++i) {
    want[i] = FdlibmTanhf(in[i]);
    if (check_libm) tally.Check(0, in[i], std::tanh(in[i]), want[i]);
  }
  for (std::size_t t = 0; t < tally.tiers.size(); ++t) {
    std::memcpy(got, in, n * sizeof(float));
    nn::internal::TanhInPlaceAtTier(got, n, tally.tiers[t]);
    for (std::size_t i = 0; i < n; ++i) {
      tally.Check(t + 1, in[i], want[i], got[i]);
    }
  }
}

/// Positive bit patterns of the scalar code's branch points: tanhf's 2^-55,
/// 1 and 22; expm1f's 2^-25, ln2 / 2 and 3 ln2 / 2 as x = |u| / 2; and every
/// x = (k - 1/2) ln2 / 2 at which expm1f's k = trunc(u / ln2 +- 1/2) steps
/// for u = +-2|x|. Those are k = -2, -3 below x = 1 and k = 4 .. 63 above
/// (at 23 and 57 its reconstruction changes arm).
std::vector<std::uint32_t> BoundaryCenters() {
  std::vector<std::uint32_t> centers = {
      0x24000000u, 0x3f800000u, 0x41b00000u,  // 2^-55, 1, 22
      0x32800000u,                            // |u| = 2^-25
      Bits(FromBits(0x3eb17218u) / 2.0f),     // |u| = ln2 / 2
      Bits(FromBits(0x3f851592u) / 2.0f),     // |u| = 3 ln2 / 2
  };
  const double ln2 = std::log(2.0);
  for (int k = 2; k <= 64; ++k) {
    centers.push_back(Bits(static_cast<float>((k - 0.5) * ln2 / 2.0)));
  }
  return centers;
}

std::vector<float> StratifiedInputs() {
  std::vector<std::uint32_t> bits;
  // Every exponent, 4096 mantissas spread over [0, 2^23) with scrambled low
  // bits, both signs.
  std::uint32_t scramble = 12345;
  for (std::uint32_t exponent = 0; exponent < 256; ++exponent) {
    for (std::uint32_t m = 0; m < 4096; ++m) {
      scramble = scramble * 1664525u + 1013904223u;
      const std::uint32_t mantissa = (m << 11) | (scramble >> 21);
      bits.push_back((exponent << 23) | mantissa);
    }
  }
  // Zero, infinity, quiet and signaling NaNs with several payloads, and
  // subnormals.
  for (std::uint32_t b :
       {0x00000000u, 0x7f800000u, 0x7fc00000u, 0x7fc00001u, 0x7fd2c4e1u,
        0x7fffffffu, 0x7f800001u, 0x7fa00000u, 0x7fbfffffu, 0x00000001u,
        0x00000002u, 0x00012345u, 0x00400000u, 0x007fffffu, 0x00800000u}) {
    bits.push_back(b);
  }
  // A window of 8 ulps either side of every branch point.
  for (std::uint32_t center : BoundaryCenters()) {
    for (std::uint32_t b = center - 8; b <= center + 8; ++b) bits.push_back(b);
  }
  const std::size_t positive = bits.size();
  for (std::size_t i = 0; i < positive; ++i) {
    bits.push_back(bits[i] | 0x80000000u);
  }
  std::vector<float> inputs(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) inputs[i] = FromBits(bits[i]);
  return inputs;
}

TEST(TanhKernelTest, StratifiedInputsMatchReferenceAtEveryTier) {
  NoteLibmCheck();
  const std::vector<float> inputs = StratifiedInputs();
  Tally tally;
  for (std::size_t i = 0; i < inputs.size(); i += kChunk) {
    CheckChunk(inputs.data() + i, std::min(kChunk, inputs.size() - i),
               LibmIsFdlibm(), tally);
  }
  tally.ExpectClean();

  // Spans of every length up to two 16-lane vectors and one more, at an
  // odd offset: the tail lanes are computed in a padded vector and only
  // the span is written.
  constexpr float kGuard = 12345.0f;
  for (GemmIsa tier : tally.tiers) {
    for (std::size_t n = 0; n <= 33; ++n) {
      SCOPED_TRACE(std::string(GemmIsaName(tier)) + ", n = " +
                   std::to_string(n));
      std::vector<float> data(n + 2, kGuard);
      for (std::size_t i = 0; i < n; ++i) data[1 + i] = inputs[97 * i + n];
      nn::internal::TanhInPlaceAtTier(data.data() + 1, n, tier);
      EXPECT_EQ(data.front(), kGuard);
      EXPECT_EQ(data.back(), kGuard);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(data[1 + i]), Bits(FdlibmTanhf(inputs[97 * i + n])))
            << "lane " << i;
      }
    }
  }

  // TanhInPlace, which runs the highest tier the CPU has.
  std::vector<float> data(inputs.begin(), inputs.begin() + 1000);
  nn::TanhInPlace(data.data(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(Bits(data[i]), Bits(FdlibmTanhf(inputs[i]))) << i;
  }
}

TEST(TanhKernelTest, AllFloatInputsMatchReferenceAtEveryTier) {
  if (AGSC_SANITIZE_STR[0] != '\0') {
    GTEST_SKIP() << "2^32 inputs take too long under sanitizers ("
                 << AGSC_SANITIZE_STR << ")";
  }
  NoteLibmCheck();
  const bool check_libm = LibmIsFdlibm();
  const int threads = util::AvailableCpus();
  constexpr std::uint64_t kInputs = std::uint64_t{1} << 32;
  const std::uint64_t chunks = kInputs / kChunk;
  std::atomic<std::uint64_t> next_chunk{0};
  std::mutex mu;
  Tally total;
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&] {
      Tally tally;
      float in[kChunk];
      for (std::uint64_t chunk = next_chunk++; chunk < chunks;
           chunk = next_chunk++) {
        const std::uint32_t base = static_cast<std::uint32_t>(chunk * kChunk);
        for (std::size_t i = 0; i < kChunk; ++i) {
          in[i] = FromBits(base + static_cast<std::uint32_t>(i));
        }
        CheckChunk(in, kChunk, check_libm, tally);
      }
      std::lock_guard<std::mutex> lock(mu);
      total.Add(tally);
    });
  }
  for (std::thread& worker : workers) worker.join();
  total.ExpectClean();
}

}  // namespace
}  // namespace agsc
