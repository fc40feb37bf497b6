#include <unistd.h>

#include <cmath>
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "tests/crc_reference.h"
#include "util/csv.h"
#include "util/env_flags.h"
#include "util/ipc.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace agsc::util {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.NextU64() == b.NextU64();
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.5, 2.5);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.5);
  }
}

TEST(RngTest, UniformMeanApproximatesHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(13);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(uint64_t{5}));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 4u);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(int64_t{-2}, int64_t{3});
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, UniformIntRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.UniformInt(uint64_t{0}), std::invalid_argument);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.Add(rng.Gaussian());
  EXPECT_NEAR(stats.Mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.StdDev(), 1.0, 0.02);
}

TEST(RngTest, GaussianScaled) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Gaussian(5.0, 2.0));
  EXPECT_NEAR(stats.Mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.StdDev(), 2.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(29);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.015);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.015);
}

TEST(RngTest, CategoricalRejectsBadWeights) {
  Rng rng(1);
  EXPECT_THROW(rng.Categorical({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng.Categorical({1.0, -1.0}), std::invalid_argument);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(37);
  Rng child = a.Fork();
  // Child does not replay the parent stream.
  EXPECT_NE(child.NextU64(), a.NextU64());
}

TEST(StatsTest, WelfordMatchesDirect) {
  RunningStats s;
  std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  s.AddAll(xs);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.Mean(), 6.2);
  double var = 0.0;
  for (double x : xs) var += (x - 6.2) * (x - 6.2);
  var /= 4.0;
  EXPECT_NEAR(s.Variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 16.0);
  EXPECT_NEAR(s.Sum(), 31.0, 1e-12);
}

TEST(StatsTest, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Variance(), 0.0);
  EXPECT_TRUE(std::isinf(s.Min()));
}

TEST(StatsTest, MergeEqualsCombined) {
  RunningStats a, b, all;
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Gaussian(3.0, 2.0);
    (i % 2 == 0 ? a : b).Add(x);
    all.Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.Mean(), all.Mean(), 1e-9);
  EXPECT_NEAR(a.Variance(), all.Variance(), 1e-9);
  EXPECT_EQ(a.Min(), all.Min());
  EXPECT_EQ(a.Max(), all.Max());
}

TEST(StatsTest, MergePropertyRandomPartitions) {
  // Property: for ANY partition of a sample into shards, merging the
  // per-shard accumulators (in any association order) must agree with
  // sequential accumulation of the whole sample. This is the contract the
  // parallel rollout workers rely on when they fold per-worker statistics.
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng.UniformInt(uint64_t{400}));
    const int shards = 1 + static_cast<int>(rng.UniformInt(uint64_t{8}));
    std::vector<double> xs(static_cast<size_t>(n));
    for (auto& x : xs) x = rng.Gaussian(rng.Uniform(-5.0, 5.0), 3.0);

    RunningStats sequential;
    sequential.AddAll(xs);

    // Random shard assignment (some shards may stay empty).
    std::vector<RunningStats> parts(static_cast<size_t>(shards));
    for (double x : xs) parts[rng.UniformInt(static_cast<uint64_t>(shards))]
        .Add(x);

    // Linear (left fold) merge.
    RunningStats linear;
    for (const auto& p : parts) linear.Merge(p);
    // Pairwise (tree) merge, a different association order.
    std::vector<RunningStats> tree = parts;
    while (tree.size() > 1) {
      std::vector<RunningStats> next;
      for (size_t i = 0; i < tree.size(); i += 2) {
        RunningStats m = tree[i];
        if (i + 1 < tree.size()) m.Merge(tree[i + 1]);
        next.push_back(m);
      }
      tree.swap(next);
    }

    for (const RunningStats* merged : {&linear, &tree[0]}) {
      EXPECT_EQ(merged->count(), sequential.count());
      EXPECT_DOUBLE_EQ(merged->Min(), sequential.Min());
      EXPECT_DOUBLE_EQ(merged->Max(), sequential.Max());
      EXPECT_NEAR(merged->Mean(), sequential.Mean(), 1e-10);
      EXPECT_NEAR(merged->Variance(), sequential.Variance(), 1e-8);
      EXPECT_NEAR(merged->Sum(), sequential.Sum(), 1e-8);
    }
  }
}

TEST(StatsTest, MergeWithEmptyIsIdentityBothWays) {
  RunningStats a;
  a.AddAll({1.0, 2.0, 3.0});
  RunningStats empty;
  RunningStats left = a;
  left.Merge(empty);
  EXPECT_EQ(left.count(), 3u);
  EXPECT_DOUBLE_EQ(left.Mean(), a.Mean());
  EXPECT_DOUBLE_EQ(left.Variance(), a.Variance());
  EXPECT_DOUBLE_EQ(left.Min(), 1.0);
  EXPECT_DOUBLE_EQ(left.Max(), 3.0);
  RunningStats right;
  right.Merge(a);
  EXPECT_EQ(right.count(), 3u);
  EXPECT_DOUBLE_EQ(right.Mean(), a.Mean());
  EXPECT_DOUBLE_EQ(right.Variance(), a.Variance());
  EXPECT_DOUBLE_EQ(right.Min(), 1.0);
  EXPECT_DOUBLE_EQ(right.Max(), 3.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5), 2.5);
}

TEST(TableTest, AlignsColumns) {
  Table t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "2.5"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 2.5   |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, DoubleRowFormatting) {
  Table t({"m", "a", "b"});
  t.AddRow("r", {1.23456, 2.0}, 3);
  const std::string s = t.ToString();
  EXPECT_NE(s.find("1.235"), std::string::npos);
  EXPECT_NE(s.find("2.000"), std::string::npos);
}

TEST(TableTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(7.8724, 3), "7.872");
  EXPECT_EQ(FormatDouble(-1.0, 1), "-1.0");
  EXPECT_EQ(FormatDouble(0.0, 0), "0");
}

TEST(CsvTest, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvTest, WritesFile) {
  const std::string path = ::testing::TempDir() + "/agsc_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.WriteRow({"1", "x,y"});
    csv.WriteRow("row", {0.5}, 2);
    csv.Flush();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"x,y\"");
  std::getline(in, line);
  EXPECT_EQ(line, "row,0.50");
  std::remove(path.c_str());
}

TEST(EnvFlagsTest, FallbacksWhenUnset) {
  EXPECT_EQ(GetEnvOr("AGSC_DOES_NOT_EXIST", std::string("dflt")), "dflt");
  EXPECT_EQ(GetEnvOr("AGSC_DOES_NOT_EXIST", 42), 42);
  EXPECT_DOUBLE_EQ(GetEnvOr("AGSC_DOES_NOT_EXIST", 2.5), 2.5);
}

TEST(EnvFlagsTest, ParsesSetValues) {
  setenv("AGSC_TEST_FLAG_INT", "17", 1);
  setenv("AGSC_TEST_FLAG_BAD", "zzz", 1);
  EXPECT_EQ(GetEnvOr("AGSC_TEST_FLAG_INT", 0), 17);
  EXPECT_EQ(GetEnvOr("AGSC_TEST_FLAG_BAD", 5), 5);
  unsetenv("AGSC_TEST_FLAG_INT");
  unsetenv("AGSC_TEST_FLAG_BAD");
}

TEST(EnvFlagsTest, BenchScaleDefaultsToSmoke) {
  unsetenv("AGSC_BENCH_SCALE");
  EXPECT_EQ(GetBenchScale(), BenchScale::kSmoke);
  setenv("AGSC_BENCH_SCALE", "paper", 1);
  EXPECT_EQ(GetBenchScale(), BenchScale::kPaper);
  unsetenv("AGSC_BENCH_SCALE");
}

// ---------------------------------------------------------------------------
// CRC-32: the checksum of IPC frames and checkpoint files.
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownAnswer) {
  const char* text = "123456789";
  EXPECT_EQ(Crc32(text, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(text, 0), 0u);
}

TEST(Crc32Test, ChunkedMatchesWhole) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32(data.data(), data.size());
  const uint32_t first = Crc32(data.data(), 10);
  const uint32_t chunked = Crc32(data.data() + 10, data.size() - 10, first);
  EXPECT_EQ(whole, chunked);
}

using internal::Crc32AtTier;
using internal::CrcTier;
using internal::CrcTierName;
using testing::BytewiseCrc32;

std::vector<unsigned char> RandomBytes(Rng& rng, size_t n) {
  std::vector<unsigned char> bytes(n);
  for (unsigned char& byte : bytes) {
    byte = static_cast<unsigned char>(rng.UniformInt(uint64_t{256}));
  }
  return bytes;
}

/// BytewiseCrc32(p, len, seed) for every len in [0, n], one byte chained
/// onto the last.
std::vector<uint32_t> BytewisePrefixCrcs(const unsigned char* p, size_t n,
                                         uint32_t seed) {
  std::vector<uint32_t> crcs(n + 1, seed);
  for (size_t len = 1; len <= n; ++len) {
    crcs[len] = BytewiseCrc32(p + len - 1, 1, crcs[len - 1]);
  }
  return crcs;
}

TEST(Crc32Test, MatchesBytewiseReference) {
  // Random lengths (0, sub-8 tails, multi-block), start offsets that leave
  // the 8-byte loads unaligned, and chained seeds.
  Rng rng(2024);
  const std::vector<unsigned char> buf = RandomBytes(rng, 4096 + 8);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t offset = rng.UniformInt(uint64_t{8});
    const size_t len = rng.UniformInt(uint64_t{4097});
    const uint32_t seed =
        trial % 4 == 0 ? 0u : static_cast<uint32_t>(rng.NextU64());
    EXPECT_EQ(Crc32(buf.data() + offset, len, seed),
              BytewiseCrc32(buf.data() + offset, len, seed))
        << "offset " << offset << " len " << len << " seed " << seed;
  }
}

TEST(Crc32Test, EveryTierMatchesBytewiseOnShortLengths) {
  // Every length through the table's 8-byte steps and tails and the fold's
  // 64-byte blocks, 16-byte blocks and table tail, from every alignment.
  Rng rng(2025);
  const std::vector<unsigned char> buf = RandomBytes(rng, 1100 + 16);
  for (size_t offset = 0; offset < 16; ++offset) {
    const uint32_t seed =
        offset == 0 ? 0u : static_cast<uint32_t>(rng.NextU64());
    const std::vector<uint32_t> want =
        BytewisePrefixCrcs(buf.data() + offset, 1100, seed);
    for (CrcTier tier : internal::SupportedCrcTiers()) {
      for (size_t len = 0; len <= 1100; ++len) {
        ASSERT_EQ(Crc32AtTier(buf.data() + offset, len, seed, tier),
                  want[len])
            << CrcTierName(tier) << " offset " << offset << " len " << len;
      }
    }
  }
}

TEST(Crc32Test, EveryTierMatchesBytewiseOnRandomLengths) {
  // Up to 1 MiB: a 60,516-byte rollout step result and a multi-MiB
  // checkpoint both fold for thousands of 64-byte blocks. Every length
  // within 64 bytes of the frame reader's 16 KiB direct-read split, where
  // a payload moves from the read-ahead buffer to its own, is checked too.
  constexpr size_t kMax = size_t{1} << 20;
  constexpr size_t kSplit = FrameReader::kDirectReadBytes;
  Rng rng(2027);
  const std::vector<unsigned char> buf = RandomBytes(rng, kMax + 16);
  for (int pass = 0; pass < 4; ++pass) {
    const size_t offset = rng.UniformInt(uint64_t{16});
    const uint32_t seed =
        pass == 0 ? 0u : static_cast<uint32_t>(rng.NextU64());
    const std::vector<uint32_t> want =
        BytewisePrefixCrcs(buf.data() + offset, kMax, seed);
    std::vector<size_t> lens;
    for (size_t len = kSplit - 64; len <= kSplit + 64; ++len) {
      lens.push_back(len);
    }
    for (int trial = 0; trial < 16; ++trial) {
      lens.push_back(rng.UniformInt(uint64_t{kMax + 1}));
    }
    for (const size_t len : lens) {
      ASSERT_EQ(Crc32(buf.data() + offset, len, seed), want[len])
          << "offset " << offset << " len " << len;
      for (CrcTier tier : internal::SupportedCrcTiers()) {
        ASSERT_EQ(Crc32AtTier(buf.data() + offset, len, seed, tier),
                  want[len])
            << CrcTierName(tier) << " offset " << offset << " len " << len;
      }
    }
  }
}

TEST(Crc32Test, EveryTierChainsSeedsSplitInsideFoldBlocks) {
  // A checksum split at a point inside a 64-byte block, each part at its
  // own tier, continues through the seed to the whole buffer's value: the
  // fold takes and returns the same running register as the table.
  Rng rng(2028);
  for (const size_t n : {size_t{1000}, size_t{40000}}) {
    const std::vector<unsigned char> buf = RandomBytes(rng, n);
    const uint32_t seed = static_cast<uint32_t>(rng.NextU64());
    const uint32_t want = BytewiseCrc32(buf.data(), n, seed);
    for (const size_t blocks : {size_t{0}, size_t{1}, size_t{2}, size_t{7}}) {
      for (const size_t rest :
           {size_t{1}, size_t{15}, size_t{16}, size_t{17}, size_t{33},
            size_t{63}}) {
        const size_t split = std::min(n - 1, 64 * blocks + rest);
        EXPECT_EQ(Crc32(buf.data() + split, n - split,
                        Crc32(buf.data(), split, seed)),
                  want)
            << "n " << n << " split " << split;
        for (CrcTier first : internal::SupportedCrcTiers()) {
          for (CrcTier second : internal::SupportedCrcTiers()) {
            const uint32_t head = Crc32AtTier(buf.data(), split, seed, first);
            EXPECT_EQ(
                Crc32AtTier(buf.data() + split, n - split, head, second),
                want)
                << CrcTierName(first) << " then " << CrcTierName(second)
                << " n " << n << " split " << split;
          }
        }
      }
    }
  }
}

TEST(Crc32Test, ForcedTierOutsideThisCpuThrows) {
  const std::vector<CrcTier> supported = internal::SupportedCrcTiers();
  ASSERT_FALSE(supported.empty());
  EXPECT_EQ(supported.front(), CrcTier::kTable);
  const unsigned char byte = 0;
  for (CrcTier tier : {CrcTier::kTable, CrcTier::kFold}) {
    if (std::find(supported.begin(), supported.end(), tier) !=
        supported.end()) {
      EXPECT_NO_THROW(Crc32AtTier(&byte, 1, 0, tier)) << CrcTierName(tier);
    } else {
      EXPECT_THROW(Crc32AtTier(&byte, 1, 0, tier), std::invalid_argument)
          << CrcTierName(tier);
    }
  }
  EXPECT_THROW(Crc32AtTier(&byte, 1, 0, static_cast<CrcTier>(2)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FrameReader poll-deadline edge cases. The happy paths and the corruption
// matrix are exercised end-to-end by the proc-sampler and chaos suites;
// these pin down the boundary behaviors of the deadline logic itself.
// ---------------------------------------------------------------------------

/// A pipe pair closed on destruction (either end may be closed early).
struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    CloseRead();
    CloseWrite();
  }
  void CloseRead() {
    if (fds[0] >= 0) ::close(fds[0]);
    fds[0] = -1;
  }
  void CloseWrite() {
    if (fds[1] >= 0) ::close(fds[1]);
    fds[1] = -1;
  }
};

TEST(FrameReaderEdgeTest, BufferedFrameBeatsATightDeadline) {
  Pipe p;
  FrameWriter writer(p.fds[1]);
  ASSERT_EQ(writer.Write(/*type=*/7, /*seq=*/0, "hello"), util::IpcStatus::kOk);
  // The frame is already sitting in the pipe: a 1 ms deadline must not
  // matter — readiness is checked before the deadline can expire.
  FrameReader reader(p.fds[0]);
  Frame frame;
  EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/1), IpcStatus::kOk);
  EXPECT_EQ(frame.type, 7u);
  EXPECT_EQ(frame.payload, "hello");
  // Nothing else buffered: now the same deadline expires as a timeout, not
  // an error or a phantom frame.
  EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/1), IpcStatus::kTimeout);
}

TEST(FrameReaderEdgeTest, PartialFrameReportsTimeoutNotCorrupt) {
  Pipe p;
  // Only half a header arrives before the deadline: that is a straggling
  // writer, not a damaged stream — kTimeout, never kCorrupt.
  const uint32_t magic = kFrameMagic;
  ASSERT_EQ(::write(p.fds[1], &magic, sizeof(magic)),
            static_cast<ssize_t>(sizeof(magic)));
  FrameReader reader(p.fds[0]);
  Frame frame;
  EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/30), IpcStatus::kTimeout);
}

TEST(FrameReaderEdgeTest, ZeroLengthPayloadRoundTrips) {
  Pipe p;
  FrameWriter writer(p.fds[1]);
  ASSERT_EQ(writer.Write(/*type=*/1, /*seq=*/0, ""), util::IpcStatus::kOk);
  ASSERT_EQ(writer.Write(/*type=*/2, /*seq=*/1, ""), util::IpcStatus::kOk);
  FrameReader reader(p.fds[0]);
  Frame frame;
  EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kOk);
  EXPECT_EQ(frame.type, 1u);
  EXPECT_TRUE(frame.payload.empty());
  EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kOk);
  EXPECT_EQ(frame.seq, 1u);
  EXPECT_EQ(reader.next_seq(), 2u);
}

TEST(FrameReaderEdgeTest, MaxSizePayloadAtTheCapRoundTrips) {
  Pipe p;
  // A payload exactly at kMaxFramePayload (64 MiB) is legal and must cross
  // the pipe intact. Far larger than the pipe buffer, so the writer streams
  // from its own thread while the reader drains.
  std::string payload(kMaxFramePayload, '\0');
  for (size_t i = 0; i < payload.size(); i += 4096) {
    payload[i] = static_cast<char>(i * 2654435761u >> 24);
  }
  std::thread writer_thread([&] {
    FrameWriter writer(p.fds[1]);
    EXPECT_EQ(writer.Write(/*type=*/9, /*seq=*/0, payload), util::IpcStatus::kOk);
    p.CloseWrite();
  });
  FrameReader reader(p.fds[0]);
  Frame frame;
  EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/60000), IpcStatus::kOk);
  writer_thread.join();
  EXPECT_EQ(frame.type, 9u);
  EXPECT_EQ(frame.payload, payload);  // CRC already proved it; belt+braces.
  EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kEof);
}

TEST(FrameReaderEdgeTest, LengthPastTheCapIsCorruptBeforeAllocating) {
  Pipe p;
  // A header declaring kMaxFramePayload + 1: rejected on the length check
  // alone — no attempt to allocate or read the impossible payload (the CRC
  // never enters into it).
  std::string header;
  const auto put_u32 = [&header](uint32_t v) {
    header.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const auto put_u64 = [&header](uint64_t v) {
    header.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put_u32(kFrameMagic);
  put_u32(/*type=*/1);
  put_u64(/*seq=*/0);
  put_u32(kMaxFramePayload + 1);
  put_u32(/*crc=*/0);
  ASSERT_EQ(header.size(), static_cast<size_t>(kFrameHeaderBytes));
  ASSERT_EQ(::write(p.fds[1], header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  FrameReader reader(p.fds[0]);
  Frame frame;
  EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kCorrupt);
}

}  // namespace
}  // namespace agsc::util
