// Loopback socket edge-case suite for util/net + the framed transport
// (util/ipc) running over it: address parsing, listener/acceptor timeout
// sentinels, nonblocking connect with a deadline, the reconnect backoff
// sequence (asserted exactly via the injectable sleep), frames split across
// TCP segments, EINTR storms against a blocked read, a peer that RSTs
// mid-frame, bounded writes against a full pipe/socket buffer, the
// SIGPIPE discipline (install-once SIG_IGN + MSG_NOSIGNAL on sockets), the
// FrameReader read-ahead and FrameWriter bursts, and the serving frontend
// answering a burst of pipelined requests in order within its pipeline
// bound.
//
// Everything runs on loopback or local pipes — no external network, no
// fixed port numbers (every listener binds port 0 and reads bound_port()).

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/dispatch_server.h"
#include "core/hi_madrl.h"
#include "core/policy_snapshot.h"
#include "core/serve_protocol.h"
#include "env/config.h"
#include "env/sc_env.h"
#include "map/campus.h"
#include "tests/crc_reference.h"
#include "util/fault_inject.h"
#include "util/ipc.h"
#include "util/net.h"
#include "util/retry.h"

namespace agsc {
namespace {

using util::Frame;
using util::FrameReader;
using util::FrameWriter;
using util::IpcStatus;
using util::TcpListener;

long ElapsedMs(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// A connected loopback pair: listener + client fd + accepted server fd.
struct Loopback {
  TcpListener listener;
  int client = -1;
  int server = -1;

  Loopback() {
    std::string error;
    EXPECT_TRUE(listener.Listen("127.0.0.1", 0, &error)) << error;
    client = util::TcpConnect("127.0.0.1", listener.bound_port(),
                              /*timeout_ms=*/2000, &error);
    EXPECT_GE(client, 0) << error;
    server = listener.Accept(/*timeout_ms=*/2000);
    EXPECT_GE(server, 0);
  }
  ~Loopback() {
    if (client >= 0) ::close(client);
    if (server >= 0) ::close(server);
  }
};

/// Hand-assembled frame bytes matching the documented layout, so tests can
/// dribble them onto a socket in arbitrary chunk sizes. The CRC comes from
/// the independent bit-at-a-time reference, not util::Crc32.
std::string RawFrame(uint32_t type, uint64_t seq, const std::string& payload) {
  std::string header(util::kFrameHeaderBytes, '\0');
  const uint32_t magic = util::kFrameMagic;
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::memcpy(&header[0], &magic, 4);
  std::memcpy(&header[4], &type, 4);
  std::memcpy(&header[8], &seq, 8);
  std::memcpy(&header[16], &len, 4);
  uint32_t crc = testing::BytewiseCrc32(header.data() + 4, 16);
  crc = testing::BytewiseCrc32(payload.data(), payload.size(), crc);
  std::memcpy(&header[20], &crc, 4);
  return header + payload;
}

void SendAll(int fd, const char* data, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    ASSERT_GT(r, 0) << "send failed: " << std::strerror(errno);
    sent += static_cast<size_t>(r);
  }
}

/// Reserves a currently-free port by binding port 0 and closing again.
/// Nothing listens on the returned port afterwards (modulo an unlikely
/// reuse race, which would only make a "refused" assertion fail loudly).
int FreePort() {
  TcpListener listener;
  std::string error;
  EXPECT_TRUE(listener.Listen("127.0.0.1", 0, &error)) << error;
  const int port = listener.bound_port();
  listener.Close();
  return port;
}

// ---------------------------------------------------------------------------
// Address parsing.
// ---------------------------------------------------------------------------

TEST(NetTest, ParseHostPortAcceptsNumericLocalhostAndBarePort) {
  std::string host;
  int port = -1;
  EXPECT_TRUE(util::ParseHostPort("127.0.0.1:8080", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  EXPECT_TRUE(util::ParseHostPort("localhost:65535", &host, &port));
  EXPECT_EQ(host, "localhost");
  EXPECT_EQ(port, 65535);
  // ":PORT" defaults the host to loopback; port 0 = kernel-assigned.
  EXPECT_TRUE(util::ParseHostPort(":0", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 0);
}

TEST(NetTest, ParseHostPortRejectsGarbageWithoutTouchingOutputs) {
  for (const char* bad :
       {"", "nocolon", "127.0.0.1:", ":", "127.0.0.1:notaport",
        "127.0.0.1:70000", "127.0.0.1:-1", "evil.example.com:80",
        "300.1.1.1:5", "127.0.0.1:80:90"}) {
    SCOPED_TRACE(bad);
    std::string host = "sentinel";
    int port = -7;
    EXPECT_FALSE(util::ParseHostPort(bad, &host, &port));
    EXPECT_EQ(host, "sentinel");
    EXPECT_EQ(port, -7);
  }
}

/// The parse error names the offending token AND the accepted forms, so a
/// typo'd --listen/--connect flag is diagnosable from the message alone.
TEST(NetTest, ParseHostPortErrorNamesOffendingTokenAndAcceptedForms) {
  std::string host, error;
  int port = 0;

  ASSERT_FALSE(util::ParseHostPort("nocolon", &host, &port, &error));
  EXPECT_NE(error.find("'nocolon'"), std::string::npos) << error;
  EXPECT_NE(error.find("HOST:PORT"), std::string::npos) << error;

  ASSERT_FALSE(util::ParseHostPort("127.0.0.1:70000", &host, &port, &error));
  EXPECT_NE(error.find("'70000'"), std::string::npos) << error;
  EXPECT_NE(error.find("0..65535"), std::string::npos) << error;

  ASSERT_FALSE(util::ParseHostPort("127.0.0.1:notaport", &host, &port,
                                   &error));
  EXPECT_NE(error.find("'notaport'"), std::string::npos) << error;

  // The host diagnostic must say numeric-only resolution is by design.
  ASSERT_FALSE(util::ParseHostPort("evil.example.com:80", &host, &port,
                                   &error));
  EXPECT_NE(error.find("'evil.example.com'"), std::string::npos) << error;
  EXPECT_NE(error.find("not resolved"), std::string::npos) << error;

  // Success leaves a previously set error untouched (callers check the
  // return value, not the string).
  error = "stale";
  ASSERT_TRUE(util::ParseHostPort("localhost:80", &host, &port, &error));
  EXPECT_EQ(error, "stale");
}

// ---------------------------------------------------------------------------
// Listener / acceptor.
// ---------------------------------------------------------------------------

TEST(NetTest, ListenerReportsEphemeralPortAndAcceptHonorsSentinel) {
  TcpListener listener;
  std::string error;
  ASSERT_TRUE(listener.Listen("127.0.0.1", 0, &error)) << error;
  EXPECT_GT(listener.bound_port(), 0);
  EXPECT_TRUE(listener.listening());

  // 0 = probe: returns immediately when no connection is pending.
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(listener.Accept(/*timeout_ms=*/0), -1);
  EXPECT_LT(ElapsedMs(start), 250);

  // Positive = deadline.
  start = std::chrono::steady_clock::now();
  EXPECT_EQ(listener.Accept(/*timeout_ms=*/50), -1);
  const long waited = ElapsedMs(start);
  EXPECT_GE(waited, 40);
  EXPECT_LT(waited, 5000);
}

TEST(NetTest, ListenOnBusyPortFailsWithError) {
  TcpListener first;
  std::string error;
  ASSERT_TRUE(first.Listen("127.0.0.1", 0, &error)) << error;
  TcpListener second;
  EXPECT_FALSE(second.Listen("127.0.0.1", first.bound_port(), &error));
  EXPECT_FALSE(error.empty());
}

TEST(NetTest, CloseFromAnotherThreadUnblocksPendingAccept) {
  TcpListener listener;
  std::string error;
  ASSERT_TRUE(listener.Listen("127.0.0.1", 0, &error)) << error;
  int result = 0;
  std::thread acceptor([&] { result = listener.Accept(/*timeout_ms=*/-1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  listener.Close();
  acceptor.join();
  EXPECT_EQ(result, -2);
}

// ---------------------------------------------------------------------------
// Connect.
// ---------------------------------------------------------------------------

TEST(NetTest, ConnectAcceptRoundTripCarriesFramesBothWays) {
  Loopback conn;
  FrameWriter client_writer(conn.client);
  FrameReader server_reader(conn.server);
  FrameWriter server_writer(conn.server);
  FrameReader client_reader(conn.client);

  Frame frame;
  for (uint64_t seq = 0; seq < 3; ++seq) {
    const std::string payload(64 * (seq + 1), static_cast<char>('a' + seq));
    ASSERT_EQ(client_writer.Write(7, seq, payload, /*timeout_ms=*/2000),
              IpcStatus::kOk);
    ASSERT_EQ(server_reader.Read(frame, /*timeout_ms=*/2000), IpcStatus::kOk);
    EXPECT_EQ(frame.type, 7u);
    EXPECT_EQ(frame.seq, seq);
    EXPECT_EQ(frame.payload, payload);
    // And a reply on the same socket in the other direction.
    ASSERT_EQ(server_writer.Write(8, seq, "ack", /*timeout_ms=*/2000),
              IpcStatus::kOk);
    ASSERT_EQ(client_reader.Read(frame, /*timeout_ms=*/2000), IpcStatus::kOk);
    EXPECT_EQ(frame.type, 8u);
    EXPECT_EQ(frame.payload, "ack");
  }
}

TEST(NetTest, ConnectToDeadPortFailsFastWithError) {
  const int port = FreePort();
  std::string error;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(util::TcpConnect("127.0.0.1", port, /*timeout_ms=*/2000, &error),
            -1);
  EXPECT_FALSE(error.empty());
  // Loopback refusal is immediate — nowhere near the deadline.
  EXPECT_LT(ElapsedMs(start), 1900);
}

TEST(NetTest, ConnectWithRetryReportsExactBackoffSequence) {
  const int port = FreePort();
  util::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 10;
  policy.backoff_multiplier = 4;
  policy.max_backoff_ms = 100;  // Caps the 3rd sleep: 10, 40, 100 (not 160).
  std::vector<double> sleeps;
  std::string error;
  int attempts = 0;
  const int fd = util::TcpConnectWithRetry(
      "127.0.0.1", port, /*timeout_ms=*/500, policy,
      [&](double ms) { sleeps.push_back(ms); }, &error, &attempts);
  EXPECT_EQ(fd, -1);
  EXPECT_EQ(attempts, 4);
  EXPECT_FALSE(error.empty());
  ASSERT_EQ(sleeps.size(), 3u);  // No sleep before the 1st attempt.
  EXPECT_DOUBLE_EQ(sleeps[0], 10.0);
  EXPECT_DOUBLE_EQ(sleeps[1], 40.0);
  EXPECT_DOUBLE_EQ(sleeps[2], 100.0);
}

TEST(NetTest, ConnectWithRetrySucceedsOnceListenerAppears) {
  // The "worker starts before the trainer listens" race, deterministically:
  // the listener comes up inside the first backoff sleep.
  const int port = FreePort();
  TcpListener late_listener;
  util::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff_ms = 1;
  std::string error;
  int attempts = 0;
  const int fd = util::TcpConnectWithRetry(
      "127.0.0.1", port, /*timeout_ms=*/2000, policy,
      [&](double /*ms*/) {
        if (!late_listener.listening()) {
          std::string listen_error;
          ASSERT_TRUE(late_listener.Listen("127.0.0.1", port, &listen_error))
              << listen_error;
        }
      },
      &error, &attempts);
  EXPECT_GE(fd, 0) << error;
  EXPECT_GE(attempts, 2);
  if (fd >= 0) ::close(fd);
}

// ---------------------------------------------------------------------------
// Framed transport over TCP: segmentation, EINTR, peer resets.
// ---------------------------------------------------------------------------

TEST(NetTest, FramesSplitAcrossTcpSegmentsReassemble) {
  Loopback conn;
  const std::string p1(300, 'x');
  const std::string p2(17, 'y');
  const std::string bytes = RawFrame(3, 0, p1) + RawFrame(4, 1, p2);

  // Dribble both frames 3 bytes per segment (TCP_NODELAY is set by
  // TcpConnect/Accept, so each send really leaves as its own segment), with
  // the reader concurrently mid-Read. Boundaries land everywhere: inside
  // the magic, inside the length, inside payloads, across the frame seam.
  std::thread dribbler([&] {
    for (size_t at = 0; at < bytes.size(); at += 3) {
      const size_t n = std::min<size_t>(3, bytes.size() - at);
      SendAll(conn.client, bytes.data() + at, n);
      if (at % 60 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });

  // Both reads finish (a failed one leaves the reader broken, so the next
  // returns at once) and the dribbler, which fits the socket buffer, is
  // joined before any ASSERT can return past it.
  FrameReader reader(conn.server);
  Frame first, second;
  const IpcStatus first_status = reader.Read(first, /*timeout_ms=*/10000);
  const IpcStatus second_status = reader.Read(second, /*timeout_ms=*/10000);
  dribbler.join();
  ASSERT_EQ(first_status, IpcStatus::kOk);
  EXPECT_EQ(first.type, 3u);
  EXPECT_EQ(first.payload, p1);
  ASSERT_EQ(second_status, IpcStatus::kOk);
  EXPECT_EQ(second.type, 4u);
  EXPECT_EQ(second.payload, p2);

  // The inverse case — two whole frames coalescing into one segment — must
  // come back out as two frames too.
  const std::string coalesced = RawFrame(5, 2, "ab") + RawFrame(6, 3, "cd");
  SendAll(conn.client, coalesced.data(), coalesced.size());
  Frame frame;
  ASSERT_EQ(reader.Read(frame, /*timeout_ms=*/2000), IpcStatus::kOk);
  EXPECT_EQ(frame.payload, "ab");
  ASSERT_EQ(reader.Read(frame, /*timeout_ms=*/2000), IpcStatus::kOk);
  EXPECT_EQ(frame.payload, "cd");
}

void SigUsr1Noop(int) {}

TEST(NetTest, EintrStormDoesNotCorruptABlockedRead) {
  // A handler installed WITHOUT SA_RESTART: every SIGUSR1 makes the blocked
  // poll/read return EINTR, which the transport must absorb silently.
  struct sigaction action {};
  struct sigaction old_action {};
  action.sa_handler = SigUsr1Noop;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &old_action), 0);

  Loopback conn;
  IpcStatus status = IpcStatus::kError;
  Frame frame;
  std::thread reader_thread([&] {
    FrameReader reader(conn.server);
    status = reader.Read(frame, /*timeout_ms=*/10000);
  });
  // Pummel the blocked reader with signals, then deliver the frame while
  // the storm is still running.
  const pthread_t target = reader_thread.native_handle();
  std::thread writer_thread([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    FrameWriter writer(conn.client);
    EXPECT_EQ(writer.Write(9, 0, std::string(2048, 'z'), /*timeout_ms=*/5000),
              IpcStatus::kOk);
  });
  for (int i = 0; i < 200; ++i) {
    ::pthread_kill(target, SIGUSR1);
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  writer_thread.join();
  reader_thread.join();
  EXPECT_EQ(status, IpcStatus::kOk);
  EXPECT_EQ(frame.payload, std::string(2048, 'z'));
  ::sigaction(SIGUSR1, &old_action, nullptr);
}

TEST(NetTest, PeerResetMidFrameSurfacesAsCorruptOrErrorNeverHangs) {
  Loopback conn;
  // Half a header, then an abortive close (SO_LINGER 0 => RST, no FIN).
  const std::string bytes = RawFrame(2, 0, std::string(100, 'q'));
  SendAll(conn.client, bytes.data(), 10);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  struct linger hard_close {};
  hard_close.l_onoff = 1;
  hard_close.l_linger = 0;
  ASSERT_EQ(::setsockopt(conn.client, SOL_SOCKET, SO_LINGER, &hard_close,
                         sizeof(hard_close)),
            0);
  ::close(conn.client);
  conn.client = -1;

  FrameReader reader(conn.server);
  Frame frame;
  const auto start = std::chrono::steady_clock::now();
  const IpcStatus status = reader.Read(frame, /*timeout_ms=*/5000);
  // Depending on whether the kernel hands over the torn bytes before the
  // reset, this is a torn frame (kCorrupt) or ECONNRESET (kError) — never a
  // valid frame, never a hang until the deadline.
  EXPECT_TRUE(status == IpcStatus::kCorrupt || status == IpcStatus::kError)
      << util::IpcStatusName(status);
  EXPECT_LT(ElapsedMs(start), 4000);
}

// ---------------------------------------------------------------------------
// Bounded writes: a peer that stops draining must yield kTimeout, not wedge
// the writer (the IPC write-path stall fix).
// ---------------------------------------------------------------------------

TEST(NetTest, BoundedWriteAgainstFullPipeReturnsTimeout) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Shrink the pipe to one page so a handful of frames fills it.
  ASSERT_GT(::fcntl(fds[1], F_SETPIPE_SZ, 4096), 0);
  util::IgnoreSigpipe();

  FrameWriter writer(fds[1]);
  const std::string payload(2000, 'f');
  IpcStatus status = IpcStatus::kOk;
  uint64_t seq = 0;
  const auto start = std::chrono::steady_clock::now();
  while (status == IpcStatus::kOk && seq < 64) {
    status = writer.Write(1, seq++, payload, /*timeout_ms=*/100);
  }
  EXPECT_EQ(status, IpcStatus::kTimeout);
  EXPECT_LT(seq, 64u);  // One page cannot hold 64 x 2KB frames.
  EXPECT_LT(ElapsedMs(start), 5000);

  // 0 = probe: a full buffer reports kTimeout without waiting at all.
  const auto probe_start = std::chrono::steady_clock::now();
  EXPECT_EQ(writer.Write(1, seq, payload, /*timeout_ms=*/0),
            IpcStatus::kTimeout);
  EXPECT_LT(ElapsedMs(probe_start), 100);

  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(NetTest, BoundedWriteAgainstFullSocketBufferReturnsTimeout) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Shrink the send buffer; the kernel clamps to its minimum (a few KiB),
  // still far below what the loop below writes.
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(fds[1], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)),
            0);
  util::IgnoreSigpipe();

  FrameWriter writer(fds[1]);
  const std::string payload(16000, 's');
  IpcStatus status = IpcStatus::kOk;
  uint64_t seq = 0;
  const auto start = std::chrono::steady_clock::now();
  while (status == IpcStatus::kOk && seq < 64) {
    status = writer.Write(1, seq++, payload, /*timeout_ms=*/100);
  }
  EXPECT_EQ(status, IpcStatus::kTimeout);
  EXPECT_LT(ElapsedMs(start), 10000);

  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(NetTest, WriteToClosedPeerReturnsErrorNotSigpipe) {
  util::IgnoreSigpipe();
  // Socket: MSG_NOSIGNAL turns the dead peer into EPIPE -> kError.
  {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ::close(fds[0]);
    FrameWriter writer(fds[1]);
    EXPECT_EQ(writer.Write(1, 0, "payload", /*timeout_ms=*/1000),
              IpcStatus::kError);
    ::close(fds[1]);
  }
  // Pipe: no MSG_NOSIGNAL exists; the install-once SIG_IGN does the job.
  {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ::close(fds[0]);
    FrameWriter writer(fds[1]);
    EXPECT_EQ(writer.Write(1, 0, "payload", /*timeout_ms=*/1000),
              IpcStatus::kError);
    ::close(fds[1]);
  }
  // Reaching this line at all proves no SIGPIPE killed the process.
}

// ---------------------------------------------------------------------------
// Read sentinel semantics.
// ---------------------------------------------------------------------------

TEST(NetTest, ZeroTimeoutReadServesOnlyAlreadyBufferedData) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  FrameReader reader(fds[0]);
  Frame frame;

  // Empty pipe: the probe refuses to wait.
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/0), IpcStatus::kTimeout);
  EXPECT_LT(ElapsedMs(start), 100);

  // A buffered whole frame is served by the same zero-cost probe.
  const std::string bytes = RawFrame(11, 0, "buffered");
  ASSERT_EQ(::write(fds[1], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  start = std::chrono::steady_clock::now();
  ASSERT_EQ(reader.Read(frame, /*timeout_ms=*/0), IpcStatus::kOk);
  EXPECT_LT(ElapsedMs(start), 100);
  EXPECT_EQ(frame.type, 11u);
  EXPECT_EQ(frame.payload, "buffered");

  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(NetTest, NegativeTimeoutBlocksUntilTheFrameArrives) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  IpcStatus status = IpcStatus::kError;
  Frame frame;
  std::thread reader_thread([&] {
    FrameReader reader(fds[0]);
    status = reader.Read(frame, /*timeout_ms=*/-1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  FrameWriter writer(fds[1]);
  ASSERT_EQ(writer.Write(12, 0, "late", /*timeout_ms=*/1000), IpcStatus::kOk);
  reader_thread.join();
  EXPECT_EQ(status, IpcStatus::kOk);
  EXPECT_EQ(frame.payload, "late");
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// Read-ahead: one read takes every frame the kernel holds.
// ---------------------------------------------------------------------------

/// Pipe pair whose ends can be closed early; closes the rest on scope exit.
struct PipePair {
  int fds[2] = {-1, -1};
  PipePair() { EXPECT_EQ(::pipe(fds), 0); }
  ~PipePair() {
    CloseRead();
    CloseWrite();
  }
  void Put(const std::string& bytes) {
    ASSERT_EQ(::write(fds[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
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

std::string Payload(size_t n, uint64_t salt) {
  std::string payload(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<char>((i * 131 + salt * 7919) >> 3);
  }
  return payload;
}

TEST(NetTest, FramesFromOneWriteAreServedFromTheReadAhead) {
  PipePair p;
  constexpr uint64_t kFrames = 40;
  std::string bytes;
  for (uint64_t seq = 0; seq < kFrames; ++seq) {
    bytes += RawFrame(static_cast<uint32_t>(seq % 5), seq,
                      Payload(seq * 37 % 300, seq));
  }
  p.Put(bytes);
  FrameReader reader(p.fds[0]);
  EXPECT_FALSE(reader.HasBufferedFrame());
  for (uint64_t seq = 0; seq < kFrames; ++seq) {
    Frame frame;
    ASSERT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kOk);
    EXPECT_EQ(frame.seq, seq);
    EXPECT_EQ(frame.type, static_cast<uint32_t>(seq % 5));
    EXPECT_EQ(frame.payload, Payload(seq * 37 % 300, seq));
    EXPECT_EQ(reader.HasBufferedFrame(), seq + 1 < kFrames) << seq;
  }
}

TEST(NetTest, TwoFramesSplitAtEveryOffsetReassemble) {
  const std::string first = Payload(41, 1);
  const std::string second = Payload(29, 2);
  const std::string bytes = RawFrame(3, 0, first) + RawFrame(4, 1, second);
  const size_t seam = util::kFrameHeaderBytes + first.size();
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    PipePair p;
    FrameReader reader(p.fds[0]);
    Frame frame;
    p.Put(bytes.substr(0, cut));
    // A probe takes whatever arrived; a partial frame stays buffered.
    const IpcStatus probe = reader.Read(frame, /*timeout_ms=*/0);
    EXPECT_EQ(probe, cut >= seam ? IpcStatus::kOk : IpcStatus::kTimeout);
    p.Put(bytes.substr(cut));
    p.CloseWrite();
    if (probe != IpcStatus::kOk) {
      ASSERT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kOk);
    }
    EXPECT_EQ(frame.type, 3u);
    EXPECT_EQ(frame.payload, first);
    ASSERT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kOk);
    EXPECT_EQ(frame.type, 4u);
    EXPECT_EQ(frame.payload, second);
    EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kEof);
  }
}

TEST(NetTest, EofIsCleanOnlyAtAFrameBoundary) {
  const std::string whole = RawFrame(1, 0, "whole");
  {
    PipePair p;
    p.Put(whole);
    p.CloseWrite();
    FrameReader reader(p.fds[0]);
    Frame frame;
    ASSERT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kOk);
    EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kEof);
  }
  // Part of a second frame buffered when EOF arrives: a torn frame.
  for (size_t part : {size_t{1}, size_t{23}, size_t{24}, size_t{27}}) {
    SCOPED_TRACE("partial bytes " + std::to_string(part));
    PipePair p;
    p.Put(whole + RawFrame(2, 1, "torn").substr(0, part));
    p.CloseWrite();
    FrameReader reader(p.fds[0]);
    Frame frame;
    ASSERT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kOk);
    EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kCorrupt);
    // kCorrupt is final.
    EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kCorrupt);
  }
}

TEST(NetTest, DamageInTheSecondBufferedFrameFailsOnlyThatFrame) {
  const std::string first = RawFrame(1, 0, Payload(100, 1));
  std::string bad_crc = RawFrame(2, 1, Payload(100, 2));
  bad_crc[util::kFrameHeaderBytes + 50] ^= 0x10;
  const std::string seq_gap = RawFrame(2, 2, Payload(100, 2));
  for (const std::string& second : {bad_crc, seq_gap}) {
    PipePair p;
    p.Put(first + second);
    FrameReader reader(p.fds[0]);
    Frame frame;
    ASSERT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kOk);
    EXPECT_EQ(frame.payload, Payload(100, 1));
    EXPECT_TRUE(reader.HasBufferedFrame());
    EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kCorrupt);
  }
}

TEST(NetTest, BufferedFrameIsServedAfterTheReadEndIsClosed) {
  // With the fd closed, any poll or read fails: serving the second frame
  // proves Read made no syscall for it.
  PipePair p;
  p.Put(RawFrame(1, 0, "one") + RawFrame(2, 1, "two"));
  FrameReader reader(p.fds[0]);
  Frame frame;
  ASSERT_EQ(reader.Read(frame, /*timeout_ms=*/1000), IpcStatus::kOk);
  p.CloseRead();
  ASSERT_TRUE(reader.HasBufferedFrame());
  ASSERT_EQ(reader.Read(frame, /*timeout_ms=*/-1), IpcStatus::kOk);
  EXPECT_EQ(frame.type, 2u);
  EXPECT_EQ(frame.payload, "two");
}

TEST(NetTest, PayloadsAboveTheDirectReadCutOffInterleaveWithSmallFrames) {
  // Large payloads take the buffered head and read the rest in place; the
  // small frames around them still come from the read-ahead.
  const std::vector<size_t> sizes = {
      10, FrameReader::kDirectReadBytes, FrameReader::kDirectReadBytes + 1,
      7, FrameReader::kReadAheadBytes, 3 * FrameReader::kReadAheadBytes + 5, 0};
  std::string bytes;
  for (size_t i = 0; i < sizes.size(); ++i) {
    bytes += RawFrame(9, i, Payload(sizes[i], i));
  }
  util::IgnoreSigpipe();
  PipePair p;
  std::thread writer([&] {
    size_t at = 0;
    while (at < bytes.size()) {
      const ssize_t n = ::write(p.fds[1], bytes.data() + at,
                                std::min<size_t>(5000, bytes.size() - at));
      ASSERT_GT(n, 0);
      at += static_cast<size_t>(n);
    }
    p.CloseWrite();
  });
  FrameReader reader(p.fds[0]);
  size_t read = 0;
  for (; read < sizes.size(); ++read) {
    Frame frame;
    const IpcStatus status = reader.Read(frame, /*timeout_ms=*/10000);
    EXPECT_EQ(status, IpcStatus::kOk) << read;
    if (status != IpcStatus::kOk) break;
    EXPECT_EQ(frame.seq, read);
    EXPECT_TRUE(frame.payload == Payload(sizes[read], read))
        << "frame " << read;
  }
  if (read == sizes.size()) {
    Frame frame;
    EXPECT_EQ(reader.Read(frame, /*timeout_ms=*/10000), IpcStatus::kEof);
  }
  // After a failed read the writer may be blocked on a full pipe: closing
  // the read end turns its write into EPIPE, so the thread can be joined.
  p.CloseRead();
  writer.join();
}

// ---------------------------------------------------------------------------
// FrameWriter bursts.
// ---------------------------------------------------------------------------

/// Drains everything readable from a pipe's read end (the writer is done).
std::string DrainPipe(int fd) {
  std::string bytes;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    bytes.append(chunk, static_cast<size_t>(n));
  }
  return bytes;
}

TEST(NetTest, AppendAndFlushEmitTheSameBytesAsWrite) {
  struct Spec {
    uint32_t type;
    std::string payload;
    long corrupt_byte;
  };
  const std::vector<Spec> frames = {
      {1, "", -1}, {2, Payload(5, 2), -1}, {3, Payload(300, 3), 17},
      {4, Payload(64, 4), 0}, {5, Payload(1000, 5), -1}};
  PipePair single;
  PipePair burst;
  {
    FrameWriter one(single.fds[1]);
    FrameWriter many(burst.fds[1]);
    for (size_t i = 0; i < frames.size(); ++i) {
      ASSERT_EQ(one.Write(frames[i].type, i, frames[i].payload,
                          /*timeout_ms=*/1000, frames[i].corrupt_byte),
                IpcStatus::kOk);
      ASSERT_EQ(many.Append(frames[i].type, i, frames[i].payload,
                            frames[i].corrupt_byte),
                IpcStatus::kOk);
    }
    ASSERT_EQ(many.Flush(/*timeout_ms=*/1000), IpcStatus::kOk);
    // Nothing staged: a second Flush sends nothing.
    ASSERT_EQ(many.Flush(/*timeout_ms=*/0), IpcStatus::kOk);
    // An oversized payload is refused and stages nothing.
    EXPECT_EQ(many.Append(6, frames.size(),
                          std::string(util::kMaxFramePayload + 1, 'x')),
              IpcStatus::kError);
    ASSERT_EQ(many.Flush(/*timeout_ms=*/0), IpcStatus::kOk);
  }
  single.CloseWrite();
  burst.CloseWrite();
  // Both equal the documented layout, with the hook's post-CRC flip.
  std::string expected;
  for (size_t i = 0; i < frames.size(); ++i) {
    std::string frame = RawFrame(frames[i].type, i, frames[i].payload);
    if (frames[i].corrupt_byte >= 0) {
      frame[util::kFrameHeaderBytes +
            static_cast<size_t>(frames[i].corrupt_byte)] ^=
          static_cast<char>(0xFF);
    }
    expected += frame;
  }
  const std::string via_write = DrainPipe(single.fds[0]);
  const std::string via_flush = DrainPipe(burst.fds[0]);
  EXPECT_TRUE(via_write == expected);
  EXPECT_TRUE(via_flush == expected);
}

TEST(NetTest, FlushAgainstFullSocketBufferReturnsTimeoutWithinBudget) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(fds[1], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)),
            0);
  util::IgnoreSigpipe();
  FrameWriter writer(fds[1]);
  for (uint64_t seq = 0; seq < 64; ++seq) {
    ASSERT_EQ(writer.Append(1, seq, Payload(16000, seq)), IpcStatus::kOk);
  }
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(writer.Flush(/*timeout_ms=*/100), IpcStatus::kTimeout);
  const long waited = ElapsedMs(start);
  EXPECT_GE(waited, 90);
  EXPECT_LT(waited, 2000);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// Serving frontend: a burst of pipelined requests.
// ---------------------------------------------------------------------------

TEST(NetTest, FrontendAnswersABurstInOrderWithinThePipelineBound) {
  // 300 Acts arrive in one send while every inference batch stalls, so the
  // frontend finds many whole frames at once and the pipeline bound is what
  // holds them back. The replies must come back in request order, each
  // bit-identical to a direct DispatchServer::Act, and a Health probe on a
  // second connection must never see more than max_pipeline + 2 of this
  // connection's requests queued (the pending replies, plus one held by
  // the writer and one by the reader).
  env::EnvConfig config;
  config.num_timeslots = 6;
  config.num_pois = 10;
  config.num_uavs = 1;
  config.num_ugvs = 1;
  env::ScEnv env(config, map::BuildDataset(map::CampusId::kPurdue, 10), 1);
  core::TrainConfig train;
  train.net.hidden = {16};
  train.eoi.hidden = {12};
  train.seed = 7;
  train.verbose = false;
  core::HiMadrlTrainer trainer(env, train);
  const std::shared_ptr<core::PolicySnapshot> snapshot =
      core::PolicySnapshot::FromTrainer(trainer, "<burst>");

  core::DispatchConfig dconfig;
  dconfig.num_sessions = 1;
  dconfig.max_batch = 2;
  dconfig.deadline_ms = 0;
  dconfig.max_queue = 0;
  core::DispatchServer served(env, dconfig);
  served.PublishSnapshot(snapshot);
  served.Start();

  util::FaultInjector::Config fault;
  fault.stall_every = 1;
  fault.stall_ms = 2;
  util::FaultInjector::Instance().set_config(fault);

  core::ServeFrontend::Options fopts;
  fopts.listen_address = "127.0.0.1:0";
  fopts.max_pipeline = 8;
  core::ServeFrontend frontend(served, fopts);
  frontend.Start();
  const int port = frontend.bound_port();

  // Distinct observations, so a reply out of order cannot match its slot.
  constexpr int kRequests = 300;
  const std::vector<float> base = env.Reset().observations[0];
  std::vector<core::ServeActRequest> requests(kRequests);
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    requests[i].agent = i % env.num_agents();
    requests[i].obs = base;
    requests[i].obs[static_cast<size_t>(i) % base.size()] +=
        0.01f * static_cast<float>(i + 1);
    burst += RawFrame(core::kSrvMsgActRequest, static_cast<uint64_t>(i),
                      core::EncodeServeActRequest(requests[i]));
  }

  std::string error;
  const int fd = util::TcpConnect("127.0.0.1", port, 5000, &error);
  ASSERT_GE(fd, 0) << error;
  ASSERT_TRUE(util::SetNonBlocking(fd, false));
  std::thread sender([&] { SendAll(fd, burst.data(), burst.size()); });

  std::atomic<bool> done{false};
  uint64_t max_depth = 0;
  bool health_ok = true;
  std::thread prober([&] {
    core::ServeClient probe;
    std::string probe_error;
    health_ok = probe.Connect("127.0.0.1", port, 5000, &probe_error);
    while (health_ok && !done.load()) {
      core::DispatchHealth health;
      health_ok = probe.Health(/*timeout_ms=*/10000, health);
      max_depth = std::max(max_depth, health.queue_depth);
    }
  });

  FrameReader reader(fd);
  std::vector<core::DispatchResult> replies(kRequests);
  int answered = 0;
  for (; answered < kRequests; ++answered) {
    Frame frame;
    const IpcStatus status = reader.Read(frame, /*timeout_ms=*/20000);
    EXPECT_EQ(status, IpcStatus::kOk) << "reply " << answered;
    if (status != IpcStatus::kOk) break;
    if (frame.type != core::kSrvMsgResponse ||
        !core::DecodeServeResponse(frame.payload, replies[answered])) {
      ADD_FAILURE() << "reply " << answered << " of type " << frame.type
                    << " is not a decodable response";
      break;
    }
  }
  done.store(true);
  // After a failed read the sender may be blocked on a full socket: the
  // shutdown turns its send into an error, so both threads can be joined.
  if (answered < kRequests) ::shutdown(fd, SHUT_RDWR);
  sender.join();
  prober.join();
  ::close(fd);
  util::FaultInjector::Instance().Reset();
  frontend.Stop();
  served.Stop();

  ASSERT_EQ(answered, kRequests);
  EXPECT_TRUE(health_ok);
  EXPECT_GT(max_depth, 0u);  // The probe saw the queue under load.
  EXPECT_LE(max_depth, static_cast<uint64_t>(fopts.max_pipeline + 2));

  // The oracle runs after the stall is disarmed.
  core::DispatchServer oracle(env, dconfig);
  oracle.PublishSnapshot(snapshot);
  oracle.Start();
  for (int i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const core::DispatchResult direct =
        oracle.Act(requests[i].agent, requests[i].obs);
    ASSERT_TRUE(replies[i].ok);
    ASSERT_TRUE(direct.ok);
    EXPECT_EQ(std::bit_cast<uint32_t>(replies[i].action[0]),
              std::bit_cast<uint32_t>(direct.action[0]));
    EXPECT_EQ(std::bit_cast<uint32_t>(replies[i].action[1]),
              std::bit_cast<uint32_t>(direct.action[1]));
    EXPECT_EQ(replies[i].snapshot_version, direct.snapshot_version);
  }
  oracle.Stop();
}

}  // namespace
}  // namespace agsc
