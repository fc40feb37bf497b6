#ifndef AGSC_CORE_SERVE_PROTOCOL_H_
#define AGSC_CORE_SERVE_PROTOCOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/dispatch_server.h"
#include "util/ipc.h"
#include "util/net.h"

namespace agsc::core {

/// Wire protocol of the networked serving frontend: the DispatchServer's
/// entry points (Act, StepSession, Health) exposed as framed
/// request/response pairs over TCP (util/net sockets carrying util/ipc
/// length-prefixed CRC frames — the exact transport the rollout workers
/// speak, reused rather than reinvented).
///
/// Each connection is an independent conversation: frame `seq` starts at 0
/// per direction and increments per frame, so a dropped or reordered frame
/// is caught by the reader's gap check. Requests PIPELINE: a client may
/// send many requests before reading responses, and the frontend answers
/// strictly in request order per connection (one response frame per
/// request frame, kSrvMsgHealthResponse for health and kSrvMsgResponse for
/// everything else). ServeClient offers both the lock-step round-trip and
/// the split Send*/ReadResponse halves for pipelined use.
///
/// v2 (this version) adds overload semantics: requests carry a `priority`
/// (higher survives brownout shedding longer), responses carry
/// `rejected`/`overloaded` flags plus a RejectReason, and a Health
/// request/response pair exposes queue depth, shed counts, and snapshot
/// version for load-balancer probes. Health is answered by the frontend
/// from DispatchServer::Health() WITHOUT entering the admission queue —
/// but it still takes its FIFO slot in this connection's response order,
/// so probes that must not wait behind pipelined inference should use a
/// dedicated connection. v1 peers are refused (version checks fail and
/// the connection drops); both ends of this repo speak v2.
///
/// The inference path adds NO semantics of its own: every admitted request
/// is handed to the in-process DispatchServer, so a framed Act over
/// loopback returns an action bit-identical to a direct
/// DispatchServer::Act call against the same snapshot — serving_soak_test
/// pins exactly that. Deadlines, batching, admission, fairness, snapshot
/// pinning, and fail-fast expiry all happen in the DispatchServer; the
/// frontend only moves bytes (and quarantines peers that stop moving
/// theirs — see ServeFrontend).
inline constexpr uint32_t kServeProtocolVersion = 2;

enum ServeMsgType : uint32_t {
  /// Client -> frontend: stateless inference.
  /// {agent i32, obs F32Vec, priority i32}.
  kSrvMsgActRequest = 1,
  /// Client -> frontend: step a server-side session.
  /// {session i32, priority i32}.
  kSrvMsgStepRequest = 2,
  /// Frontend -> client: one DispatchResult. Answers Act/Step requests.
  kSrvMsgResponse = 3,
  /// Client -> frontend: health probe (empty body besides the version).
  kSrvMsgHealthRequest = 4,
  /// Frontend -> client: one DispatchHealth. Answers a health request.
  kSrvMsgHealthResponse = 5,
};

struct ServeActRequest {
  int32_t agent = 0;
  std::vector<float> obs;
  int32_t priority = 0;
};

struct ServeStepRequest {
  int32_t session = 0;
  int32_t priority = 0;
};

std::string EncodeServeActRequest(const ServeActRequest& req);
bool DecodeServeActRequest(const std::string& payload, ServeActRequest& out);
std::string EncodeServeStepRequest(const ServeStepRequest& req);
bool DecodeServeStepRequest(const std::string& payload, ServeStepRequest& out);

/// DispatchResult crosses the wire losslessly: floats/doubles as raw bit
/// patterns, the outcome flags packed into a bitmask plus a reason word.
std::string EncodeServeResponse(const DispatchResult& result);
bool DecodeServeResponse(const std::string& payload, DispatchResult& out);

std::string EncodeServeHealthRequest();
bool DecodeServeHealthRequest(const std::string& payload);
std::string EncodeServeHealthResponse(const DispatchHealth& health);
bool DecodeServeHealthResponse(const std::string& payload,
                               DispatchHealth& out);

/// TCP frontend for a DispatchServer: accepts connections on a listening
/// socket and serves framed Act/StepSession/Health requests against the
/// wrapped (caller-owned, already Start()ed) server.
///
/// Threading: one acceptor thread (poll(2) over the listener plus an
/// internal wake pipe, so an idle frontend accepts with ~0 latency and
/// Stop() reacts on the next poll wakeup — no fixed tick), plus one
/// reader and one writer thread per live connection. The reader decodes
/// frames and submits them ASYNCHRONOUSLY (DispatchServer::ActAsync /
/// StepSessionAsync) under this connection's client id, queueing the
/// result futures on an ordered pending-reply deque the writer drains —
/// that is what lets one connection keep many requests in flight and what
/// makes per-client fairness observable end to end. `max_pipeline` bounds
/// the deque; a peer that overruns it is simply backpressured (its reader
/// stops reading, TCP flow control does the rest).
///
/// Bursts: after each blocking read the reader also submits every whole
/// frame its FrameReader already buffered, up to the deque's free room,
/// and queues the replies under one lock with one notify. So a connection
/// still has at most max_pipeline + 2 requests in the dispatch server:
/// the deque, the writer's oldest and the reader's first. The writer
/// blocks only on the oldest reply, then takes every later reply that has
/// already completed and sends the run with one Flush; it never waits for
/// one reply to send another.
///
/// Slow-client quarantine: every Flush of a run of responses is bounded
/// by `write_timeout_ms` (the connection's write budget). A peer that
/// stops draining its socket trips the budget; the frontend then cancels
/// the client's queued dispatch work (DispatchServer::CancelClient — shed
/// as `rejected`/disconnect, so batch slots go back to live clients),
/// counts the quarantine, and tears the connection down. `send_buffer_bytes`
/// optionally shrinks SO_SNDBUF on accepted sockets so tests can trip the
/// budget without writing megabytes.
///
/// Stop() discipline: handler reads are unbounded (a quiet client costs
/// nothing), so shutdown works by shutdown(2)-ing every live connection —
/// the blocked reads see EOF and the handlers unwind; no timeout-tearing
/// mid-frame. Pending replies drain before a writer exits: every accepted
/// frame is answered or its connection is dead, never silently dropped.
class ServeFrontend {
 public:
  struct Options {
    std::string listen_address;     ///< "HOST:PORT"; port 0 = kernel pick.
    long write_timeout_ms = 5000;   ///< Per-connection write budget.
    int max_connections = 64;       ///< Accepts beyond this are closed.
    int max_pipeline = 256;         ///< In-flight requests per connection.
    int send_buffer_bytes = 0;      ///< SO_SNDBUF on accepted fds; 0 = OS.
  };

  /// Binds and listens immediately; throws util::NetError when the address
  /// is unusable (agsc_serve maps it to util::kExitNetError).
  ServeFrontend(DispatchServer& server, const Options& options);
  ~ServeFrontend();

  ServeFrontend(const ServeFrontend&) = delete;
  ServeFrontend& operator=(const ServeFrontend&) = delete;

  /// Starts the acceptor thread. Idempotent.
  void Start();
  /// Stops accepting, unblocks and joins every handler. Idempotent.
  void Stop();

  int bound_port() const { return listener_.bound_port(); }

  /// Connections accepted over this frontend's lifetime (tests/stats).
  uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }
  /// Connections torn down for tripping their write budget.
  uint64_t clients_quarantined() const {
    return clients_quarantined_.load(std::memory_order_relaxed);
  }

 private:
  /// One response slot, FIFO per connection. Health probes are answered
  /// from a pre-encoded payload; everything else waits on its dispatch
  /// future (which ALWAYS completes — served, expired, rejected, shed, or
  /// shutdown — so the writer never wedges on a slot).
  struct PendingReply {
    bool is_health = false;
    std::string health_payload;
    std::future<DispatchResult> future;
  };

  struct Conn {
    int fd = -1;
    uint64_t client = 0;  ///< Dispatch fairness key for this connection.
    std::thread reader;
    std::thread writer;
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<PendingReply> pending;
    bool reader_done = false;   ///< No more requests will be queued.
    bool quarantined = false;   ///< Write budget tripped; shedding.
    std::atomic<bool> done{false};  ///< Both threads exiting; reapable.
  };

  void AcceptLoop();
  /// Decodes one request frame and submits it under `client`; false for a
  /// malformed or unknown request.
  bool Submit(const util::Frame& frame, uint64_t client, PendingReply& reply);
  void ReaderLoop(Conn* conn);
  void WriterLoop(Conn* conn);
  /// Cancels the connection's dispatch work and tears the socket down
  /// (quarantine or write failure; `count` = report as quarantine).
  void AbandonConn(Conn* conn, bool count_quarantine);
  /// Joins finished handlers and drops their slots (acceptor thread only).
  void ReapFinished();
  /// Pokes the acceptor's poll (connection finished, Stop requested).
  void WakeAcceptor();

  DispatchServer& server_;
  Options options_;
  util::TcpListener listener_;
  std::thread acceptor_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> clients_quarantined_{0};
  uint64_t next_client_ordinal_ = 0;  ///< Acceptor thread only.
  int wake_pipe_[2] = {-1, -1};       ///< poll(2) wakeup channel.

  std::mutex conns_mutex_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

/// Minimal blocking client for the frontend: one connection. The Act /
/// StepSession / Health calls are lock-step round-trips (send one frame,
/// read one response); the SendAct/SendStep + ReadResponse halves let a
/// caller pipeline many requests per connection — used by agsc_serve's
/// flood fleet and the overload soak scenarios. Real deployments can speak
/// the protocol from anything that can frame bytes.
class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient() { Close(); }

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Connects with `timeout_ms` per the util/ipc sentinel convention
  /// (negative = unbounded). False on failure (`error` filled if given).
  bool Connect(const std::string& host, int port, long timeout_ms,
               std::string* error = nullptr);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// One framed Act round-trip; `timeout_ms` bounds the response read.
  /// False on transport failure (the connection is then unusable).
  bool Act(int agent, const std::vector<float>& obs, long timeout_ms,
           DispatchResult& out, int priority = 0);
  /// One framed StepSession round-trip.
  bool StepSession(int session, long timeout_ms, DispatchResult& out,
                   int priority = 0);
  /// One framed health-probe round-trip.
  bool Health(long timeout_ms, DispatchHealth& out);

  /// Pipelined halves: queue a request frame without waiting for its
  /// response (`timeout_ms` bounds only the write)...
  bool SendAct(int agent, const std::vector<float>& obs, long timeout_ms,
               int priority = 0);
  bool SendStep(int session, long timeout_ms, int priority = 0);
  /// ...and collect the next in-order response. One ReadResponse per
  /// successful Send*.
  bool ReadResponse(long timeout_ms, DispatchResult& out);

 private:
  bool SendFrame(uint32_t type, const std::string& payload, long timeout_ms);
  bool RoundTrip(uint32_t type, const std::string& payload, long timeout_ms,
                 DispatchResult& out);

  int fd_ = -1;
  std::unique_ptr<util::FrameWriter> writer_;
  std::unique_ptr<util::FrameReader> reader_;
  uint64_t out_seq_ = 0;
};

}  // namespace agsc::core

#endif  // AGSC_CORE_SERVE_PROTOCOL_H_
