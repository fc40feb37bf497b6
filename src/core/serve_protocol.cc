#include "core/serve_protocol.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/fault_inject.h"
#include "util/logging.h"

namespace agsc::core {

namespace {

using util::WireReader;
using util::WireWriter;

// DispatchResult outcome flags on the wire.
constexpr uint32_t kFlagOk = 1u << 0;
constexpr uint32_t kFlagExpired = 1u << 1;
constexpr uint32_t kFlagShutdown = 1u << 2;
constexpr uint32_t kFlagEpisodeDone = 1u << 3;
constexpr uint32_t kFlagRejected = 1u << 4;
constexpr uint32_t kFlagOverloaded = 1u << 5;
constexpr uint32_t kResponseFlags = kFlagOk | kFlagExpired | kFlagShutdown |
                                    kFlagEpisodeDone | kFlagRejected |
                                    kFlagOverloaded;

// DispatchHealth flags.
constexpr uint32_t kHealthFlagOverloaded = 1u << 0;
constexpr uint32_t kHealthFlags = kHealthFlagOverloaded;

}  // namespace

std::string EncodeServeActRequest(const ServeActRequest& req) {
  WireWriter w;
  w.U32(kServeProtocolVersion);
  w.I32(req.agent);
  w.F32Vec(req.obs);
  w.I32(req.priority);
  return w.Take();
}

bool DecodeServeActRequest(const std::string& payload, ServeActRequest& out) {
  WireReader r(payload);
  if (r.U32() != kServeProtocolVersion) return false;
  out.agent = r.I32();
  if (!r.F32Vec(out.obs)) return false;
  out.priority = r.I32();
  return r.Done();
}

std::string EncodeServeStepRequest(const ServeStepRequest& req) {
  WireWriter w;
  w.U32(kServeProtocolVersion);
  w.I32(req.session);
  w.I32(req.priority);
  return w.Take();
}

bool DecodeServeStepRequest(const std::string& payload,
                            ServeStepRequest& out) {
  WireReader r(payload);
  if (r.U32() != kServeProtocolVersion) return false;
  out.session = r.I32();
  out.priority = r.I32();
  return r.Done();
}

std::string EncodeServeResponse(const DispatchResult& result) {
  WireWriter w;
  w.U32(kServeProtocolVersion);
  uint32_t flags = 0;
  if (result.ok) flags |= kFlagOk;
  if (result.expired) flags |= kFlagExpired;
  if (result.shutdown) flags |= kFlagShutdown;
  if (result.episode_done) flags |= kFlagEpisodeDone;
  if (result.rejected) flags |= kFlagRejected;
  if (result.overloaded) flags |= kFlagOverloaded;
  w.U32(flags);
  w.U32(static_cast<uint32_t>(result.reject_reason));
  w.F32(result.action[0]);
  w.F32(result.action[1]);
  w.U64(result.snapshot_version);
  w.F64(result.latency_ms);
  return w.Take();
}

bool DecodeServeResponse(const std::string& payload, DispatchResult& out) {
  WireReader r(payload);
  if (r.U32() != kServeProtocolVersion) return false;
  const uint32_t flags = r.U32();
  const uint32_t reason = r.U32();
  out.action[0] = r.F32();
  out.action[1] = r.F32();
  out.snapshot_version = r.U64();
  out.latency_ms = r.F64();
  if (!r.Done()) return false;
  // Bits with no meaning are refused, so an accepted reply re-encodes to
  // the bytes it came from.
  if ((flags & ~kResponseFlags) != 0) return false;
  if (reason > static_cast<uint32_t>(RejectReason::kDisconnect)) return false;
  out.ok = (flags & kFlagOk) != 0;
  out.expired = (flags & kFlagExpired) != 0;
  out.shutdown = (flags & kFlagShutdown) != 0;
  out.episode_done = (flags & kFlagEpisodeDone) != 0;
  out.rejected = (flags & kFlagRejected) != 0;
  out.overloaded = (flags & kFlagOverloaded) != 0;
  out.reject_reason = static_cast<RejectReason>(reason);
  return true;
}

std::string EncodeServeHealthRequest() {
  WireWriter w;
  w.U32(kServeProtocolVersion);
  return w.Take();
}

bool DecodeServeHealthRequest(const std::string& payload) {
  WireReader r(payload);
  if (r.U32() != kServeProtocolVersion) return false;
  return r.Done();
}

std::string EncodeServeHealthResponse(const DispatchHealth& health) {
  WireWriter w;
  w.U32(kServeProtocolVersion);
  uint32_t flags = 0;
  if (health.overloaded) flags |= kHealthFlagOverloaded;
  w.U32(flags);
  w.U64(health.queue_depth);
  w.U64(health.snapshot_version);
  w.U64(health.requests_ok);
  w.U64(health.requests_expired);
  w.U64(health.requests_rejected);
  w.U64(health.requests_shed);
  w.U64(health.clients_quarantined);
  w.F64(health.ewma_batch_ms);
  return w.Take();
}

bool DecodeServeHealthResponse(const std::string& payload,
                               DispatchHealth& out) {
  WireReader r(payload);
  if (r.U32() != kServeProtocolVersion) return false;
  const uint32_t flags = r.U32();
  out.queue_depth = r.U64();
  out.snapshot_version = r.U64();
  out.requests_ok = r.U64();
  out.requests_expired = r.U64();
  out.requests_rejected = r.U64();
  out.requests_shed = r.U64();
  out.clients_quarantined = r.U64();
  out.ewma_batch_ms = r.F64();
  if (!r.Done() || (flags & ~kHealthFlags) != 0) return false;
  out.overloaded = (flags & kHealthFlagOverloaded) != 0;
  return true;
}

// --- ServeFrontend ---------------------------------------------------------

ServeFrontend::ServeFrontend(DispatchServer& server, const Options& options)
    : server_(server), options_(options) {
  util::IgnoreSigpipe();
  if (options_.max_pipeline < 1) options_.max_pipeline = 1;
  std::string host;
  int port = 0;
  std::string parse_error;
  if (!util::ParseHostPort(options_.listen_address, &host, &port,
                           &parse_error)) {
    throw util::NetError("bad listen address: " + parse_error);
  }
  std::string error;
  if (!listener_.Listen(host, port, &error)) {
    throw util::NetError("cannot listen on " + options_.listen_address +
                         ": " + error);
  }
  if (::pipe(wake_pipe_) != 0) {
    listener_.Close();
    throw util::NetError("cannot create frontend wake pipe");
  }
  for (int end : {0, 1}) {
    util::SetNonBlocking(wake_pipe_[end], true);
    ::fcntl(wake_pipe_[end], F_SETFD, FD_CLOEXEC);
  }
}

ServeFrontend::~ServeFrontend() {
  Stop();
  for (int end : {0, 1}) {
    if (wake_pipe_[end] >= 0) ::close(wake_pipe_[end]);
    wake_pipe_[end] = -1;
  }
}

void ServeFrontend::Start() {
  if (running_.exchange(true)) return;
  stop_requested_.store(false);
  acceptor_ = std::thread([this] { AcceptLoop(); });
}

void ServeFrontend::Stop() {
  if (!running_.load()) return;
  stop_requested_.store(true);
  // The wake byte stays queued in the pipe until the acceptor drains it
  // *after* poll returns, so the wakeup cannot be lost; the listener is
  // closed only after the join — the acceptor reads listener_.fd() each
  // iteration, and closing it concurrently would race that read.
  WakeAcceptor();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Close();
  // Unblock every handler read with EOF, then join.
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const std::unique_ptr<Conn>& conn : conns_) {
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (const std::unique_ptr<Conn>& conn : conns_) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
    if (conn->fd >= 0) ::close(conn->fd);
    conn->fd = -1;
  }
  conns_.clear();
  running_.store(false);
}

void ServeFrontend::WakeAcceptor() {
  if (wake_pipe_[1] < 0) return;
  const char byte = 1;
  // Nonblocking: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void ServeFrontend::ReapFinished() {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  for (size_t i = 0; i < conns_.size();) {
    if (conns_[i]->done.load(std::memory_order_acquire)) {
      Conn& conn = *conns_[i];
      if (conn.reader.joinable()) conn.reader.join();
      if (conn.writer.joinable()) conn.writer.join();
      if (conn.fd >= 0) ::close(conn.fd);
      conn.fd = -1;
      conns_.erase(conns_.begin() + static_cast<long>(i));
    } else {
      ++i;
    }
  }
}

void ServeFrontend::AcceptLoop() {
  while (!stop_requested_.load()) {
    // poll(2) over the listener and the wake pipe: a pending connection or
    // a wake byte (Stop, a finished handler) is noticed immediately — the
    // old 250 ms accept tick cost every idle connect up to a tick of
    // latency and every Stop up to a tick of shutdown lag.
    struct pollfd fds[2];
    fds[0].fd = listener_.fd();
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = wake_pipe_[0];
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    const int rc = ::poll(fds, 2, /*timeout=*/-1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) {
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
    }
    ReapFinished();
    if (stop_requested_.load()) break;
    if ((fds[0].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    const int fd = listener_.Accept(/*timeout_ms=*/0);  // Probe: no wait.
    if (fd == -1) continue;  // Raced away / spurious wakeup.
    if (fd < 0) break;       // Listener closed (Stop) or failed.
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      if (static_cast<int>(conns_.size()) >= options_.max_connections) {
        AGSC_LOG(kWarning) << "serve frontend: connection limit ("
                           << options_.max_connections << ") reached";
        ::close(fd);
        continue;
      }
    }
    if (options_.send_buffer_bytes > 0) {
      int bytes = options_.send_buffer_bytes;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes));
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Conn>();
    Conn* raw = conn.get();
    raw->fd = fd;
    // Dispatch fairness key: a high-bit namespace keeps frontend
    // connections disjoint from in-process client ids (agsc_serve's local
    // fleet uses small integers).
    raw->client = (uint64_t{1} << 32) + next_client_ordinal_++;
    raw->reader = std::thread([this, raw] { ReaderLoop(raw); });
    raw->writer = std::thread([this, raw] { WriterLoop(raw); });
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.push_back(std::move(conn));
  }
}

bool ServeFrontend::Submit(const util::Frame& frame, uint64_t client,
                           PendingReply& reply) {
  if (frame.type == kSrvMsgActRequest) {
    ServeActRequest req;
    if (!DecodeServeActRequest(frame.payload, req)) return false;
    RequestOptions opts;
    opts.client = client;
    opts.priority = req.priority;
    reply.future = server_.ActAsync(req.agent, req.obs, opts);
    return true;
  }
  if (frame.type == kSrvMsgStepRequest) {
    ServeStepRequest req;
    if (!DecodeServeStepRequest(frame.payload, req)) return false;
    RequestOptions opts;
    opts.client = client;
    opts.priority = req.priority;
    reply.future = server_.StepSessionAsync(req.session, opts);
    return true;
  }
  if (frame.type == kSrvMsgHealthRequest) {
    // Health never enters the admission queue — it must answer precisely
    // when the queue is the problem. It still takes its FIFO slot in this
    // connection's response order.
    if (!DecodeServeHealthRequest(frame.payload)) return false;
    reply.is_health = true;
    reply.health_payload = EncodeServeHealthResponse(server_.Health());
    return true;
  }
  return false;
}

void ServeFrontend::ReaderLoop(Conn* conn) {
  const size_t max_pipeline = static_cast<size_t>(options_.max_pipeline);
  util::FrameReader reader(conn->fd);
  util::Frame frame;
  std::vector<PendingReply> burst;
  for (bool open = true; open;) {
    // Block for one frame, then submit every whole frame the read-ahead
    // already holds, up to the pipeline room seen after the first.
    util::IpcStatus status = reader.Read(frame, /*timeout_ms=*/-1);
    size_t room = 0;
    for (;;) {
      if (status != util::IpcStatus::kOk) {
        // EOF is the normal goodbye; anything else (corruption, a torn
        // frame from a dying peer) just ends this conversation — the
        // dispatch server and the other connections are untouched.
        if (status != util::IpcStatus::kEof) {
          AGSC_LOG(kWarning) << "serve frontend: dropping connection ("
                             << util::IpcStatusName(status) << ")";
        }
        open = false;
        break;
      }
      PendingReply reply;
      if (!Submit(frame, conn->client, reply)) {
        AGSC_LOG(kWarning) << "serve frontend: rejecting malformed request "
                           << "(type " << frame.type << ")";
        open = false;
        break;
      }
      burst.push_back(std::move(reply));
      if (!reader.HasBufferedFrame()) break;
      if (burst.size() == 1) {
        std::lock_guard<std::mutex> lock(conn->mutex);
        room = max_pipeline - std::min(conn->pending.size(), max_pipeline);
      }
      if (burst.size() >= room) break;
      status = reader.Read(frame, /*timeout_ms=*/0);  // Buffered: no syscall.
    }
    if (burst.empty()) break;
    bool quarantined = false;
    {
      // Pipeline bound: a peer with max_pipeline responses outstanding is
      // backpressured here (we stop reading; TCP flow control propagates).
      // Frames past the first only take free room, so only the first can
      // wait here.
      std::unique_lock<std::mutex> lock(conn->mutex);
      conn->cv.wait(lock, [conn, &burst, max_pipeline] {
        return conn->quarantined ||
               conn->pending.size() + burst.size() <= max_pipeline;
      });
      quarantined = conn->quarantined;
      if (!quarantined) {
        for (PendingReply& reply : burst) {
          conn->pending.push_back(std::move(reply));
        }
      }
    }
    burst.clear();
    if (quarantined) break;  // Connection is being torn down; stop reading.
    conn->cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->reader_done = true;
  }
  conn->cv.notify_all();
}

void ServeFrontend::WriterLoop(Conn* conn) {
  util::FrameWriter writer(conn->fd);
  uint64_t out_seq = 0;
  bool broken = false;
  std::vector<PendingReply> run;
  const auto append = [&](PendingReply& reply) {
    if (reply.is_health) {
      if (!broken) {
        writer.Append(kSrvMsgHealthResponse, out_seq++, reply.health_payload);
      }
      return;
    }
    // Always completes: served, expired, rejected, shed, or shutdown —
    // the dispatch server never leaves a promise dangling.
    const std::string payload = EncodeServeResponse(reply.future.get());
    if (!broken) writer.Append(kSrvMsgResponse, out_seq++, payload);
  };
  const auto complete = [](PendingReply& reply) {
    return reply.is_health || reply.future.wait_for(std::chrono::seconds(0)) ==
                                  std::future_status::ready;
  };
  for (;;) {
    PendingReply oldest;
    {
      std::unique_lock<std::mutex> lock(conn->mutex);
      conn->cv.wait(lock, [conn] {
        return !conn->pending.empty() || conn->reader_done;
      });
      if (conn->pending.empty()) break;  // Reader gone and fully drained.
      oldest = std::move(conn->pending.front());
      conn->pending.pop_front();
    }
    conn->cv.notify_all();  // Free a pipeline slot for the reader.
    // Wait for the oldest reply only, then take every later one that has
    // already completed: a run goes out in one Flush, and no reply is held
    // back for another.
    append(oldest);
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      while (!conn->pending.empty() && complete(conn->pending.front())) {
        run.push_back(std::move(conn->pending.front()));
        conn->pending.pop_front();
      }
    }
    if (!run.empty()) conn->cv.notify_all();
    for (PendingReply& reply : run) append(reply);
    run.clear();
    if (broken) continue;  // Draining slots only; the socket is dead.
    const util::IpcStatus status = writer.Flush(options_.write_timeout_ms);
    if (status == util::IpcStatus::kOk) continue;
    broken = true;
    // kTimeout = the peer stopped draining its socket inside the write
    // budget: quarantine. Anything else is an ordinary disconnect; either
    // way its queued dispatch work is shed so live clients get the slots.
    AbandonConn(conn, /*count_quarantine=*/status == util::IpcStatus::kTimeout);
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->done.store(true, std::memory_order_release);
  WakeAcceptor();  // Let the acceptor reap this slot promptly.
}

void ServeFrontend::AbandonConn(Conn* conn, bool count_quarantine) {
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->quarantined = true;
  }
  conn->cv.notify_all();
  // Shed the client's queued dispatch work (completed as rejected /
  // disconnect) so a dead connection stops consuming batch slots.
  server_.CancelClient(conn->client);
  if (count_quarantine) {
    clients_quarantined_.fetch_add(1, std::memory_order_relaxed);
    server_.CountQuarantine();
    AGSC_LOG(kWarning) << "serve frontend: quarantining slow client (write "
                       << "budget " << options_.write_timeout_ms
                       << " ms exceeded); shedding its queued requests";
  }
  ::shutdown(conn->fd, SHUT_RDWR);
}

// --- ServeClient ------------------------------------------------------------

bool ServeClient::Connect(const std::string& host, int port, long timeout_ms,
                          std::string* error) {
  Close();
  util::IgnoreSigpipe();
  fd_ = util::TcpConnect(host, port, timeout_ms, error);
  if (fd_ < 0) return false;
  writer_ = std::make_unique<util::FrameWriter>(fd_);
  reader_ = std::make_unique<util::FrameReader>(fd_);
  out_seq_ = 0;
  return true;
}

void ServeClient::Close() {
  writer_.reset();
  reader_.reset();
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool ServeClient::SendFrame(uint32_t type, const std::string& payload,
                            long timeout_ms) {
  if (fd_ < 0) return false;
  return writer_->Write(type, out_seq_++, payload, timeout_ms) ==
         util::IpcStatus::kOk;
}

bool ServeClient::ReadResponse(long timeout_ms, DispatchResult& out) {
  if (fd_ < 0) return false;
  // Fault hook: a client that stops draining its socket (STALL_DRAIN_MS).
  // With a pipelined send loop this backs responses up into the server's
  // send buffer until the frontend's write budget trips.
  const long drain_stall = util::FaultInjector::Instance().StallDrainMs();
  if (drain_stall > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(drain_stall));
  }
  util::Frame frame;
  if (reader_->Read(frame, timeout_ms) != util::IpcStatus::kOk) return false;
  if (frame.type != kSrvMsgResponse) return false;
  return DecodeServeResponse(frame.payload, out);
}

bool ServeClient::RoundTrip(uint32_t type, const std::string& payload,
                            long timeout_ms, DispatchResult& out) {
  if (!SendFrame(type, payload, timeout_ms)) return false;
  return ReadResponse(timeout_ms, out);
}

bool ServeClient::Act(int agent, const std::vector<float>& obs,
                      long timeout_ms, DispatchResult& out, int priority) {
  ServeActRequest req;
  req.agent = agent;
  req.obs = obs;
  req.priority = priority;
  return RoundTrip(kSrvMsgActRequest, EncodeServeActRequest(req), timeout_ms,
                   out);
}

bool ServeClient::StepSession(int session, long timeout_ms,
                              DispatchResult& out, int priority) {
  ServeStepRequest req;
  req.session = session;
  req.priority = priority;
  return RoundTrip(kSrvMsgStepRequest, EncodeServeStepRequest(req),
                   timeout_ms, out);
}

bool ServeClient::SendAct(int agent, const std::vector<float>& obs,
                          long timeout_ms, int priority) {
  ServeActRequest req;
  req.agent = agent;
  req.obs = obs;
  req.priority = priority;
  return SendFrame(kSrvMsgActRequest, EncodeServeActRequest(req), timeout_ms);
}

bool ServeClient::SendStep(int session, long timeout_ms, int priority) {
  ServeStepRequest req;
  req.session = session;
  req.priority = priority;
  return SendFrame(kSrvMsgStepRequest, EncodeServeStepRequest(req),
                   timeout_ms);
}

bool ServeClient::Health(long timeout_ms, DispatchHealth& out) {
  if (!SendFrame(kSrvMsgHealthRequest, EncodeServeHealthRequest(),
                 timeout_ms)) {
    return false;
  }
  util::Frame frame;
  if (reader_->Read(frame, timeout_ms) != util::IpcStatus::kOk) return false;
  if (frame.type != kSrvMsgHealthResponse) return false;
  return DecodeServeHealthResponse(frame.payload, out);
}

}  // namespace agsc::core
