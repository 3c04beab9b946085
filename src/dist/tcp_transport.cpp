#include "dist/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <thread>

#include "common/check.h"
#include "common/flags.h"
#include "common/timer.h"

namespace ripple {

namespace {

// Opportunistic-flush threshold: send() tries a non-blocking flush once the
// queued bytes pass this, bounding user-space buffering without ever
// blocking the engine's serial exchange phase.
constexpr std::size_t kFlushThreshold = 1 << 18;

struct HostPort {
  std::string host;
  std::string port;
};

HostPort split_endpoint(const std::string& endpoint) {
  const auto colon = endpoint.rfind(':');
  RIPPLE_CHECK_MSG(colon != std::string::npos && colon + 1 < endpoint.size(),
                   "peer endpoint '" << endpoint << "' is not host:port");
  return {endpoint.substr(0, colon), endpoint.substr(colon + 1)};
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  RIPPLE_CHECK_MSG(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                   "fcntl(O_NONBLOCK): " << std::strerror(errno));
}

// Monotonic seconds for deadlines and heartbeat cadence.
double mono_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Blocking exact-size read/write used only during mesh setup (handshakes).
// A peer dying here is a recoverable mesh-formation failure, not a
// programming error: typed kPeerLost.
void read_exact(int fd, void* buf, std::size_t len) {
  auto* at = static_cast<std::uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::recv(fd, at, len, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw TransportError(TransportErrorKind::kPeerLost,
                           "peer hung up during handshake");
    }
    at += n;
    len -= static_cast<std::size_t>(n);
  }
}

void write_exact(int fd, const void* buf, std::size_t len) {
  const auto* at = static_cast<const std::uint8_t*>(buf);
  while (len > 0) {
    const ssize_t n = ::send(fd, at, len, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      throw TransportError(TransportErrorKind::kPeerLost,
                           std::string("handshake write failed: ") +
                               std::strerror(errno));
    }
    at += n;
    len -= static_cast<std::size_t>(n);
  }
}

int bind_listener(const std::string& endpoint) {
  const HostPort hp = split_endpoint(endpoint);
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(hp.host.c_str(), hp.port.c_str(), &hints, &res);
  RIPPLE_CHECK_MSG(rc == 0, "resolve '" << endpoint
                                        << "': " << ::gai_strerror(rc));
  const int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  RIPPLE_CHECK_MSG(fd >= 0, "socket: " << std::strerror(errno));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const bool ok = ::bind(fd, res->ai_addr, res->ai_addrlen) == 0 &&
                  ::listen(fd, SOMAXCONN) == 0;
  const int saved_errno = errno;
  ::freeaddrinfo(res);
  if (!ok) ::close(fd);
  RIPPLE_CHECK_MSG(ok, "bind/listen '" << endpoint
                                       << "': " << std::strerror(saved_errno));
  return fd;
}

// Bounded redial with exponential backoff + deterministic jitter: the
// peer's listener may simply not be up yet (ranks launched by hand in any
// order), so failed dials back off 10ms·2^k capped at 500ms, each delay
// jittered ±25% by a seeded xorshift so a simultaneously-restarted mesh
// does not redial in lockstep. Every redial past the first dial counts
// into `retries`; exhausting the budget raises kTimeout (the peer may
// still come up — the caller can rebuild the mesh later).
int connect_with_retry(const std::string& endpoint, double timeout_sec,
                       std::uint64_t jitter_seed, std::size_t& retries) {
  const HostPort hp = split_endpoint(endpoint);
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(hp.host.c_str(), hp.port.c_str(), &hints, &res);
  RIPPLE_CHECK_MSG(rc == 0, "resolve '" << endpoint
                                        << "': " << ::gai_strerror(rc));
  const StopWatch watch;
  std::uint64_t rng = jitter_seed ^ 0x9e3779b97f4a7c15ULL;
  int last_errno = 0;
  double backoff_ms = 10.0;
  for (bool first = true;; first = false) {
    if (!first) ++retries;
    const int fd =
        ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
    RIPPLE_CHECK_MSG(fd >= 0, "socket: " << std::strerror(errno));
    if (::connect(fd, res->ai_addr, res->ai_addrlen) == 0) {
      ::freeaddrinfo(res);
      return fd;
    }
    last_errno = errno;
    ::close(fd);
    if (watch.elapsed_sec() >= timeout_sec) break;
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    // ±25% jitter: scale by 0.75 + rng_unit * 0.5.
    const double unit = static_cast<double>(rng >> 11) * 0x1p-53;
    const double delay_ms = backoff_ms * (0.75 + 0.5 * unit);
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<long>(delay_ms * 1e3)));
    backoff_ms = std::min(backoff_ms * 2.0, 500.0);
  }
  ::freeaddrinfo(res);
  std::ostringstream os;
  os << "connect '" << endpoint << "' timed out after " << timeout_sec
     << "s: " << std::strerror(last_errno);
  throw TransportError(TransportErrorKind::kTimeout, os.str());
}

}  // namespace

TcpConfig TcpConfig::from_flags(const Flags& flags) {
  TcpConfig config;
  config.rank = static_cast<std::size_t>(flags.get_int("rank", 0));
  std::stringstream ss(flags.get_string("peers", ""));
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (!token.empty()) config.peers.push_back(token);
  }
  RIPPLE_CHECK_MSG(!config.peers.empty(),
                   "--transport=tcp requires --peers=host:port,...");
  RIPPLE_CHECK_MSG(config.rank < config.peers.size(),
                   "--rank=" << config.rank << " out of range for "
                             << config.peers.size() << " peers");
  config.peer_dead_sec = flags.get_double("peer-dead-sec",
                                          config.peer_dead_sec);
  config.heartbeat_interval_sec = flags.get_double(
      "heartbeat-interval-sec", config.heartbeat_interval_sec);
  return config;
}

TcpTransport::TcpTransport(std::size_t num_parts,
                           const TransportOptions& options,
                           const TcpConfig& config)
    : Transport(num_parts, options), rank_(config.rank),
      barrier_timeout_sec_(config.barrier_timeout_sec),
      heartbeat_interval_sec_(config.heartbeat_interval_sec),
      peer_dead_sec_(config.peer_dead_sec) {
  RIPPLE_CHECK_MSG(config.peers.size() == num_parts,
                   "tcp transport needs one peer endpoint per partition: got "
                       << config.peers.size() << " peers for " << num_parts
                       << " parts");
  RIPPLE_CHECK(rank_ < num_parts);
  peers_.resize(num_parts);
  staged_by_src_.resize(num_parts);
  setup_mesh(config);
}

void TcpTransport::setup_mesh(const TcpConfig& config) {
  if (num_parts() == 1) {
    if (config.listen_fd >= 0) ::close(config.listen_fd);
    return;
  }
  // Listener first, so any peer's dial-in lands in our backlog even before
  // we reach the accept loop.
  const int listen_fd = config.listen_fd >= 0
                            ? config.listen_fd
                            : bind_listener(config.peers[rank_]);
  // Each pair (i, j), i < j has one connection: j dials i. Dial every lower
  // rank (they are already listening), then accept every higher rank; a
  // 4-byte rank handshake tells the acceptor who arrived.
  for (std::size_t j = 0; j < rank_; ++j) {
    std::size_t retries = 0;
    const int fd = connect_with_retry(
        config.peers[j], config.connect_timeout_sec,
        static_cast<std::uint64_t>(rank_) * 131 + j, retries);
    for (std::size_t k = 0; k < retries; ++k) count_retry();
    const auto my_rank = static_cast<std::uint32_t>(rank_);
    write_exact(fd, &my_rank, sizeof(my_rank));
    set_nodelay(fd);
    peers_[j].fd = fd;
  }
  for (std::size_t pending = num_parts() - 1 - rank_; pending > 0;
       --pending) {
    // Bounded accept: a higher rank that died before dialing must surface
    // as an error here, not hang this rank (and a fork harness's parent)
    // forever.
    pollfd pfd{};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(
        &pfd, 1,
        static_cast<int>(config.connect_timeout_sec * 1e3));
    if (ready <= 0) {
      std::ostringstream os;
      os << "accept at rank " << rank_ << " timed out waiting for "
         << pending << " higher rank(s)";
      throw TransportError(TransportErrorKind::kTimeout, os.str());
    }
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    RIPPLE_CHECK_MSG(fd >= 0, "accept: " << std::strerror(errno));
    // Bound the handshake read the same way (a dialer could connect and
    // then die before sending its rank).
    timeval timeout{};
    timeout.tv_sec = static_cast<time_t>(config.connect_timeout_sec);
    timeout.tv_usec = static_cast<suseconds_t>(
        (config.connect_timeout_sec - static_cast<double>(timeout.tv_sec)) *
        1e6);
    if (timeout.tv_sec == 0 && timeout.tv_usec == 0) timeout.tv_usec = 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    std::uint32_t peer_rank = 0;
    read_exact(fd, &peer_rank, sizeof(peer_rank));
    RIPPLE_CHECK_MSG(peer_rank > rank_ && peer_rank < num_parts() &&
                         peers_[peer_rank].fd < 0,
                     "unexpected handshake from rank " << peer_rank);
    set_nodelay(fd);
    peers_[peer_rank].fd = fd;
  }
  ::close(listen_fd);  // the mesh is complete; free the port
  for (std::size_t p = 0; p < num_parts(); ++p) {
    if (p != rank_) set_nonblocking(peers_[p].fd);
  }
}

TcpTransport::~TcpTransport() {
  for (Peer& peer : peers_) {
    if (peer.fd >= 0) ::close(peer.fd);
  }
}

void TcpTransport::begin_superstep() {
  for (Inbox& inbox : inboxes_) inbox.clear();
  // Frames a fast peer shipped before we finished the previous barrier
  // belong to this superstep; surface them in per-peer arrival order.
  for (std::size_t p = 0; p < num_parts(); ++p) {
    Peer& peer = peers_[p];
    for (wire::Frame& frame : peer.ahead) {
      staged_by_src_[p].push_back(std::move(frame));
    }
    peer.ahead.clear();
  }
}

void TcpTransport::send(std::size_t src, std::size_t dst, VertexId sender,
                        std::span<const float> payload) {
  RIPPLE_CHECK_MSG(src != dst, "local traffic must not touch the wire");
  RIPPLE_CHECK_MSG(src == rank_,
                   "rank " << rank_ << " cannot transmit for partition "
                           << src << " (owner routing)");
  // Sender-side wire rounding BEFORE counting and framing: the counted
  // bytes and the decoded bits match what any backend would produce for
  // this send, keeping the summed counters backend-independent.
  const std::span<const float> row = round_row_for_wire(payload);
  count_wire(row_wire_bytes(row.size()), 1);
  Peer& peer = peers_[dst];
  if (options().wire_precision == WirePrecision::kBf16) {
    // Narrowing the already-rounded row is exact, so the decode widens
    // back to the same bits the sender committed.
    wire::append_payload_frame_bf16(peer.sendbuf, sender,
                                    static_cast<std::uint32_t>(src), row);
  } else {
    wire::append_payload_frame(peer.sendbuf, sender,
                               static_cast<std::uint32_t>(src), row);
  }
  maybe_flush(peer);
}

void TcpTransport::send_opaque(std::size_t src, std::size_t dst,
                               std::size_t payload_bytes,
                               std::size_t num_messages) {
  RIPPLE_CHECK_MSG(src != dst, "local traffic must not touch the wire");
  RIPPLE_CHECK_MSG(src == rank_,
                   "rank " << rank_ << " cannot transmit for partition "
                           << src << " (owner routing)");
  count_wire(payload_bytes, num_messages);
  Peer& peer = peers_[dst];
  wire::append_opaque_frame(peer.sendbuf, static_cast<std::uint32_t>(src),
                            static_cast<std::uint32_t>(dst), payload_bytes,
                            num_messages);
  maybe_flush(peer);
}

void TcpTransport::send_exact(std::size_t src, std::size_t dst,
                              VertexId sender,
                              std::span<const float> payload) {
  RIPPLE_CHECK_MSG(src != dst, "local traffic must not touch the wire");
  RIPPLE_CHECK_MSG(src == rank_,
                   "rank " << rank_ << " cannot transmit for partition "
                           << src << " (owner routing)");
  // State collection: exact f32 bits and full-width accounting regardless
  // of --wire-precision.
  count_wire(payload.size() * sizeof(float), 1);
  Peer& peer = peers_[dst];
  wire::append_payload_frame(peer.sendbuf, sender,
                             static_cast<std::uint32_t>(src), payload);
  maybe_flush(peer);
}

void TcpTransport::maybe_flush(Peer& peer) {
  if (peer.sendbuf.size() - peer.sent <= kFlushThreshold) return;
  if (!flush_some(peer)) {
    // Kernel send buffer full — the peer is probably mid-send toward us as
    // well. Draining our inbound here lets both sides make progress instead
    // of buffering toward each other until the barrier.
    poll_once(0);
  }
}

bool TcpTransport::flush_some(Peer& peer) {
  while (peer.sent < peer.sendbuf.size()) {
    const ssize_t n =
        ::send(peer.fd, peer.sendbuf.data() + peer.sent,
               peer.sendbuf.size() - peer.sent, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      peer.sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
    // EPIPE/ECONNRESET: the peer's process is gone (its kernel closed the
    // socket under us) — recoverable at the checkpoint layer, not a bug.
    throw_peer_lost(static_cast<std::size_t>(&peer - peers_.data()),
                    std::string("tcp send failed: ") + std::strerror(errno));
  }
  peer.sendbuf.clear();
  peer.sent = 0;
  return true;
}

void TcpTransport::dispatch(std::size_t peer_rank, wire::Frame&& frame) {
  Peer& peer = peers_[peer_rank];
  switch (frame.type) {
    case wire::FrameType::payload:
    case wire::FrameType::payload_bf16: {
      RIPPLE_CHECK_MSG(frame.src_part == peer_rank,
                       "payload frame src_part " << frame.src_part
                                                 << " from rank "
                                                 << peer_rank);
      // Per-connection TCP ordering: frames decoded after the barrier for
      // the in-flight superstep belong to the next one.
      if (peer.barriers_seen > completed_) {
        peer.ahead.push_back(std::move(frame));
      } else {
        staged_by_src_[peer_rank].push_back(std::move(frame));
      }
      break;
    }
    case wire::FrameType::heartbeat:
      // Liveness-only: receiving ANY bytes already refreshed last_rx_sec in
      // drain_ready, so the frame carries no further state.
      break;
    case wire::FrameType::opaque:
      // Accounting record: counted once at the sender (counters are
      // per-rank egress), so the receiver only drains it — the frame keeps
      // the byte stream's barrier ordering honest and lets the receiver's
      // replicated-topology walk reconstruct the content out-of-band.
      break;
    case wire::FrameType::barrier:
      // A barrier out of sequence means the peer's protocol state machine
      // and ours disagree — typed kProtocol, unrecoverable without a
      // restart, but the caller (not an abort) decides what dies.
      if (frame.superstep != peer.barriers_seen) {
        std::ostringstream os;
        os << "barrier for superstep " << frame.superstep << " from rank "
           << peer_rank << ", expected " << peer.barriers_seen;
        throw TransportError(TransportErrorKind::kProtocol, os.str());
      }
      ++peer.barriers_seen;
      break;
  }
}

void TcpTransport::drain_ready(Peer& peer) {
  const std::size_t peer_rank = static_cast<std::size_t>(&peer - peers_.data());
  std::uint8_t chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(peer.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n > 0) {
      peer.last_rx_sec = mono_sec();
      peer.decoder.feed(
          std::span<const std::uint8_t>(chunk, static_cast<std::size_t>(n)));
      wire::Frame frame;
      while (peer.decoder.next(frame)) dispatch(peer_rank, std::move(frame));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n == 0) {
      // A peer that finished its run exits and closes cleanly; that is
      // only an error if it still owes us a barrier (checked at the poll
      // loop, where the current superstep index is known).
      peer.eof = true;
      return;
    }
    throw_peer_lost(peer_rank,
                    std::string("tcp recv failed: ") + std::strerror(errno));
  }
}

void TcpTransport::poll_once(int timeout_ms) {
  if (num_parts() == 1) return;
  std::vector<pollfd> fds;
  std::vector<std::size_t> fd_rank;
  for (std::size_t p = 0; p < num_parts(); ++p) {
    if (p == rank_) continue;
    Peer& peer = peers_[p];
    if (peer.eof) continue;
    pollfd pfd{};
    pfd.fd = peer.fd;
    pfd.events = static_cast<short>(
        POLLIN | (peer.sent < peer.sendbuf.size() ? POLLOUT : 0));
    fds.push_back(pfd);
    fd_rank.push_back(p);
  }
  if (fds.empty()) return;
  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready < 0 && errno == EINTR) return;
  RIPPLE_CHECK_MSG(ready >= 0, "poll: " << std::strerror(errno));
  for (std::size_t i = 0; i < fds.size(); ++i) {
    Peer& peer = peers_[fd_rank[i]];
    if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) drain_ready(peer);
    if (fds[i].revents & POLLOUT) flush_some(peer);
  }
}

double TcpTransport::end_superstep() {
  const StopWatch watch;
  const double wait_start = mono_sec();
  const std::uint64_t superstep = completed_;
  for (std::size_t p = 0; p < num_parts(); ++p) {
    if (p == rank_) continue;
    wire::append_barrier_frame(peers_[p].sendbuf,
                               static_cast<std::uint32_t>(rank_), superstep);
  }
  // The loop is poll_once-driven; the bookkeeping here only decides when we
  // are done and when our own egress finished (the barrier-stall split).
  double writes_done_at = -1.0;
  for (;;) {
    bool writes_pending = false;
    bool barrier_pending = false;
    for (std::size_t p = 0; p < num_parts(); ++p) {
      if (p == rank_) continue;
      Peer& peer = peers_[p];
      if (peer.sent < peer.sendbuf.size() && !flush_some(peer)) {
        writes_pending = true;
      }
      if (peer.barriers_seen <= superstep) {
        if (peer.eof) {
          std::ostringstream os;
          os << "rank " << p << " closed its connection before its barrier"
             << " for superstep " << superstep;
          throw_peer_lost(p, os.str());
        }
        // Positive-death deadline: owes the barrier AND silent since we
        // started waiting.
        if (peer_dead_sec_ > 0 &&
            mono_sec() - std::max(peer.last_rx_sec, wait_start) >
                peer_dead_sec_) {
          std::ostringstream os;
          os << "rank " << p << " silent for " << peer_dead_sec_
             << "s while owing the barrier for superstep " << superstep;
          throw_peer_lost(p, os.str());
        }
        barrier_pending = true;
      }
    }
    if (writes_done_at < 0 && !writes_pending) {
      writes_done_at = watch.elapsed_sec();
    }
    if (!writes_pending && !barrier_pending) break;
    if (watch.elapsed_sec() >= barrier_timeout_sec_) {
      count_timeout();
      std::ostringstream os;
      os << "tcp barrier for superstep " << superstep << " timed out at rank "
         << rank_ << " after " << barrier_timeout_sec_ << "s";
      throw TransportError(TransportErrorKind::kTimeout, os.str());
    }
    maybe_heartbeat();
    poll_once(/*timeout_ms=*/100);
  }
  // Canonical delivery: ascending sending rank, per-rank arrival order.
  // Within one sender this matches SimTransport's send order; across
  // senders the interleaving differs (sim is globally interleaved), which
  // is why the engines consume inboxes by sender, never positionally.
  for (std::size_t p = 0; p < num_parts(); ++p) {
    for (const wire::Frame& frame : staged_by_src_[p]) {
      inboxes_[rank_].append(frame.sender, frame.src_part, frame.row);
    }
    staged_by_src_[p].clear();
  }
  ++completed_;
  const double elapsed = watch.elapsed_sec();
  // Measured stall: from our egress finishing to the last peer's barrier.
  last_barrier_wait_sec_ =
      writes_done_at >= 0 ? elapsed - writes_done_at : 0.0;
  return elapsed;
}

double TcpTransport::superstep_wait_sec(std::size_t part) const {
  return part == rank_ ? last_barrier_wait_sec_ : 0.0;
}

void TcpTransport::maybe_heartbeat() {
  if (heartbeat_interval_sec_ <= 0) return;
  const double now = mono_sec();
  if (now - last_heartbeat_sec_ < heartbeat_interval_sec_) return;
  last_heartbeat_sec_ = now;
  for (std::size_t p = 0; p < num_parts(); ++p) {
    if (p == rank_) continue;
    Peer& peer = peers_[p];
    if (peer.eof || peer.fd < 0) continue;
    // Liveness-only control traffic: never in the wire counters (the
    // cadence is wall-clock-dependent, and counters must stay
    // backend-conformant for a given protocol run).
    wire::append_heartbeat_frame(peer.sendbuf,
                                 static_cast<std::uint32_t>(rank_));
    count_heartbeat();
    flush_some(peer);
  }
}

void TcpTransport::throw_peer_lost(std::size_t peer_rank,
                                   const std::string& what) {
  std::ostringstream os;
  os << "rank " << rank_ << " lost peer " << peer_rank << ": " << what;
  throw TransportError(TransportErrorKind::kPeerLost, os.str());
}

}  // namespace ripple
