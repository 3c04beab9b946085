// Real networked Transport backend: one OS process per rank, rank r owning
// partition r, full mesh of TCP connections, length-prefixed frames
// (wire_format.h), and a barrier per superstep.
//
// Execution model — owner routing over per-rank state. hosts(p) returns
// p == rank, so the engines run only this rank's partition phases: rank r
// holds the owned embedding/cache/mailbox rows for partition r plus a halo
// cache of remote boundary rows, and every message has exactly one real
// sender and one real receiver:
//
//   send / send_exact(src, dst, ...) at rank r:
//     * src must equal r — a rank only transmits for the partition it
//       hosts (the engines' hosts() guards enforce this upstream);
//     * counted with the same header_bytes envelope as SimTransport; the
//       counters are this rank's EGRESS, and summing them across ranks
//       reproduces the sim totals for the same protocol run;
//     * framed and transmitted over the socket to rank dst. The receiver's
//       inbox is filled exclusively from the wire, so the floats that
//       refresh halo rows and seed mailboxes really did round-trip through
//       serialization and the network. A framing bug breaks bit-exactness
//       and is caught by the conformance suite.
//
// Barrier protocol: end_superstep() queues a barrier frame to every peer,
// then polls non-blocking sockets — flushing pending writes and draining
// reads — until every peer's barrier for this superstep arrived and all
// writes completed. Received messages are delivered in ascending-src_part
// order, per-connection arrival order within a sender. That groups a
// superstep's inbox by sender rank — NOT SimTransport's globally
// interleaved send order — so engine phases that consume the inbox either
// merge by sender (order-insensitive) or walk per-src-part FIFO cursors.
// A peer may run at most one superstep ahead (its next barrier needs
// ours), so early frames are stashed and surfaced at the next
// begin_superstep().
//
// end_superstep() returns MEASURED wall-clock seconds (measures_time() ==
// true): engines switch DistBatchResult to measured timing alongside it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dist/transport.h"
#include "dist/wire_format.h"

namespace ripple {

struct TcpConfig {
  std::size_t rank = 0;
  // host:port endpoint per rank (index == rank); size() is the world size
  // and must equal the transport's num_parts.
  std::vector<std::string> peers;
  // Pre-bound listening socket to adopt for this rank (fork harnesses bind
  // ephemeral ports before forking so children cannot race); -1 binds
  // peers[rank] instead. The transport owns and closes the fd either way.
  int listen_fd = -1;
  double connect_timeout_sec = 15.0;  // retry window for peer dial-in
  // Hard deadline on a superstep barrier; expiry raises
  // TransportError{kTimeout} (the mesh may still be intact — e.g. one rank
  // is catastrophically slow — so the caller decides whether to rebuild).
  double barrier_timeout_sec = 120.0;
  // Idle-liveness protocol (docs/fault_tolerance.md): while a rank is
  // parked waiting at a barrier it ships a heartbeat frame to every live
  // peer each interval, proving "alive, just waiting" to peers that might
  // themselves be watching a deadline.
  double heartbeat_interval_sec = 0.2;
  // Positive-death deadline: a peer that still owes this superstep's
  // barrier AND has sent no bytes for this long (measured from when WE
  // started waiting) is declared dead — TransportError{kPeerLost} — well
  // before barrier_timeout_sec. Must exceed the longest compute phase any
  // rank runs between transport calls (a busy rank neither polls nor
  // heartbeats). <= 0 disables the fast path; the barrier timeout still
  // bounds the wait.
  double peer_dead_sec = 30.0;

  // Parses --rank=R and --peers=host:port,host:port,... (R < len(peers)),
  // plus --peer-dead-sec and --heartbeat-interval-sec overrides.
  static TcpConfig from_flags(const Flags& flags);
};

class TcpTransport final : public Transport {
 public:
  // Establishes the full mesh: connects to every lower rank, accepts every
  // higher rank (so each pair has exactly one connection), then switches
  // all sockets to non-blocking.
  TcpTransport(std::size_t num_parts, const TransportOptions& options,
               const TcpConfig& config);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  std::size_t rank() const { return rank_; }

  void begin_superstep() override;
  void send(std::size_t src, std::size_t dst, VertexId sender,
            std::span<const float> payload) override;
  void send_opaque(std::size_t src, std::size_t dst,
                   std::size_t payload_bytes,
                   std::size_t num_messages = 1) override;
  void send_exact(std::size_t src, std::size_t dst, VertexId sender,
                  std::span<const float> payload) override;
  double end_superstep() override;
  bool measures_time() const override { return true; }
  bool hosts(std::size_t part) const override { return part == rank_; }

  // Measured barrier stall of the LAST end_superstep: wall time between
  // this rank's writes finishing and the final peer barrier arriving.
  double superstep_wait_sec(std::size_t part) const override;

 protected:
  const char* name_impl() const override { return "tcp"; }

 private:
  struct Peer {
    int fd = -1;
    std::vector<std::uint8_t> sendbuf;  // framed, unflushed suffix from sent_
    std::size_t sent = 0;               // flushed prefix of sendbuf
    wire::FrameDecoder decoder;
    std::uint64_t barriers_seen = 0;  // frames decoded after the barrier for
                                      // superstep s belong to superstep s+1
    std::vector<wire::Frame> ahead;   // stash for the next superstep
    bool eof = false;  // peer closed; fatal only if it still owes a barrier
    double last_rx_sec = 0;  // mono_sec() of the last received bytes
  };

  void setup_mesh(const TcpConfig& config);
  // One round of non-blocking transport progress: flushes every peer's
  // pending writes and drains every readable socket, staging decoded
  // payload frames for their superstep. The single poll primitive behind
  // end_superstep's barrier loop AND the mid-superstep backpressure path —
  // send() calls it when the kernel send buffer fills, so receives overlap
  // sends instead of both sides buffering toward each other. timeout_ms > 0
  // blocks in ::poll up to that long.
  void poll_once(int timeout_ms = 0);
  bool flush_some(Peer& peer);   // true when sendbuf fully flushed
  void drain_ready(Peer& peer);  // non-blocking read + frame dispatch
  void dispatch(std::size_t peer_rank, wire::Frame&& frame);
  // Backpressure valve on the send paths: past the flush threshold, try to
  // flush; if the kernel buffer is full, run poll_once(0) so inbound frames
  // drain while we wait for egress room.
  void maybe_flush(Peer& peer);
  // Idle-wait liveness upkeep, called from the blocking poll paths: ships
  // a heartbeat to every live peer when heartbeat_interval_sec has passed
  // since the last one.
  void maybe_heartbeat();
  [[noreturn]] void throw_peer_lost(std::size_t peer_rank,
                                    const std::string& what);

  std::size_t rank_ = 0;
  double barrier_timeout_sec_ = 120.0;
  double heartbeat_interval_sec_ = 0.2;
  double peer_dead_sec_ = 30.0;
  double last_heartbeat_sec_ = 0.0;  // mono_sec() of the last batch sent
  std::vector<Peer> peers_;  // index == rank; peers_[rank_].fd == -1
  std::uint64_t completed_ = 0;  // end_superstep() calls so far == index of
                                 // the superstep currently in flight
  // Received payload frames of the CURRENT superstep, grouped by sending
  // rank; flushed into inbox(rank_) in ascending src_part order at the end
  // of the barrier (matches SimTransport's global send order).
  std::vector<std::vector<wire::Frame>> staged_by_src_;
  double last_barrier_wait_sec_ = 0.0;
};

}  // namespace ripple
