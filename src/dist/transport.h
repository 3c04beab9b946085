// Message-passing transports for the distributed runtime (§5).
//
// The engines speak BSP supersteps against the abstract `Transport`
// interface — begin_superstep / send / send_opaque / end_superstep / inbox —
// and never against a concrete backend, so the message-exchange layer can be
// swapped without touching the algorithms (the same property InfiniBand-era
// BSP engines like libgrape-lite rely on). Two kinds of traffic exist:
//   * payload messages — a sender vertex's embedding-delta row shipped to
//     the partition owning its remote out-neighbors; the floats genuinely
//     travel through the transport and the receiver reads them back out, so
//     the exactness tests exercise the real wire path;
//   * opaque transfers — update routing and halo row fetches, where only the
//     byte/message counts matter (the receiver reads the shared replica).
//
// Backends:
//   * SimTransport — the whole cluster in one process: "sending" is an
//     append into the destination partition's inbox plus cost-model
//     accounting. end_superstep() returns MODELED seconds
//     (measures_time() == false).
//   * TcpTransport (tcp_transport.h) — one process per rank; payload rows
//     and accounting records travel over real sockets and end_superstep()
//     returns MEASURED wall-clock seconds (measures_time() == true).
//
// Cost model (flag-configurable, see TransportOptions::from_flags): each
// message costs per_message_sec + (header_bytes + payload)/bytes_per_sec.
// A SimTransport superstep is charged max over partitions of
// (egress + ingress) — the partitions are modeled as machines sending and
// receiving in parallel, so the slowest endpoint gates the barrier, BSP
// style. Wire COUNTERS (bytes/messages) use the same header_bytes envelope
// on every backend, so sim and tcp report identical traffic for the same
// protocol run — the conformance suite asserts exactly that.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dist/transport_error.h"
#include "graph/types.h"

namespace ripple {

class Flags;

// Payload row precision ON THE WIRE (--wire-precision). At kBf16 every
// shipped Δh / halo row is rounded to bfloat16 by the SENDER before it
// reaches any inbox or socket, halving payload bytes under both the sim
// cost model and measured tcp supersteps. Because the rounding happens
// sender-side (not in the codec), the local replica inboxes and the
// decoded wire bytes carry identical f32 bits — sim and tcp stay bit-equal
// with equal counters at either precision. Compute stays f32 either way.
enum class WirePrecision { kF32, kBf16 };

const char* wire_precision_name(WirePrecision p);
WirePrecision parse_wire_precision(const std::string& name);
// The accepted --wire-precision values, for Flags::get_choice.
const std::vector<std::string>& wire_precision_choices();

struct TransportOptions {
  double per_message_sec = 5e-6;   // fixed per-message envelope latency
  double bytes_per_sec = 1.25e9;   // link bandwidth (10 GbE)
  std::size_t header_bytes = 16;   // per-message envelope size
  WirePrecision wire_precision = WirePrecision::kF32;

  // Reads --wire-latency-us (default 5.0), --wire-gbps (default 10.0) and
  // --wire-precision (default f32).
  static TransportOptions from_flags(const Flags& flags);
};

// Process-wide defaults used when make_dist_engine is called without an
// explicit TransportOptions (benches set these once from their CLI flags).
void set_transport_options(const TransportOptions& options);
const TransportOptions& default_transport_options();

class Transport {
 public:
  struct Message {
    VertexId sender = kInvalidVertex;
    std::uint32_t src_part = 0;
    std::size_t offset = 0;  // into the inbox's flat payload buffer
    std::size_t len = 0;     // payload floats
  };
  struct Inbox {
    std::vector<Message> messages;
    std::vector<float> payload;

    std::span<const float> payload_of(const Message& m) const {
      return std::span<const float>(payload.data() + m.offset, m.len);
    }
    void clear() {
      messages.clear();
      payload.clear();
    }
    void append(VertexId sender, std::uint32_t src_part,
                std::span<const float> row) {
      messages.push_back({sender, src_part, payload.size(), row.size()});
      payload.insert(payload.end(), row.begin(), row.end());
    }
  };

  Transport(std::size_t num_parts, const TransportOptions& options);
  virtual ~Transport() = default;

  const char* name() const { return name_impl(); }
  std::size_t num_parts() const { return num_parts_; }
  const TransportOptions& options() const { return options_; }

  // Clears every inbox and any per-superstep state.
  virtual void begin_superstep() = 0;

  // Payload send: delivered into dst's inbox (or onto the wire). Not
  // thread-safe — the engines run their exchange phases serially.
  // src == dst is a protocol error: local traffic never touches the wire.
  virtual void send(std::size_t src, std::size_t dst, VertexId sender,
                    std::span<const float> payload) = 0;

  // Accounting-only transfer (update routing: the receiver reconstructs the
  // content from replicated topology, so only the byte/message counts ship).
  virtual void send_opaque(std::size_t src, std::size_t dst,
                           std::size_t payload_bytes,
                           std::size_t num_messages = 1) = 0;

  // Payload send that is NEVER wire-rounded and is always counted at f32
  // width, regardless of --wire-precision. Used for owned-row shipping
  // (migration, restore halo refill, gather_embeddings), where the receiver
  // must install the exact bits the owner holds — lossy rounding there would
  // break the bit-exactness contract rather than model a cheaper wire.
  virtual void send_exact(std::size_t src, std::size_t dst, VertexId sender,
                          std::span<const float> payload) = 0;

  // Whether this endpoint hosts (owns the state of, and computes) the given
  // partition. SimTransport hosts every partition — the whole cluster lives
  // in one process, so one engine instance walks all parts and the protocol
  // run is byte-identical to a real cluster's union. TcpTransport hosts only
  // part == rank: each process holds owned rows + halo cache for its rank
  // and skips every other partition's phases.
  virtual bool hosts(std::size_t part) const {
    (void)part;
    return true;
  }

  // Completes the superstep barrier and returns its cost in seconds:
  // modeled (cost model) or measured (wall clock), per measures_time().
  virtual double end_superstep() = 0;

  // Whether end_superstep() returns measured wall-clock seconds (a real
  // networked backend) rather than modeled cost-model seconds. Engines
  // propagate this into DistBatchResult::comm_measured and switch their
  // compute accounting to wall clock alongside it (dist/bsp.h).
  virtual bool measures_time() const = 0;

  // Stall behind the barrier of the LAST completed superstep: modeled on
  // sim (slowest endpoint's cost minus this partition's), measured on tcp
  // (wall time between this rank finishing its sends and the last peer
  // barrier arriving; part must be the local rank there).
  virtual double superstep_wait_sec(std::size_t part) const;

  // Virtual so a decorator (dist/fault_inject.h) can expose its inner
  // backend's inboxes without owning any of its own.
  virtual const Inbox& inbox(std::size_t part) const {
    return inboxes_[part];
  }

  // Cumulative totals across all supersteps. Every backend counts every
  // send/send_opaque it observes with the same header_bytes envelope, so
  // the counters are backend-independent for a given protocol run.
  // Virtual for the same decorator-delegation reason as inbox().
  virtual std::size_t wire_bytes() const { return wire_bytes_; }
  virtual std::size_t wire_messages() const { return wire_messages_; }

  // ---- robustness counters (docs/fault_tolerance.md) ----
  // Cumulative totals since construction; engines report per-batch DELTAS
  // in DistBatchResult. Zero on backends where the concept does not apply
  // (SimTransport neither reconnects nor heartbeats).
  // Reconnect attempts beyond the first dial per peer (TcpTransport mesh
  // setup, exponential backoff + jitter).
  virtual std::size_t retries() const { return retries_; }
  // Deadline expiries that were survivable without declaring the mesh dead
  // (e.g. a bounded poll returning empty during connect backoff). A fatal
  // deadline raises TransportError{kTimeout} instead of counting here.
  virtual std::size_t timeouts() const { return timeouts_; }
  // Idle heartbeat frames sent to prove liveness while waiting at a
  // barrier (TcpTransport only; discarded by the receiver on arrival).
  virtual std::size_t heartbeats() const { return heartbeats_; }

  // Payload bytes of one num_floats-wide embedding row at the configured
  // wire precision (4 B/value at f32, 2 at bf16). Engines size BOTH their
  // payload accounting and their opaque halo-row transfers with this, so
  // --wire-precision=bf16 halves wire_bytes on every row-shaped transfer.
  std::size_t row_wire_bytes(std::size_t num_floats) const {
    return num_floats * (options_.wire_precision == WirePrecision::kBf16
                             ? sizeof(std::uint16_t)
                             : sizeof(float));
  }

 protected:
  virtual const char* name_impl() const = 0;

  // Sender-side wire rounding: at f32 returns `payload` unchanged; at bf16
  // returns a view of a scratch row holding bf16_round of every value —
  // what the receiver will see. Callers must consume the view before the
  // next round_row_for_wire call (send() is serial per the interface
  // contract).
  std::span<const float> round_row_for_wire(std::span<const float> payload);

  // Adds one transfer to the cumulative wire counters.
  void count_wire(std::size_t payload_bytes, std::size_t num_messages) {
    wire_bytes_ += payload_bytes + num_messages * options_.header_bytes;
    wire_messages_ += num_messages;
  }
  void count_retry() { ++retries_; }
  void count_timeout() { ++timeouts_; }
  void count_heartbeat() { ++heartbeats_; }

  TransportOptions options_;
  std::size_t num_parts_ = 0;
  std::vector<Inbox> inboxes_;

 private:
  std::size_t wire_bytes_ = 0;
  std::size_t wire_messages_ = 0;
  std::size_t retries_ = 0;
  std::size_t timeouts_ = 0;
  std::size_t heartbeats_ = 0;
  std::vector<float> wire_round_scratch_;
};

class SimTransport final : public Transport {
 public:
  SimTransport(std::size_t num_parts, const TransportOptions& options);

  void begin_superstep() override;
  void send(std::size_t src, std::size_t dst, VertexId sender,
            std::span<const float> payload) override;
  void send_opaque(std::size_t src, std::size_t dst,
                   std::size_t payload_bytes,
                   std::size_t num_messages = 1) override;
  void send_exact(std::size_t src, std::size_t dst, VertexId sender,
                  std::span<const float> payload) override;

  // Modeled seconds for the superstep: max over partitions of
  // (egress + ingress) cost.
  double end_superstep() override;
  bool measures_time() const override { return false; }

  double superstep_wait_sec(std::size_t part) const override;

 protected:
  const char* name_impl() const override { return "sim"; }

 private:
  void account(std::size_t src, std::size_t dst, std::size_t payload_bytes,
               std::size_t num_messages);

  std::vector<double> egress_sec_;   // per-partition, this superstep
  std::vector<double> ingress_sec_;  // per-partition, this superstep
  std::vector<double> superstep_wait_sec_;  // last completed superstep
};

}  // namespace ripple
