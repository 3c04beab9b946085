// Length-prefixed wire framing for TcpTransport.
//
// Every frame is  [u32 body_len][u8 type][body] , body_len counting the
// type byte. Integers and floats are host-endian: the transport targets
// loopback harnesses and same-architecture LAN clusters, and the exactness
// contract (bit-identical floats after a round trip) is simplest to keep
// when the bytes on the wire ARE the in-memory bits. Frame bodies:
//
//   payload  — u32 sender (VertexId), u32 src_part, u32 num_floats,
//              num_floats * f32. Round-trips Transport::Message plus its
//              row exactly (a NaN payload stays the same NaN).
//   payload_bf16 — same fields, but the row travels as num_values * u16
//              bfloat16 (tensor/precision.h); the decoder widens back to
//              f32. Used by --wire-precision=bf16 (transport.h): the sender
//              rounds the row to bf16 BEFORE handing it to the transport,
//              so narrowing here is exact and the decoded row is
//              bit-identical to the sender's rounded copy — which is what
//              keeps tcp and sim bit-equal at reduced wire precision.
//   opaque   — u32 src_part, u32 dst_part, u64 payload_bytes,
//              u64 num_messages. Accounting record of the update-routing
//              broadcast; the receiver drains it for barrier ordering but
//              counts nothing — counters are per-rank egress, recorded at
//              the sender, and the per-rank sums equal sim's global
//              totals (tests/dist/test_transport.cpp).
//   barrier  — u32 src_part, u64 superstep. End-of-superstep marker; a
//              rank's superstep completes when every peer's barrier for
//              the same superstep index arrived.
//   heartbeat — u32 src_part. Idle-liveness frame (see below).
//
// The encoder appends to a byte vector (the per-peer send queue); the
// decoder is incremental — feed it arbitrary chunks as they arrive off a
// non-blocking socket and pop complete frames. Unit-tested for exact
// round-trips under 1-byte-at-a-time delivery in tests/dist.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"

namespace ripple::wire {

enum class FrameType : std::uint8_t {
  payload = 1,
  opaque = 2,
  barrier = 3,
  payload_bf16 = 4,
  // 5, 6 and 7 are retired (former async token/row and migration frame
  // types): the decoder rejects them as unknown, and they must not be
  // reused.
  heartbeat = 8,
};

// Upper bound on a frame's wire-declared body length. The largest honest
// frame is a migrated owned row (a few KB at realistic embedding widths),
// so 16 MiB is orders of magnitude of headroom — while a corrupt or
// malicious u32 length can claim up to 4 GiB, which the decoder would
// otherwise buffer for before ever validating the body. Lengths above the
// bound raise TransportError{kCorrupt} as soon as the header is visible
// (docs/fault_tolerance.md).
inline constexpr std::size_t kMaxFrameBytes = 16u << 20;

struct Frame {
  FrameType type = FrameType::payload;
  // payload fields
  VertexId sender = kInvalidVertex;
  std::uint32_t src_part = 0;
  std::vector<float> row;
  // opaque fields (src_part shared above)
  std::uint32_t dst_part = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t num_messages = 0;
  // barrier fields (src_part shared above)
  std::uint64_t superstep = 0;
};

void append_payload_frame(std::vector<std::uint8_t>& out, VertexId sender,
                          std::uint32_t src_part, std::span<const float> row);
// bf16 row codec: each value is narrowed to bfloat16 on encode and widened
// on decode (Frame::row is always f32 in memory). Lossless only when the
// row is already bf16-rounded — the transport's sender-side rounding
// guarantees that.
void append_payload_frame_bf16(std::vector<std::uint8_t>& out,
                               VertexId sender, std::uint32_t src_part,
                               std::span<const float> row);
void append_opaque_frame(std::vector<std::uint8_t>& out,
                         std::uint32_t src_part, std::uint32_t dst_part,
                         std::uint64_t payload_bytes,
                         std::uint64_t num_messages);
void append_barrier_frame(std::vector<std::uint8_t>& out,
                          std::uint32_t src_part, std::uint64_t superstep);
// Liveness heartbeat — u32 src_part only. Sent by TcpTransport while idle
// at a barrier so peers can distinguish "slow" from "dead"; the receiver
// refreshes its peer-liveness clock on ANY bytes, so the frame itself is
// discarded on dispatch. Never counted in the wire counters.
void append_heartbeat_frame(std::vector<std::uint8_t>& out,
                            std::uint32_t src_part);

// Incremental decoder over a stream of frame bytes.
class FrameDecoder {
 public:
  // Appends raw bytes as they arrive (any chunking, including 1 byte).
  void feed(std::span<const std::uint8_t> bytes);

  // Pops the next complete frame into `out`; false if none is buffered.
  // Throws TransportError{kCorrupt} on a malformed frame (length out of
  // [1, kMaxFrameBytes], unknown type, body too short or too long for its
  // type) — the length bound is enforced the moment the header is visible,
  // so feed() never buffers toward an unbounded wire-declared length.
  bool next(Frame& out);

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t cursor_ = 0;  // consumed prefix, compacted lazily
};

}  // namespace ripple::wire
