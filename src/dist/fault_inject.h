// Deterministic fault injection for the distributed runtime
// (docs/fault_tolerance.md).
//
// FaultInjectTransport decorates ANY Transport — SimTransport for
// in-process property tests, TcpTransport inside a forked rank for real
// socket runs — and executes a seeded, deterministic FaultPlan against the
// traffic flowing through it:
//
//   kKillAtStep      — when this endpoint's superstep/epoch counter reaches
//                      `at_step`: throw TransportError{kPeerLost} (sim), or
//                      raise a REAL SIGKILL when plan.real_kill is set (a
//                      forked tcp rank dies mid-run; its peers detect the
//                      loss through the heartbeat/deadline protocol).
//   kKillAtRowFrame  — same, but triggered by the `frame_index`-th async
//                      row send: a mid-epoch death.
//   kDropRow         — swallow the `frame_index`-th async row. The epoch
//                      can then never quiesce; the driver's stall detector
//                      surfaces TransportError{kTimeout}.
//   kDelayRowPair    — hold the `frame_index`-th row AND every later row of
//                      the same (src, dst) pair for `delay_polls` polls,
//                      then re-inject in order. Pair FIFO is preserved, so
//                      by the async fixed-point property the run stays
//                      BIT-identical — the benign-fault control case.
//   kDuplicateRow    — send the `frame_index`-th row twice. The receiver's
//                      dependency counts see a spurious credit:
//                      TransportError{kProtocol}.
//   kCorruptRow      — truncate the `frame_index`-th async row to half
//                      width; the receiver's width validation raises
//                      TransportError{kCorrupt}.
//   kCorruptPayload  — same truncation on the `frame_index`-th BSP payload
//                      send; the BSP seed phase's width validation raises
//                      TransportError{kCorrupt}.
//
// All counters/inboxes delegate to the decorated backend, so engine code is
// oblivious to the wrapper. Faults are matched on deterministic local
// counters (frames sent, steps begun) — the same plan against the same
// protocol run always injects at the same point.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "dist/transport.h"

namespace ripple {

enum class FaultKind : std::uint8_t {
  kKillAtStep,
  kKillAtRowFrame,
  kDropRow,
  kDelayRowPair,
  kDuplicateRow,
  kCorruptRow,
  kCorruptPayload,
};

struct FaultAction {
  FaultKind kind = FaultKind::kKillAtStep;
  std::uint64_t at_step = 0;      // kKillAtStep: steps_begun() trigger
  std::uint64_t frame_index = 0;  // row/payload faults: 0-based send index
  std::uint64_t delay_polls = 4;  // kDelayRowPair: polls to hold the pair
};

struct FaultPlan {
  std::vector<FaultAction> actions;
  // kKill* raises SIGKILL instead of throwing — for forked tcp ranks,
  // where the point is the PEERS' detection path, not this rank's.
  bool real_kill = false;

  // Deterministic seeded schedule: one kill somewhere in
  // steps [1, max_step], derived from `seed` by xorshift. Different seeds
  // place the kill at different supersteps/epochs of the run — the
  // schedule axis of the recovery property tests.
  static FaultPlan seeded_kill(std::uint64_t seed, std::uint64_t max_step);
};

class FaultInjectTransport final : public Transport {
 public:
  FaultInjectTransport(std::unique_ptr<Transport> inner, FaultPlan plan);

  // The decorated backend (test hooks like SimTransport::
  // pending_async_frames live there).
  Transport& inner() { return *inner_; }

  std::size_t faults_injected() const { return faults_injected_; }
  std::uint64_t steps_begun() const { return steps_begun_; }

  void begin_superstep() override;
  void send(std::size_t src, std::size_t dst, VertexId sender,
            std::span<const float> payload) override;
  void send_opaque(std::size_t src, std::size_t dst,
                   std::size_t payload_bytes,
                   std::size_t num_messages = 1) override;
  void send_exact(std::size_t src, std::size_t dst, VertexId sender,
                  std::span<const float> payload) override;
  bool hosts(std::size_t part) const override;
  double end_superstep() override;
  bool measures_time() const override;

  void begin_epoch() override;
  void send_row(std::size_t src, std::size_t dst, VertexId sender,
                std::uint32_t hop, std::span<const float> payload) override;
  void send_token(std::size_t src, std::size_t dst,
                  const TerminationToken& token) override;
  std::size_t poll_async(std::size_t part, std::vector<AsyncFrame>& out,
                         int timeout_ms = 0) override;
  void end_epoch() override;
  double epoch_comm_sec(std::size_t part) const override;
  double superstep_wait_sec(std::size_t part) const override;

  const Inbox& inbox(std::size_t part) const override;
  std::size_t wire_bytes() const override;
  std::size_t wire_messages() const override;
  std::size_t token_messages() const override;
  std::size_t retries() const override;
  std::size_t timeouts() const override;
  std::size_t heartbeats() const override;

 protected:
  const char* name_impl() const override { return "fault-inject"; }

 private:
  struct HeldRow {
    std::size_t src = 0, dst = 0;
    VertexId sender = kInvalidVertex;
    std::uint32_t hop = 0;
    std::vector<float> row;
  };
  struct HeldPair {
    std::uint64_t release_poll = 0;
    std::vector<HeldRow> rows;
  };

  void maybe_kill_at_step();
  [[noreturn]] void kill_now(const char* where);
  // Returns the action matching this row/payload index, or nullptr.
  const FaultAction* match(FaultKind kind, std::uint64_t index) const;
  void release_due_pairs();

  std::unique_ptr<Transport> inner_;
  FaultPlan plan_;
  std::uint64_t steps_begun_ = 0;   // begin_superstep + begin_epoch calls
  std::uint64_t rows_sent_ = 0;     // send_row calls observed
  std::uint64_t payloads_sent_ = 0; // send calls observed
  std::uint64_t polls_ = 0;         // poll_async calls observed
  std::size_t faults_injected_ = 0;
  std::map<std::pair<std::size_t, std::size_t>, HeldPair> held_;
};

// Convenience for test matrices: wraps a fresh SimTransport.
std::unique_ptr<Transport> make_fault_inject_sim(
    std::size_t num_parts, const TransportOptions& options, FaultPlan plan);

}  // namespace ripple
