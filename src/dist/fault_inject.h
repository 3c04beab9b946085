// Deterministic fault injection for the distributed runtime
// (docs/fault_tolerance.md).
//
// FaultInjectTransport decorates ANY Transport — SimTransport for
// in-process property tests, TcpTransport inside a forked rank for real
// socket runs — and executes a seeded, deterministic FaultPlan against the
// traffic flowing through it:
//
//   kKillAtStep      — when this endpoint's superstep counter reaches
//                      `at_step`: throw TransportError{kPeerLost} (sim), or
//                      raise a REAL SIGKILL when plan.real_kill is set (a
//                      forked tcp rank dies mid-run; its peers detect the
//                      loss through the heartbeat/deadline protocol).
//   kCorruptPayload  — truncate the `frame_index`-th payload send to half
//                      width; the receiver's width validation raises
//                      TransportError{kCorrupt}.
//
// All counters/inboxes delegate to the decorated backend, so engine code is
// oblivious to the wrapper. Faults are matched on deterministic local
// counters (frames sent, steps begun) — the same plan against the same
// protocol run always injects at the same point.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dist/transport.h"

namespace ripple {

enum class FaultKind : std::uint8_t {
  kKillAtStep,
  kCorruptPayload,
};

struct FaultAction {
  FaultKind kind = FaultKind::kKillAtStep;
  std::uint64_t at_step = 0;      // kKillAtStep: begin_superstep() count
  std::uint64_t frame_index = 0;  // kCorruptPayload: 0-based send index
};

struct FaultPlan {
  std::vector<FaultAction> actions;
  // kKill* raises SIGKILL instead of throwing — for forked tcp ranks,
  // where the point is the PEERS' detection path, not this rank's.
  bool real_kill = false;

  // Deterministic seeded schedule: one kill somewhere in
  // steps [1, max_step], derived from `seed` by xorshift. Different seeds
  // place the kill at different supersteps of the run — the schedule axis
  // of the recovery property tests.
  static FaultPlan seeded_kill(std::uint64_t seed, std::uint64_t max_step);
};

class FaultInjectTransport final : public Transport {
 public:
  FaultInjectTransport(std::unique_ptr<Transport> inner, FaultPlan plan);

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
  double superstep_wait_sec(std::size_t part) const override;

  const Inbox& inbox(std::size_t part) const override;
  std::size_t wire_bytes() const override;
  std::size_t wire_messages() const override;
  std::size_t retries() const override;
  std::size_t timeouts() const override;
  std::size_t heartbeats() const override;

 protected:
  const char* name_impl() const override { return "fault-inject"; }

 private:
  [[noreturn]] void kill_now(const char* where);
  // Returns the action matching this payload index, or nullptr.
  const FaultAction* match(FaultKind kind, std::uint64_t index) const;

  std::unique_ptr<Transport> inner_;
  FaultPlan plan_;
  std::uint64_t steps_begun_ = 0;   // begin_superstep calls
  std::uint64_t payloads_sent_ = 0; // send calls observed
};

// Convenience for test matrices: wraps a fresh SimTransport.
std::unique_ptr<Transport> make_fault_inject_sim(
    std::size_t num_parts, const TransportOptions& options, FaultPlan plan);

}  // namespace ripple
