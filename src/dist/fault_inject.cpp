#include "dist/fault_inject.h"

#include <csignal>
#include <sstream>

#include "common/check.h"

namespace ripple {

FaultPlan FaultPlan::seeded_kill(std::uint64_t seed, std::uint64_t max_step) {
  RIPPLE_CHECK(max_step >= 1);
  std::uint64_t rng = seed ^ 0x9e3779b97f4a7c15ULL;
  rng ^= rng << 13;
  rng ^= rng >> 7;
  rng ^= rng << 17;
  FaultPlan plan;
  FaultAction kill;
  kill.kind = FaultKind::kKillAtStep;
  kill.at_step = 1 + rng % max_step;
  plan.actions.push_back(kill);
  return plan;
}

FaultInjectTransport::FaultInjectTransport(std::unique_ptr<Transport> inner,
                                           FaultPlan plan)
    : Transport(inner->num_parts(), inner->options()),
      inner_(std::move(inner)), plan_(std::move(plan)) {}

void FaultInjectTransport::kill_now(const char* where) {
  if (plan_.real_kill) {
    // A forked tcp rank dies for real; its peers' detection path is the
    // test subject. raise() cannot return for SIGKILL.
    ::raise(SIGKILL);
  }
  std::ostringstream os;
  os << "injected rank death at " << where << " (step " << steps_begun_
     << ")";
  throw TransportError(TransportErrorKind::kPeerLost, os.str());
}

const FaultAction* FaultInjectTransport::match(FaultKind kind,
                                               std::uint64_t index) const {
  for (const FaultAction& action : plan_.actions) {
    if (action.kind == kind && action.frame_index == index) return &action;
  }
  return nullptr;
}

void FaultInjectTransport::begin_superstep() {
  ++steps_begun_;
  for (const FaultAction& action : plan_.actions) {
    if (action.kind == FaultKind::kKillAtStep &&
        action.at_step == steps_begun_) {
      kill_now("step start");
    }
  }
  inner_->begin_superstep();
}

void FaultInjectTransport::send(std::size_t src, std::size_t dst,
                                VertexId sender,
                                std::span<const float> payload) {
  const std::uint64_t index = payloads_sent_++;
  if (match(FaultKind::kCorruptPayload, index) != nullptr) {
    // Truncation survives framing on every backend; a bit flip would too,
    // but only a width change is DETECTABLE without a row checksum.
    inner_->send(src, dst, sender, payload.subspan(0, payload.size() / 2));
    return;
  }
  inner_->send(src, dst, sender, payload);
}

void FaultInjectTransport::send_opaque(std::size_t src, std::size_t dst,
                                       std::size_t payload_bytes,
                                       std::size_t num_messages) {
  inner_->send_opaque(src, dst, payload_bytes, num_messages);
}

void FaultInjectTransport::send_exact(std::size_t src, std::size_t dst,
                                      VertexId sender,
                                      std::span<const float> payload) {
  inner_->send_exact(src, dst, sender, payload);
}

bool FaultInjectTransport::hosts(std::size_t part) const {
  return inner_->hosts(part);
}

double FaultInjectTransport::end_superstep() {
  return inner_->end_superstep();
}

bool FaultInjectTransport::measures_time() const {
  return inner_->measures_time();
}

double FaultInjectTransport::superstep_wait_sec(std::size_t part) const {
  return inner_->superstep_wait_sec(part);
}

const Transport::Inbox& FaultInjectTransport::inbox(std::size_t part) const {
  return inner_->inbox(part);
}

std::size_t FaultInjectTransport::wire_bytes() const {
  return inner_->wire_bytes();
}

std::size_t FaultInjectTransport::wire_messages() const {
  return inner_->wire_messages();
}

std::size_t FaultInjectTransport::retries() const { return inner_->retries(); }

std::size_t FaultInjectTransport::timeouts() const {
  return inner_->timeouts();
}

std::size_t FaultInjectTransport::heartbeats() const {
  return inner_->heartbeats();
}

std::unique_ptr<Transport> make_fault_inject_sim(
    std::size_t num_parts, const TransportOptions& options, FaultPlan plan) {
  return std::make_unique<FaultInjectTransport>(
      std::make_unique<SimTransport>(num_parts, options), std::move(plan));
}

}  // namespace ripple
