#include "dist/transport.h"

#include <algorithm>

#include "common/check.h"
#include "common/flags.h"

namespace ripple {

TransportOptions TransportOptions::from_flags(const Flags& flags) {
  TransportOptions options;
  options.per_message_sec = flags.get_double("wire-latency-us", 5.0) * 1e-6;
  options.bytes_per_sec = flags.get_double("wire-gbps", 10.0) * 1e9 / 8.0;
  return options;
}

double Transport::superstep_wait_sec(std::size_t) const { return 0.0; }

Transport::Transport(std::size_t num_parts, const TransportOptions& options)
    : options_(options), num_parts_(num_parts) {
  RIPPLE_CHECK(num_parts >= 1);
  RIPPLE_CHECK(options_.bytes_per_sec > 0);
  inboxes_.resize(num_parts);
}

SimTransport::SimTransport(std::size_t num_parts,
                           const TransportOptions& options)
    : Transport(num_parts, options) {
  egress_sec_.assign(num_parts, 0.0);
  ingress_sec_.assign(num_parts, 0.0);
  superstep_wait_sec_.assign(num_parts, 0.0);
}

void SimTransport::begin_superstep() {
  for (Inbox& inbox : inboxes_) inbox.clear();
  std::fill(egress_sec_.begin(), egress_sec_.end(), 0.0);
  std::fill(ingress_sec_.begin(), ingress_sec_.end(), 0.0);
}

void SimTransport::account(std::size_t src, std::size_t dst,
                           std::size_t payload_bytes,
                           std::size_t num_messages) {
  const std::size_t total_bytes =
      payload_bytes + num_messages * options_.header_bytes;
  const double sec =
      static_cast<double>(num_messages) * options_.per_message_sec +
      static_cast<double>(total_bytes) / options_.bytes_per_sec;
  egress_sec_[src] += sec;
  ingress_sec_[dst] += sec;
  count_wire(payload_bytes, num_messages);
}

void SimTransport::send(std::size_t src, std::size_t dst, VertexId sender,
                        std::span<const float> payload) {
  RIPPLE_CHECK_MSG(src != dst, "local traffic must not touch the wire");
  inboxes_[dst].append(sender, static_cast<std::uint32_t>(src), payload);
  account(src, dst, payload.size() * sizeof(float), 1);
}

void SimTransport::send_opaque(std::size_t src, std::size_t dst,
                               std::size_t payload_bytes,
                               std::size_t num_messages) {
  RIPPLE_CHECK_MSG(src != dst, "local traffic must not touch the wire");
  account(src, dst, payload_bytes, num_messages);
}

double SimTransport::end_superstep() {
  double worst = 0.0;
  for (std::size_t p = 0; p < num_parts(); ++p) {
    worst = std::max(worst, egress_sec_[p] + ingress_sec_[p]);
  }
  // BSP stall model: every endpoint waits at the barrier until the slowest
  // one has finished its traffic.
  for (std::size_t p = 0; p < num_parts(); ++p) {
    superstep_wait_sec_[p] = worst - (egress_sec_[p] + ingress_sec_[p]);
  }
  return worst;
}

double SimTransport::superstep_wait_sec(std::size_t part) const {
  return superstep_wait_sec_[part];
}

}  // namespace ripple
