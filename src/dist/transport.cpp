#include "dist/transport.h"

#include <algorithm>

#include "common/check.h"
#include "common/flags.h"
#include "tensor/precision.h"

namespace ripple {

namespace {
TransportOptions g_default_options;
}  // namespace

const char* wire_precision_name(WirePrecision p) {
  switch (p) {
    case WirePrecision::kF32: return "f32";
    case WirePrecision::kBf16: return "bf16";
  }
  return "?";
}

WirePrecision parse_wire_precision(const std::string& name) {
  if (name == "f32") return WirePrecision::kF32;
  if (name == "bf16") return WirePrecision::kBf16;
  throw check_error("unknown wire precision '" + name +
                    "' (expected f32|bf16)");
}

const std::vector<std::string>& wire_precision_choices() {
  static const std::vector<std::string> choices = {"f32", "bf16"};
  return choices;
}

TransportOptions TransportOptions::from_flags(const Flags& flags) {
  TransportOptions options;
  options.per_message_sec = flags.get_double("wire-latency-us", 5.0) * 1e-6;
  options.bytes_per_sec = flags.get_double("wire-gbps", 10.0) * 1e9 / 8.0;
  options.wire_precision = parse_wire_precision(flags.get_choice(
      "wire-precision", wire_precision_choices(), "f32"));
  return options;
}

double Transport::superstep_wait_sec(std::size_t) const { return 0.0; }

void set_transport_options(const TransportOptions& options) {
  g_default_options = options;
}

const TransportOptions& default_transport_options() {
  return g_default_options;
}

Transport::Transport(std::size_t num_parts, const TransportOptions& options)
    : options_(options), num_parts_(num_parts) {
  RIPPLE_CHECK(num_parts >= 1);
  RIPPLE_CHECK(options_.bytes_per_sec > 0);
  inboxes_.resize(num_parts);
}

std::span<const float> Transport::round_row_for_wire(
    std::span<const float> payload) {
  if (options_.wire_precision == WirePrecision::kF32) return payload;
  wire_round_scratch_.resize(payload.size());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    wire_round_scratch_[i] = bf16_round(payload[i]);
  }
  return wire_round_scratch_;
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
  // The wire-rounded row is what the receiver sees AND what gets costed —
  // same sender-side narrowing TcpTransport applies before framing.
  const std::span<const float> row = round_row_for_wire(payload);
  inboxes_[dst].append(sender, static_cast<std::uint32_t>(src), row);
  account(src, dst, row_wire_bytes(row.size()), 1);
}

void SimTransport::send_opaque(std::size_t src, std::size_t dst,
                               std::size_t payload_bytes,
                               std::size_t num_messages) {
  RIPPLE_CHECK_MSG(src != dst, "local traffic must not touch the wire");
  account(src, dst, payload_bytes, num_messages);
}

void SimTransport::send_exact(std::size_t src, std::size_t dst,
                              VertexId sender,
                              std::span<const float> payload) {
  RIPPLE_CHECK_MSG(src != dst, "local traffic must not touch the wire");
  // Exact bits, counted at full f32 width — never wire-rounded.
  inboxes_[dst].append(sender, static_cast<std::uint32_t>(src), payload);
  account(src, dst, payload.size() * sizeof(float), 1);
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
