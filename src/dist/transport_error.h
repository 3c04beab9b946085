// Typed transport failures (docs/fault_tolerance.md).
//
// Runtime wire failures — a peer dying mid-superstep, a wedged socket, a
// malformed or truncated frame — are RECOVERABLE conditions for the layers
// above (checkpoint/restore, serving degradation), so they must not abort
// the process the way a RIPPLE_CHECK programming-error assert does. Every
// such failure surfaces as a TransportError carrying a machine-readable
// kind, so callers can switch on WHAT failed:
//
//   kTimeout  — a deadline expired (superstep barrier, connect budget).
//               The peer may still be alive; retrying or re-forming the
//               mesh can succeed.
//   kPeerLost — a peer is positively gone: its socket closed or errored
//               before its barrier, or it sent nothing for peer_dead_sec
//               while owing progress. Recovery means restore-from-
//               checkpoint with a replacement rank.
//   kProtocol — frames arrived intact but violated the protocol state
//               machine (barrier index mismatch).
//               Indicates a software bug or a byzantine peer; the mesh
//               state is unrecoverable without a restart.
//   kCorrupt  — bytes failed validation (frame length out of bounds,
//               unknown frame type, row width mismatch, checkpoint CRC).
//
// TransportError derives from check_error so existing catch sites (the
// loopback harness, gtest assertions on check_error) keep working; new
// code should catch TransportError first and switch on kind().
#pragma once

#include <cstdint>
#include <string>

#include "common/check.h"

namespace ripple {

enum class TransportErrorKind : std::uint8_t {
  kTimeout,
  kPeerLost,
  kProtocol,
  kCorrupt,
};

const char* transport_error_kind_name(TransportErrorKind kind);

class TransportError : public check_error {
 public:
  TransportError(TransportErrorKind kind, const std::string& what)
      : check_error(std::string("transport error [") +
                    transport_error_kind_name(kind) + "]: " + what),
        kind_(kind) {}

  TransportErrorKind kind() const { return kind_; }

 private:
  TransportErrorKind kind_;
};

inline const char* transport_error_kind_name(TransportErrorKind kind) {
  switch (kind) {
    case TransportErrorKind::kTimeout: return "timeout";
    case TransportErrorKind::kPeerLost: return "peer_lost";
    case TransportErrorKind::kProtocol: return "protocol";
    case TransportErrorKind::kCorrupt: return "corrupt";
  }
  return "?";
}

}  // namespace ripple
