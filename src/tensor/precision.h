// bfloat16 conversion primitives shared by the bf16 wire codec
// (dist/wire_format.h) and the transport's sender-side rounding
// (--wire-precision=bf16, dist/transport.h). Compute is f32 throughout;
// bf16 only narrows delta rows on the wire.
#pragma once

#include <cstdint>
#include <cstring>

namespace ripple {

// ---- bf16 primitives -------------------------------------------------
// bf16 is the top half of the f32 bit pattern. Narrowing rounds to
// nearest-even on the dropped 16 bits; NaNs keep their sign/exponent and
// get the quiet bit forced so a payload-only-in-low-bits NaN cannot narrow
// to infinity (NaN-ness is preserved, payload is not — matching the
// kernel NaN contract). ±0, denormals, and infinities round exactly per
// RNE (bf16 has f32's exponent range, so no overflow surprises).

inline std::uint16_t bf16_from_f32(float x) {
  std::uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  if ((bits & 0x7fffffffu) > 0x7f800000u) {        // NaN: quiet, keep sign
    return static_cast<std::uint16_t>((bits >> 16) | 0x0040u);
  }
  const std::uint32_t rounding = 0x7fffu + ((bits >> 16) & 1u);  // RNE
  return static_cast<std::uint16_t>((bits + rounding) >> 16);
}

inline float bf16_to_f32(std::uint16_t h) {
  const std::uint32_t bits = static_cast<std::uint32_t>(h) << 16;
  float x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

// Round-trip through bf16: the value a bf16 wire row actually carries.
// Exact for values with <= 8 significand bits.
inline float bf16_round(float x) { return bf16_to_f32(bf16_from_f32(x)); }

}  // namespace ripple
