// Unit suite for the bf16 conversion primitives (tensor/precision.h):
// narrowing/widening (round-to-nearest-even, NaN quieting, ±0 / denormal
// / infinity handling). The bf16 wire codec and the transport's
// sender-side rounding (tests/dist/test_transport.cpp) build on them.
#include "tensor/precision.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

namespace ripple {
namespace {

TEST(Bf16, WideningIsExactRoundTrip) {
  // Every bf16 pattern widens to an f32 whose re-narrowing returns the
  // same pattern — widening adds 16 zero bits, which RNE drops exactly.
  // (Exhaustive over all 65536 patterns. The one carve-out: a SIGNALING
  // NaN pattern comes back with the quiet bit forced, matching the
  // narrowing contract; quiet NaNs are exact fixed points.)
  for (std::uint32_t h = 0; h <= 0xffffu; ++h) {
    const auto half = static_cast<std::uint16_t>(h);
    const bool is_nan = (h & 0x7fffu) > 0x7f80u;
    const auto expect = static_cast<std::uint16_t>(is_nan ? h | 0x0040u : h);
    EXPECT_EQ(bf16_from_f32(bf16_to_f32(half)), expect) << "pattern " << h;
  }
}

TEST(Bf16, ValuesWithShortSignificandsAreExact) {
  // <= 8 significand bits survive the round trip unchanged.
  for (const float x : {0.0f, 1.0f, -1.0f, 0.5f, -2.5f, 3.25f, 128.0f,
                        -0.0078125f, 1.984375f /* 1 + 63/64 */}) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(bf16_round(x)),
              std::bit_cast<std::uint32_t>(x))
        << x;
  }
}

TEST(Bf16, RoundsToNearestEven) {
  // 0x3f80'8000 is exactly halfway between bf16 0x3f80 and 0x3f81: RNE
  // keeps the even pattern. 0x3f81'8000 is halfway with an ODD low bit:
  // RNE rounds up to 0x3f82. One ulp past halfway always rounds up.
  EXPECT_EQ(bf16_from_f32(std::bit_cast<float>(0x3f808000u)), 0x3f80u);
  EXPECT_EQ(bf16_from_f32(std::bit_cast<float>(0x3f818000u)), 0x3f82u);
  EXPECT_EQ(bf16_from_f32(std::bit_cast<float>(0x3f808001u)), 0x3f81u);
  EXPECT_EQ(bf16_from_f32(std::bit_cast<float>(0x3f807fffu)), 0x3f80u);
  // Mantissa carry propagates into the exponent: just under 2.0 rounds to
  // exactly 2.0, not to a wrapped mantissa.
  EXPECT_EQ(bf16_from_f32(std::bit_cast<float>(0x3fffffffu)), 0x4000u);
  // Sign is preserved through rounding.
  EXPECT_EQ(bf16_from_f32(std::bit_cast<float>(0xbf818000u)), 0xbf82u);
}

TEST(Bf16, NaNStaysNaNWithSignAndQuietBit) {
  // A NaN whose payload lives only in the low 16 bits must NOT narrow to
  // the infinity pattern — the quiet bit is forced instead.
  const auto low_payload = bf16_from_f32(std::bit_cast<float>(0x7f800001u));
  EXPECT_TRUE(std::isnan(bf16_to_f32(low_payload)));
  EXPECT_EQ(low_payload, 0x7fc0u);
  // Negative NaN keeps its sign.
  const auto negative = bf16_from_f32(std::bit_cast<float>(0xffc0beefu));
  EXPECT_TRUE(std::isnan(bf16_to_f32(negative)));
  EXPECT_EQ(negative & 0x8000u, 0x8000u);
  // A quiet NaN is a fixed point of the round trip (quiet bit already set).
  const float qnan = std::bit_cast<float>(0x7fc01234u);
  EXPECT_EQ(bf16_from_f32(bf16_round(qnan)), bf16_from_f32(qnan));
}

TEST(Bf16, ZerosInfinitiesAndDenormals) {
  EXPECT_EQ(bf16_from_f32(0.0f), 0x0000u);
  EXPECT_EQ(bf16_from_f32(-0.0f), 0x8000u);
  EXPECT_EQ(bf16_from_f32(std::numeric_limits<float>::infinity()), 0x7f80u);
  EXPECT_EQ(bf16_from_f32(-std::numeric_limits<float>::infinity()), 0xff80u);
  // The smallest f32 denormal is far below half the smallest bf16
  // denormal: it rounds to +0 (sign preserved for the negative one).
  EXPECT_EQ(bf16_from_f32(std::numeric_limits<float>::denorm_min()), 0x0000u);
  EXPECT_EQ(bf16_from_f32(-std::numeric_limits<float>::denorm_min()),
            0x8000u);
  // A bf16 denormal (f32 pattern with only high-mantissa bits) is exact.
  const float bf16_denorm = std::bit_cast<float>(0x00010000u);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(bf16_round(bf16_denorm)),
            0x00010000u);
  // Large finite f32 values cannot overflow to infinity spuriously — bf16
  // shares the f32 exponent range; max finite f32 rounds up to inf only
  // because its mantissa rounds over, which IS correct RNE behavior.
  EXPECT_EQ(bf16_from_f32(std::numeric_limits<float>::max()), 0x7f80u);
  EXPECT_EQ(bf16_from_f32(std::bit_cast<float>(0x7f7f0000u)), 0x7f7fu);
}

}  // namespace
}  // namespace ripple
