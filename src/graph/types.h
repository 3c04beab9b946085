// Shared graph typedefs. Vertex ids are dense 32-bit indices; the largest
// dataset analogue (papers-s) stays well below 2^32 vertices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace ripple {

using VertexId = std::uint32_t;
using EdgeWeight = float;

inline constexpr VertexId kInvalidVertex =
    std::numeric_limits<VertexId>::max();

// Fibonacci multiplicative spread of a dense id across n buckets (n >= 1):
// the partition fallback for vertices that join the stream after
// partitioning, so every replica of a partition routes the same id
// identically.
inline std::size_t fib_spread(VertexId v, std::size_t n) {
  const std::uint64_t h =
      static_cast<std::uint64_t>(v) * 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(h >> 32) % n;
}

// A directed neighbor entry: target vertex plus the edge weight (1.0 for
// unweighted graphs; the GC-W workload uses per-edge weights).
struct Neighbor {
  VertexId vertex = kInvalidVertex;
  EdgeWeight weight = 1.0f;

  friend bool operator==(const Neighbor&, const Neighbor&) = default;
};

}  // namespace ripple
