// Per-rank cache of remote boundary rows (§5.1).
//
// An owner-computes rank stores only its owned vertex rows; every read of a
// REMOTE vertex's embedding (edge-op seeding at a cut edge, hop-kernel
// aggregation of a cut in-edge, rc-engine pulls) goes through this cache.
// Entries are keyed by global vertex id and hold one row per cached layer
// (layers 0..L-1 for the ripple engine — the inputs of hops 1..L; the rc
// engine keeps per-hop pull maps instead and does not use this type).
//
// Coherence is write-through from the wire: the protocol ships the owner's
// COMMITTED new row (feature messages, fills, hop exchanges), and the
// receiver overwrites the cached row with the exact received bits — never
// accumulates into it — so cached rows are bit-equal to the owner's rows.
// Entries are erased eagerly when the last cut edge from the cached vertex
// into this rank's owned set disappears, and (re)filled when the first one
// appears; both transitions are decided from the replicated topology, so
// sender and receiver agree without a request round-trip.
//
// Storage is one flat float vector per layer with a slot free list:
// erase/insert churn reuses slots (smallest retired slot first), and growth
// never moves live rows that other slots reference (Matrix::resize would
// reassign every element). Trailing free slots are trimmed on erase — a
// shrinking halo (cut-edge deletes, migration re-homes) releases storage
// instead of pinning its high-water footprint.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/types.h"

namespace ripple {

class HaloCache {
 public:
  HaloCache() = default;
  // widths[l] = floats per cached row of layer l.
  explicit HaloCache(std::vector<std::size_t> widths);

  std::size_t num_layers() const { return widths_.size(); }
  std::size_t size() const { return slot_of_.size(); }
  bool contains(VertexId v) const { return slot_of_.count(v) != 0; }

  // Inserts v (no-op if present) and returns its slot. New slots are
  // zero-filled across all layers.
  std::uint32_t ensure(VertexId v);
  void erase(VertexId v);

  std::span<float> row(VertexId v, std::size_t layer);
  std::span<const float> row(VertexId v, std::size_t layer) const;

  // Resident footprint (flat layer storage + index + free list).
  std::size_t bytes() const;

 private:
  std::vector<std::size_t> widths_;
  std::unordered_map<VertexId, std::uint32_t> slot_of_;
  // Retired slots, sorted descending: smallest reused first (see erase()).
  std::vector<std::uint32_t> free_;
  std::size_t num_slots_ = 0;
  std::vector<std::vector<float>> data_;  // per layer, slot-major
};

}  // namespace ripple
