// Per-hop mailboxes (§4.3): each vertex accumulates incremental messages
// from its impacted in-neighbors at the previous hop.
//
// A message carries the delta needed to nullify a sender's old contribution
// and include its new one: Δagg = Σ α(u,v)·(h_u_new − h_u_old). Because the
// aggregation functions are commutative, messages accumulate in any order
// (tested by the batch-order invariance property tests). The self channel
// flags that the vertex's own previous-layer embedding changed, which forces
// re-evaluation of Update functions with a self term (SAGE, GIN) even when
// no in-neighbor message arrived.
//
// Sharded layout: the mailbox is split into N shards keyed by a vertex-id
// hash. Each shard owns a flat index map (vertex → slot) plus dense
// slot-major buffers: a delta buffer (slot · dim floats) and per-slot
// touched/self flags. The layout serves the shard-parallel propagation core
// (core/ripple_engine.cpp):
//   * the seed/update phase accumulates into shards without any global
//     structure growing a hot lock;
//   * the compute phase scatters messages owner-computes style — the worker
//     that owns target shard s is the only writer of shard s, so no locks
//     are needed;
//   * the apply phase drains shards in deterministic order: slots sorted by
//     vertex id within each shard, shards in index order, giving
//     reproducible float accumulation for any shard/thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/types.h"
#include "tensor/ops.h"

namespace ripple {

class Mailbox {
 public:
  // One hash shard: flat vertex→slot index plus dense slot-major storage.
  struct Shard {
    std::unordered_map<VertexId, std::uint32_t> index;
    std::vector<VertexId> vertices;     // slot → vertex (insertion order)
    std::vector<float> deltas;          // slot-major, dim floats per slot
    std::vector<std::uint8_t> touched;  // any aggregate-changing message
    std::vector<std::uint8_t> self;     // own h^{l-1} changed (self channel)

    std::size_t size() const { return vertices.size(); }
    // Slots ordered by ascending vertex id — the deterministic drain order.
    std::vector<std::uint32_t> sorted_slots() const;
  };

  // Read/write view of one vertex's accumulator cell (test hook; the engine
  // works on whole shards).
  struct EntryView {
    std::span<float> delta_agg;  // Σ of incoming Δ contributions
    bool touched_agg = false;    // any aggregate-changing message arrived
    bool self_changed = false;   // own h^{l-1} changed (self channel)
  };

  // dim: width of the previous-layer embeddings this hop aggregates.
  // num_shards: hash shards; 1 reproduces a single flat mailbox.
  explicit Mailbox(std::size_t dim, std::size_t num_shards = 1);

  std::size_t dim() const { return dim_; }
  std::size_t num_shards() const { return shards_.size(); }
  std::size_t size() const;
  bool empty() const;

  // Owning shard of v: pure function of (v, num_shards), independent of
  // insertion history — the owner-computes contract of the compute phase.
  std::size_t shard_of(VertexId v) const {
    if (shards_.size() == 1) return 0;
    return fib_spread(v, shards_.size());
  }

  // Accumulates alpha * (h_new - h_old) into v's cell. h_old may be empty
  // (edge addition: no prior contribution); h_new may be empty (deletion).
  // Thread-safety: safe to call concurrently for vertices of DIFFERENT
  // shards (single writer per shard); never for the same shard.
  void accumulate(VertexId v, float alpha, std::span<const float> h_new,
                  std::span<const float> h_old);

  // Marks the self channel without touching the aggregate. Same shard-owner
  // thread-safety contract as accumulate().
  void mark_self_changed(VertexId v);

  bool contains(VertexId v) const;

  // Creates v's cell if absent and returns a view of it.
  EntryView entry(VertexId v);

  const Shard& shard(std::size_t s) const { return shards_[s]; }

  // Per-shard pending-slot counts — the cost vector that guides the
  // work-stealing scheduler's LPT seeding of apply tasks (a shard's drain
  // cost is proportional to its affected-vertex count).
  std::vector<std::size_t> shard_sizes() const;

  // All mailbox vertices in ascending id order — the canonical sender
  // enumeration the propagation core uses so that float accumulation order
  // is identical for every shard/thread count.
  std::vector<VertexId> sorted_vertices() const;

  // Drops all cells; retains shard/bucket capacity for the next hop.
  void clear();

  // Resident bytes including dense buffers and hash-map node + bucket
  // overhead (the index maps allocate one node per cell plus a bucket
  // array; ignoring them undercounts by ~40% at small dims).
  std::size_t bytes() const;

 private:
  Shard& mutable_shard(VertexId v) { return shards_[shard_of(v)]; }
  std::uint32_t slot_of(Shard& shard, VertexId v);

  std::size_t dim_;
  std::vector<Shard> shards_;
};

}  // namespace ripple
