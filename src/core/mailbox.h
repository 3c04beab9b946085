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
// Sharded layout: the mailbox is split into N shards, each a contiguous
// range of index rows: rows [0, rows) fall into N equal-width ranges in
// index order (see shard_of_row for the rounding). A row is the vertex id on a single machine; the distributed
// engine passes its LocalRowMap table, so a rank's index is sized to its
// owned rows, not to the whole graph, and its shards are local-row ranges.
// Each shard owns dense slot-major buffers: its vertex list, a delta buffer
// (slot · dim floats) and per-slot touched/self flags. One dense index,
// shared by every shard, maps a vertex's row to its slot in shard_of(v)
// (absent cells hold kAbsent). The layout serves the shard-parallel
// propagation core (core/ripple_engine.cpp):
//   * the seed/update phase accumulates into shards without any global
//     structure growing a hot lock;
//   * the compute phase scatters messages owner-computes style — the worker
//     that owns target shard s is the only writer of shard s, and — since
//     shard_of partitions the rows — of their index entries, so no locks
//     are needed; a pulling worker walks exactly its shard's row range;
//   * the apply phase drains shards in deterministic order: slots sorted by
//     vertex id within each shard, shards in index order, giving
//     reproducible float accumulation for any shard/thread count. A shard's
//     rows are neighbours in the aggregate cache and the embedding tables,
//     so its fold, gather and commit walks keep their spatial locality.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "tensor/ops.h"

namespace ripple {

class Mailbox {
 public:
  // One row-range shard: dense slot-major storage (the vertex → slot index
  // is the mailbox's shared row array).
  struct Shard {
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
  // rows: size of the dense index; every cell's row must be below it.
  // num_shards: equal-width row ranges; 1 reproduces a single flat
  // mailbox.
  // local_row (optional): global→row remap, the same table
  // apply_hop_shard's `local_row` takes; it must outlive the mailbox. Null
  // means a vertex's row is its id.
  Mailbox(std::size_t dim, std::size_t rows, std::size_t num_shards = 1,
          const std::uint32_t* local_row = nullptr);

  std::size_t dim() const { return dim_; }
  std::size_t num_shards() const { return shards_.size(); }
  std::size_t size() const;
  bool empty() const;

  // Owning shard of v: the row range holding row_of(v). A pure function of
  // (row, rows, num_shards), independent of insertion history — the
  // owner-computes contract of the compute phase. v's row must be below
  // the index bound.
  std::size_t shard_of(VertexId v) const { return shard_of_row(row_of(v)); }

  // Rows [first, second) of shard s; the ranges ascend with s and together
  // cover [0, rows). Empty when rows < num_shards leaves s no row.
  std::pair<std::size_t, std::size_t> row_range(std::size_t s) const;

  // Resizes the index to `rows` rows — for a row count that changed since
  // construction (a migration's re-home) — and re-spans the shard ranges
  // over them. Only while empty.
  void resize_rows(std::size_t rows);

  // Accumulates alpha * (h_new - h_old) into v's cell. h_old may be empty
  // (edge addition: no prior contribution); h_new may be empty (deletion).
  // Thread-safety: safe to call concurrently for vertices of DIFFERENT
  // shards (single writer per shard); never for the same shard. Throws
  // check_error when v's row is beyond the index.
  void accumulate(VertexId v, float alpha, std::span<const float> h_new,
                  std::span<const float> h_old);

  // Creates v's cell if absent, flags it touched, and returns its Δagg row
  // for the caller to add messages into — the pull scatter's entry point
  // (accumulate() is this plus one axpy per side). Same shard-owner
  // thread-safety contract as accumulate().
  std::span<float> touched_delta(VertexId v);

  // Marks the self channel without touching the aggregate. Same shard-owner
  // thread-safety contract as accumulate().
  void mark_self_changed(VertexId v);

  // False for a row beyond the index.
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

  // Drops all cells: resets only the index entries the shards' vertex
  // lists name (O(cells)) and retains shard capacity for the next hop.
  void clear();

  // Resident bytes: the dense index plus each shard's slot buffers.
  std::size_t bytes() const;

 private:
  // A cell's home: its shard and its slot there.
  struct Cell {
    Shard& shard;
    std::uint32_t slot;
  };

  std::size_t row_of(VertexId v) const {
    return local_row_ != nullptr ? local_row_[v] : v;
  }
  // One multiply and shift instead of a division per call: monotone in row
  // and below num_shards for every row below rows. Each range boundary sits
  // within one row of s · rows / num_shards while rows² < num_shards · 2^32
  // (185k rows at 8 shards) and drifts by at most rows² / (num_shards ·
  // 2^32) rows beyond that.
  std::size_t shard_of_row(std::size_t row) const {
    return static_cast<std::size_t>((row * row_scale_) >> 32);
  }
  // Sets row_scale_ for the current row and shard counts.
  void span_rows();
  // Checks v's row against the index bound BEFORE choosing its shard (a row
  // past the bound has none), then returns v's cell, created if absent.
  Cell cell_of(VertexId v);

  // Index entry of a row without a cell.
  static constexpr std::uint32_t kAbsent = UINT32_MAX;

  std::size_t dim_;
  const std::uint32_t* local_row_;
  std::vector<std::uint32_t> slot_;  // row → slot in shard_of(v), or kAbsent
  // floor(num_shards · 2^32 / rows); 0 for a zero-row index.
  std::uint64_t row_scale_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace ripple
