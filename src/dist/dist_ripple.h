// Distributed incremental engine (§5): the paper's Ripple runtime promoted
// to partition-owned execution over per-rank rows.
//
// Each hosted partition stores ONLY its owned vertices' state — embedding
// rows per layer, aggregate-cache rows, and one sharded Mailbox per hop —
// addressed through a stable global→local row map (partition/LocalRowMap),
// plus a halo cache (dist/halo_cache.h) of remote boundary rows. Topology
// stays replicated, so routing and fill decisions are computed identically
// on both sides of the wire without request round-trips. A batch runs as a
// sequence of BSP supersteps:
//
//   superstep U — two passes over the batch, one code path for sim and tcp:
//     pass 1 (record + send): the walk applies each update to the topology
//       replica in batch order and records a UOp per effective change —
//       walk-position decisions (halo fill on the FIRST cut edge from a
//       source into a partition, eager halo erase when the LAST one
//       disappears, feature sink lists) plus the H^0 snapshots a later
//       replay cannot re-read (feature commits advance owned H^0 rows
//       during the walk). Endpoints hosting a source partition transmit:
//       halo fills ship the owner's H^0..H^{L-1} rows concatenated, feature
//       updates ship (x_new, x_old) to each remote partition owning a sink.
//     pass 2 (replay + seed): after the barrier, each hosted partition
//       replays the recorded ops in batch order, consuming its inbox
//       through per-source-partition FIFO cursors (the sim inbox is
//       walk-interleaved across sources, a tcp inbox is grouped by source
//       rank; the per-source subsequences are identical, so cursor order —
//       never positional order — is what both backends share). Fills and
//       feature rows are written through into the halo cache, and every
//       hop-l mailbox cell accumulates its seeds in exactly the
//       single-machine batch order.
//   hop l — apply: every hosted partition drains its own hop-l mailbox with
//       the shared hop kernel (core/hop_kernel.h) through the local row
//       map, producing Δh per owned affected vertex. The drain is one
//       stealable task per (partition, mailbox shard), LPT-seeded by
//       pending-slot count (dist/bsp.h);
//       exchange: each changed vertex's COMMITTED new H^l row is sent ONCE
//       to every remote partition owning at least one of its out-neighbors
//       (the §5.1 stub-combining rule). Shipping the new row — same width
//       as the delta — is what keeps halos coherent: the receiver derives
//       Δh = row − cached row (bit-equal to the sender's subtraction at f32
//       wire precision) and then overwrites the cache with the received
//       bits;
//       seed: each hosted partition merges local deltas and derived inbox
//       deltas in ascending global sender id order and re-expands them over
//       its locally-owned out-edges into its hop-(l+1) mailbox.
//   Every hop runs its exchange superstep even when no cell is pending —
//   a rank cannot know whether REMOTE mailboxes drained rows for it, so the
//   superstep count must be structurally fixed for the barriers to align.
//
// Because every mailbox cell receives its contributions in the same global
// ascending-sender order as the single-machine engine, and the hop kernel's
// blocked Update is row-independent, embeddings are bit-identical to
// RippleEngine for ANY partition count and ANY thread count.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/hop_kernel.h"
#include "core/mailbox.h"
#include "dist/dist_engine.h"
#include "dist/halo_cache.h"

namespace ripple {

class DistRippleEngine : public DistEngineBase {
 public:
  DistRippleEngine(const GnnModel& model, DynamicGraph snapshot,
                   const Matrix& features, Partition partition,
                   ThreadPool* pool, std::unique_ptr<Transport> transport);

  const char* name() const override { return "dist-Ripple"; }
  DistBatchResult apply_batch(UpdateBatch batch) override;
  std::size_t memory_bytes() const override;

  // Boundary/halo structure over the CURRENT topology (diagnostics; the
  // live protocol recomputes destinations from the evolving edges, so this
  // is derived on demand rather than stored).
  HaloIndex halo() const { return build_halo_index(graph_, partition_); }

  // Test hooks into a hosted partition's halo cache: the invalidation suite
  // asserts the fill / write-through-refresh / eager-erase protocol.
  bool halo_contains(std::size_t part, VertexId v) const {
    return states_[part].halo.contains(v);
  }
  std::span<const float> halo_row(std::size_t part, VertexId v,
                                  std::size_t layer) const {
    return states_[part].halo.row(v, layer);
  }

 private:
  // Everything one hosted partition owns. Rows are local-row indexed
  // (LocalRowMap); non-hosted slots stay default-constructed and empty.
  struct RankState {
    EmbeddingStore store;           // owned H^0..H^L rows
    std::vector<Matrix> agg_cache;  // owned raw-sum aggregate rows, per hop
    std::vector<Mailbox> boxes;     // hop-l mailbox at index l-1
    HaloCache halo;                 // remote boundary rows, layers 0..L-1
  };

  // One effective update recorded by pass 1 of superstep U for the pass-2
  // replay. Flags and sink lists are WALK-POSITION decisions (the replay
  // runs against post-batch topology and must not rescan it); x_src / x_old
  // snapshot owned H^0 rows that feature commits may overwrite before the
  // replay reaches this op.
  struct UOp {
    UpdateKind kind = UpdateKind::edge_add;
    VertexId u = kInvalidVertex;
    VertexId v = kInvalidVertex;  // edge sink
    float alpha = 1.0f;           // α(u,v) of the edge (old weight on del)
    bool is_add = false;
    bool fill_expected = false;  // edge add created u's first cut edge to pv
    bool erase_after = false;    // edge del removed u's last cut edge to pv
    bool self_mark = false;      // feature: layer 0 has a self term
    std::vector<float> x_src;    // hosted pu==pv edge: u's H^0 at walk pos
    std::vector<float> x_old;    // hosted feature: old H^0 row
    const std::vector<float>* x_new = nullptr;  // feature row (batch-owned)
    // Feature sinks (out-neighbors at walk position) with their α, in walk
    // order — the per-cell seeding order every backend reproduces.
    std::vector<std::pair<VertexId, float>> sinks;
  };

  Mailbox& mailbox(std::size_t part, std::size_t l) {
    return states_[part].boxes[l - 1];
  }
  float edge_alpha(EdgeWeight weight) const;

  // Invokes fn(q) once per remote partition q that owns at least one
  // out-neighbor of u, in ascending partition order. Routing decisions all
  // flow through here so the destination rule cannot diverge between the
  // feature path and the exchange phase. Serial phases only: reuses one
  // shared mask buffer.
  template <typename Fn>
  void for_each_remote_owner(VertexId u, std::uint32_t pu, const Fn& fn) {
    std::fill(remote_mask_.begin(), remote_mask_.end(), 0);
    for (const Neighbor& nb : graph_.out_neighbors(u)) {
      const std::uint32_t pv = owner(nb.vertex);
      if (pv != pu) remote_mask_[pv] = 1;
    }
    for (std::size_t q = 0; q < remote_mask_.size(); ++q) {
      if (remote_mask_[q]) fn(q);
    }
  }

  void record_edge_op(VertexId u, VertexId v, EdgeWeight weight, bool is_add);
  void record_feature_op(const GraphUpdate& update);
  void replay_uops();  // pass 2: seed hosted mailboxes, maintain halos

  // Owned-row layout: H^0..H^L, then the L aggregate-cache matrices.
  std::vector<Matrix*> owned_layout(std::size_t part) override;
  // Migration: fills for newly-cut in-edges from the OLD owner's committed
  // rows and eager erases for edges the move un-cuts. Restore: refills
  // every cached row from its restored owner.
  HaloPatch halo_patch(const MigrationPlan* plan) override;
  // Writes an H^0..H^{L-1} row into part's halo entry for u (inserted if
  // absent) — every halo fill, refill and migration patch lands here.
  void fill_halo(std::size_t part, VertexId u, std::span<const float> row);

  std::vector<RankState> states_;  // per partition; hosted only

  // Per-partition hop state, reused across batches.
  std::vector<HopShardScratch> scratch_;        // one per (part, shard)
  std::vector<std::vector<VertexId>> senders_;  // owned affected, ascending
  std::vector<Matrix> delta_;                   // local Δh rows, rank-major
  std::vector<Matrix> inbox_delta_;  // Δ derived from received rows, per part
  // Expansion merge list: (sender id, Δh row) from local + inbox sources.
  struct MergeEntry {
    VertexId sender;
    const float* delta;
  };
  std::vector<std::vector<MergeEntry>> merge_;  // one per partition
  std::vector<std::uint8_t> remote_mask_;       // for_each_remote_owner
  std::vector<UOp> uops_;                       // superstep U record
  std::vector<float> wire_frame_;               // send-side concat scratch
};

}  // namespace ripple
