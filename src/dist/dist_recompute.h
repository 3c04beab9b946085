// Distributed full-recompute baseline (§5): RC promoted to partition-owned
// execution over per-rank rows.
//
// Each hosted partition stores ONLY its owned vertices' embedding rows,
// addressed through the stable global→local row map (partition/
// LocalRowMap); topology stays replicated. Per hop, every partition
// recomputes the embeddings of its OWNED affected vertices by pulling ALL
// of their in-neighbors' previous-layer rows — and every in-neighbor owned
// elsewhere arrives as a payload row over the wire (once per requesting
// partition per hop), resolved during aggregation through a per-hop pull
// index. Both sides derive the pull set from the replicated topology, so
// the owner pushes without a request round-trip. This is the communication
// profile the paper contrasts with Ripple's delta shipping: the pull set
// grows with the affected frontier and the full embedding width, not with
// the changed set.
//
// Exactness: each recomputed row is the same pure function of the same
// inputs as single-machine RecomputeEngine evaluates — the row-resolver
// aggregation (gnn/aggregator.h) replays the identical float op sequence
// over scattered storage — so embeddings are bit-identical to RC for any
// partition count and any thread count.
// --mode=async (docs/async.md) drops the per-layer pull supersteps: every
// rank derives the same per-hop affected sets and pull plan from replicated
// state, owners push each pulled row the moment it is final (immediately
// for rows this batch never rewrites, right after the owning cell's
// recompute otherwise), and a vertex recomputes the moment its last input —
// local upstream cell, remote pulled row, or its own previous-layer row —
// lands. Each recomputed row is the same pure function of the same input
// bits as the BSP schedule evaluates, so embeddings stay bit-identical;
// epoch quiescence is detected by a Safra token ring (dist/termination.h).
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dist/async_worklist.h"
#include "dist/dist_engine.h"

namespace ripple {

class DistRecomputeEngine : public DistEngineBase {
 public:
  DistRecomputeEngine(const GnnModel& model, DynamicGraph snapshot,
                      const Matrix& features, Partition partition,
                      ThreadPool* pool, std::unique_ptr<Transport> transport,
                      SchedulerMode scheduler = SchedulerMode::kSteal,
                      ExecMode mode = ExecMode::kBsp);

  const char* name() const override { return "dist-RC"; }
  DistBatchResult apply_batch(UpdateBatch batch) override;
  std::size_t memory_bytes() const override;

 private:
  // Owned-row layout: the committed H^0..H^L rows alone. RC keeps no halo
  // cache or aggregate rows — its per-hop pull plans re-derive themselves
  // from the replicated topology and assignment — so its halo hook is the
  // empty default.
  std::vector<Matrix*> owned_layout(std::size_t part) override;

  // ---- async epoch (--mode=async) ----
  // Everything one hosted partition tracks across one barrier-free epoch.
  struct AsyncPartState {
    PendingCells cells;  // level = hop l (0-based recompute layer)
    // Remote rows received for hop l's aggregations, keyed by sender.
    std::vector<std::unordered_map<VertexId, std::vector<float>>> pulls;
    // Deferred pull pushes: once cell (u, l) recomputes, ship u's new
    // layer-(l+1) row to these partitions (they pull it at hop l+1).
    std::vector<std::unordered_map<VertexId, std::vector<std::uint32_t>>>
        sends_after;
    double busy_sec = 0;  // modeled machine-busy seconds this epoch
  };

  void init_epoch_deps(const std::vector<std::vector<VertexId>>& affected);
  void run_async_epoch(const std::vector<std::vector<VertexId>>& affected,
                       DistBatchResult& result);
  bool rank_step(std::size_t q);  // returns true when any progress was made
  // Mutable frame: the row buffer is moved into the epoch's pull table.
  void process_remote_row(std::size_t q, Transport::AsyncFrame& frame);
  bool is_affected(std::size_t l, VertexId v) const {
    return (affected_mask_[v] >> l) & 1u;
  }
  void recompute_cell(std::size_t p, std::size_t l, VertexId v,
                      std::vector<float>& x_scratch);
  void finish_cells(std::size_t q, std::size_t l,
                    const std::vector<VertexId>& wave);

  // Per partition, the owned H^0..H^L rows (local-row indexed); non-hosted
  // slots stay default-constructed and empty.
  std::vector<EmbeddingStore> states_;

  // Per-partition scratch: the aggregation buffer.
  std::vector<std::vector<float>> x_scratch_;
  // Steal-path pull buffers, one per block task (tasks of one region must
  // not share); grown on demand, capacity reused across batches so the hot
  // loop stays allocation-free after warm-up.
  std::vector<std::vector<float>> block_scratch_;
  // Pull bookkeeping, rebuilt per hop: the (vertex, destination) pairs
  // already shipped this hop, and — per hosted partition — the received
  // remote rows keyed by sender for the aggregation resolver.
  std::unordered_set<std::uint64_t> pulled_;
  std::vector<std::unordered_map<VertexId, const float*>> pull_index_;

  // ---- async epoch state (per batch; idle in BSP mode) ----
  std::vector<AsyncPartState> async_;  // per partition; hosted only
  // Per-vertex affected-hop bitmask (bit l set ⇔ v ∈ affected[l]),
  // identical on every rank; a flat array because it is probed per edge on
  // the arrival/credit hot path.
  std::vector<std::uint32_t> affected_mask_;
  std::vector<Transport::AsyncFrame> frames_;  // poll_async scratch
};

}  // namespace ripple
