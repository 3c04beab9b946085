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
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dist/dist_engine.h"

namespace ripple {

class DistRecomputeEngine : public DistEngineBase {
 public:
  DistRecomputeEngine(const GnnModel& model, DynamicGraph snapshot,
                      const Matrix& features, Partition partition,
                      ThreadPool* pool, std::unique_ptr<Transport> transport);

  const char* name() const override { return "dist-RC"; }
  DistBatchResult apply_batch(UpdateBatch batch) override;
  std::size_t memory_bytes() const override;

 private:
  // Owned-row layout: the committed H^0..H^L rows alone. RC keeps no halo
  // cache or aggregate rows — its per-hop pull plans re-derive themselves
  // from the replicated topology and assignment — so its halo hook is the
  // empty default.
  std::vector<Matrix*> owned_layout(std::size_t part) override;

  // Per partition, the owned H^0..H^L rows (local-row indexed); non-hosted
  // slots stay default-constructed and empty.
  std::vector<EmbeddingStore> states_;

  // Aggregation buffers, one per block task (tasks of one region must not
  // share); grown on demand, capacity reused across batches so the hot
  // loop stays allocation-free after warm-up.
  std::vector<std::vector<float>> block_scratch_;
  // Pull bookkeeping, rebuilt per hop: the (vertex, destination) pairs
  // already shipped this hop, and — per hosted partition — the received
  // remote rows keyed by sender for the aggregation resolver.
  std::unordered_set<std::uint64_t> pulled_;
  std::vector<std::unordered_map<VertexId, const float*>> pull_index_;
};

}  // namespace ripple
