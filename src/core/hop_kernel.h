// The per-shard hop apply kernel shared by the single-machine RippleEngine
// and the distributed runtime (src/dist).
//
// Draining one mailbox shard of hop l means: fold the shard's accumulated
// Δagg into the layer's aggregate cache, gather the affected rows into a
// dense block, re-evaluate the layer Update function with ONE blocked GEMM,
// and commit the new rows to H^l. Callers that need the per-vertex Δh —
// the single-machine engine to seed the next hop's mailbox, the distributed
// engine to ship remote-boundary deltas over the wire — pass a sink that is
// invoked per vertex, in ascending vertex id order, with the new row and
// the not-yet-overwritten old row.
//
// Determinism: every row of the blocked Update is a pure function of that
// row's inputs (the GEMM computes rows independently with a fixed k-order),
// so the committed embeddings are bit-identical no matter how vertices are
// grouped into shards — the property both runtimes' exactness tests pin.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/scheduler.h"
#include "core/mailbox.h"
#include "gnn/model.h"
#include "graph/dynamic_graph.h"

namespace ripple {

// Per-shard gather/compute buffers. Each concurrent caller must own its
// scratch exclusively; reusing one across calls avoids reallocation.
struct HopShardScratch {
  std::vector<std::uint32_t> slots;  // shard slots in ascending vertex id
  Matrix x;       // gathered aggregate rows (mean-normalized)
  Matrix h_self;  // gathered h^{l-1} rows (self-term layers only)
  Matrix out;     // blocked Update output
};

// Δh = new − old into `delta`. The one home of the subtraction: the apply
// phase's RankDeltaSink and dist-Ripple's received-row derivation
// (DistRippleEngine::apply_batch) both call it, so a receiver's Δh is
// bit-equal to the one its sender computed.
inline void write_delta(std::span<const float> new_row,
                        std::span<const float> old_row,
                        std::span<float> delta) {
  for (std::size_t j = 0; j < delta.size(); ++j) {
    delta[j] = new_row[j] - old_row[j];
  }
}

// The standard hop sink: writes Δh at each vertex's rank in a sorted sender
// order (the canonical global order on a single machine, the per-partition
// order in dist-Ripple). The rank cursor is monotone: apply_hop_shard hands
// over vertices in ascending id order, so the search range shrinks instead
// of re-bisecting the whole order per vertex. One sink serves one shard
// drain.
class RankDeltaSink {
 public:
  RankDeltaSink(const std::vector<VertexId>& order, Matrix& delta_block)
      : order_(order), it_(order.begin()), delta_block_(delta_block) {}

  void operator()(VertexId v, std::span<const float> new_row,
                  std::span<const float> old_row) const {
    it_ = std::lower_bound(it_, order_.end(), v);
    const auto rank = static_cast<std::size_t>(it_ - order_.begin());
    write_delta(new_row, old_row, delta_block_.row(rank));
  }

 private:
  const std::vector<VertexId>& order_;
  mutable std::vector<VertexId>::const_iterator it_;
  Matrix& delta_block_;
};

// Drains `shard` of hop l (1-based) into h_out. `agg_cache` is the layer's
// raw-sum aggregate cache, `h_prev`/`h_out` the H^{l-1}/H^l tables. `sink`
// is invoked per drained vertex (ascending id) as
// sink(v, new_row, old_row) before the commit; it may be null when deltas
// are not needed (the last hop). Templated over the sink functor so the
// per-vertex call inlines on the hot path. Returns the number of
// cache-fold ops (the 2·k' incremental-op model of §4.3.3 counts them).
//
// `scheduler` (optional): when the caller runs as a work-stealing task, the
// blocked Update GEMM of a hot shard is split into stealable row blocks so
// idle participants help drain it (nested region, see common/scheduler.h).
// Null keeps the GEMM serial — the right call for a task whose seconds are
// billed to one owner (DistEngineBase::compute in the dist engines), where a
// nested region could run other owners' tasks inside its stopwatch.
//
// `local_row` (optional): global→local row remap for partition-owned state.
// When non-null, agg_cache / h_prev / h_out are indexed with local_row[v]
// instead of v (the distributed runtime stores only a rank's owned rows);
// graph degree lookups and the sink keep global vertex ids. Null means the
// tables are global-row-indexed (single-machine engines).
template <typename Sink>
std::uint64_t apply_hop_shard(const GnnModel& model, std::size_t l,
                              const DynamicGraph& graph,
                              const Mailbox::Shard& shard, std::size_t dim,
                              Matrix& agg_cache, const Matrix& h_prev,
                              Matrix& h_out, HopShardScratch& scratch,
                              const Sink* sink,
                              WorkStealingScheduler* scheduler = nullptr,
                              const std::uint32_t* local_row = nullptr) {
  if (shard.size() == 0) return 0;
  const GnnLayer& layer = model.layer(l - 1);
  const std::size_t in_dim = model.config().layer_in_dim(l - 1);
  const bool is_mean = model.config().aggregator == AggregatorKind::mean;
  const bool gather_self = layer.uses_self();

  std::uint64_t ops = 0;
  scratch.slots = shard.sorted_slots();
  const std::size_t rows = scratch.slots.size();

  // Fold Δagg into the cache and gather the shard's Update inputs into a
  // dense block (slot order: ascending vertex id → reproducible floats).
  // no_fill: every row is fully overwritten by the gather below.
  scratch.x.resize_no_fill(rows, in_dim);
  if (gather_self) scratch.h_self.resize_no_fill(rows, in_dim);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint32_t slot = scratch.slots[i];
    const VertexId v = shard.vertices[slot];
    const std::size_t r = local_row != nullptr ? local_row[v] : v;
    auto cache_row = agg_cache.row(r);
    if (shard.touched[slot]) {
      vec_add(cache_row,
              std::span<const float>(shard.deltas.data() + slot * dim, dim));
      ++ops;
    }
    auto x_row = scratch.x.row(i);
    vec_copy(cache_row, x_row);
    if (is_mean) mean_normalize(x_row, graph.in_degree(v));
    if (gather_self) vec_copy(h_prev.row(r), scratch.h_self.row(i));
  }

  // One blocked GEMM for the whole shard; on the stealing runtime its row
  // blocks are themselves stealable (nested region).
  layer.update_matrix(scratch.h_self, scratch.x, scratch.out, scheduler);
  model.apply_activation_matrix(l - 1, scratch.out);

  // Hand each vertex's (new, old) rows to the sink, then commit into H^l.
  for (std::size_t i = 0; i < rows; ++i) {
    const VertexId v = shard.vertices[scratch.slots[i]];
    auto h_row = h_out.row(local_row != nullptr ? local_row[v] : v);
    const auto new_row = scratch.out.row(i);
    if (sink != nullptr) (*sink)(v, new_row, h_row);
    vec_copy(new_row, h_row);
  }
  return ops;
}

// Layer-wise full inference that also fills the per-layer raw-sum aggregate
// caches incremental engines maintain (mean's 1/deg normalization stays at
// apply time so degree changes never invalidate a cache). store.features()
// must already hold H^0. agg_cache is resized to one matrix per layer. The
// Update GEMMs run on `scheduler` (the engine's stealer).
void bootstrap_with_caches(const GnnModel& model, const DynamicGraph& graph,
                           EmbeddingStore& store,
                           std::vector<Matrix>& agg_cache,
                           WorkStealingScheduler* scheduler);

}  // namespace ripple
