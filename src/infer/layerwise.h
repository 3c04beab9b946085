// Layer-wise full-graph inference (DGI-style, §2.1): computes H^l for all
// vertices from H^{l-1}, one layer at a time. Used to bootstrap every
// engine's embedding store and as the ground truth in exactness tests.
#pragma once

#include "gnn/model.h"

namespace ripple {

class WorkStealingScheduler;

// store.features() must already hold H^0; fills H^1..H^L. With a scheduler
// each layer's Update GEMM runs as stealable row blocks (bit-identical to
// the serial path). GraphT: DynamicGraph or Csr.
template <typename GraphT>
void layerwise_full_inference(const GnnModel& model, const GraphT& graph,
                              EmbeddingStore& store,
                              WorkStealingScheduler* scheduler = nullptr) {
  Matrix x_agg;
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    aggregate_all(model.config().aggregator, graph, store.layer(l), x_agg);
    model.layer(l).update_matrix(store.layer(l), x_agg, store.layer(l + 1),
                                 scheduler);
    model.apply_activation_matrix(l, store.layer(l + 1));
  }
}

// One vertex's layer-l recompute step, the single body every recompute
// engine (RC, DRC, DNC, dist-RC) runs: x = Aggregate(in_nbrs) over the rows
// `row_of` resolves (aggregate_neighbors_resolved), then
// h_out = σ_l(Update_l(h_self, x)). `x` is scratch of layer l's input width.
template <typename RowOf>
void recompute_vertex(const GnnModel& model, std::size_t l,
                      std::span<const Neighbor> in_nbrs, const RowOf& row_of,
                      std::span<const float> h_self, std::span<float> x,
                      std::span<float> h_out) {
  aggregate_neighbors_resolved(model.config().aggregator, in_nbrs, row_of, x);
  model.layer(l).update_row(h_self, x, h_out);
  model.apply_activation_row(l, h_out);
}

}  // namespace ripple
