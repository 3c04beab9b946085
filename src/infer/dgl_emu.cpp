#include "infer/dgl_emu.h"

#include "common/scheduler.h"
#include "common/timer.h"
#include "infer/affected.h"
#include "infer/layerwise.h"
#include "infer/recompute.h"
#include "tensor/ops.h"

namespace ripple {

DglEmuEngine::DglEmuEngine(const GnnModel& model, DynamicGraph snapshot,
                           const Matrix& features, ThreadPool* pool)
    : model_(model), mirror_(std::move(snapshot)),
      csr_(Csr::from_graph(mirror_)),
      store_(model.config(), mirror_.num_vertices()) {
  RIPPLE_CHECK(features.rows() == mirror_.num_vertices());
  store_.features() = features;
  WorkStealingScheduler scheduler(pool);
  layerwise_full_inference(model_, csr_, store_, &scheduler);
}

BatchResult DglEmuEngine::apply_batch(UpdateBatch batch) {
  BatchResult result;
  result.batch_size = batch.size();

  // Update phase: mutate the mirror, then rebuild the immutable CSR — the
  // emulated DGL cost of applying streaming updates.
  StopWatch update_watch;
  apply_updates_to_graph(mirror_, store_.features(), batch);
  csr_ = Csr::from_graph(mirror_);
  result.update_sec = update_watch.elapsed_sec();

  StopWatch propagate_watch;
  const bool uses_self = model_.layer(0).uses_self();
  auto affected = compute_affected_sets(mirror_, batch,
                                        model_.num_layers(), uses_self);
  std::vector<float> x_scratch;
  for (std::size_t l = 0; l < model_.num_layers(); ++l) {
    const Matrix& h_prev = store_.layer(l);
    Matrix& h_out = store_.layer(l + 1);
    // Block materialization: copy the frontier's in-adjacency (DGL builds a
    // message-flow-graph per layer before computing on it).
    std::vector<std::vector<Neighbor>> block;
    block.reserve(affected[l].size());
    for (VertexId v : affected[l]) {
      const auto nbrs = csr_.in_neighbors(v);
      block.emplace_back(nbrs.begin(), nbrs.end());
    }
    x_scratch.assign(model_.config().layer_in_dim(l), 0.0f);
    for (std::size_t i = 0; i < affected[l].size(); ++i) {
      const VertexId v = affected[l][i];
      recompute_vertex(model_, l, block[i], rows_of(h_prev), h_prev.row(v),
                       x_scratch, h_out.row(v));
    }
  }
  result.propagate_sec = propagate_watch.elapsed_sec();
  result.propagation_tree_size = propagation_tree_size(affected);
  result.affected_final = affected.back().size();
  result.final_rows = std::move(affected.back());
  return result;
}

std::size_t DglEmuEngine::memory_bytes() const {
  return store_.bytes() + mirror_.bytes() + csr_.bytes();
}

}  // namespace ripple
