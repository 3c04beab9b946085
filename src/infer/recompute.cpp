#include "infer/recompute.h"

#include "common/scheduler.h"
#include "common/timer.h"
#include "infer/affected.h"
#include "infer/layerwise.h"
#include "stream/update_apply.h"
#include "tensor/ops.h"

namespace ripple {

void apply_updates_to_graph(DynamicGraph& graph, Matrix& features,
                            UpdateBatch batch) {
  apply_updates_seeding(
      graph, batch, features.cols(),
      [](VertexId, VertexId, EdgeWeight, bool) {},
      [&features](const GraphUpdate& update) {
        vec_copy(update.new_features, features.row(update.u));
      });
}

RecomputeEngine::RecomputeEngine(const GnnModel& model, DynamicGraph snapshot,
                                 const Matrix& features, ThreadPool* pool)
    : model_(model), graph_(std::move(snapshot)),
      store_(model.config(), graph_.num_vertices()) {
  RIPPLE_CHECK(features.rows() == graph_.num_vertices());
  store_.features() = features;
  WorkStealingScheduler scheduler(pool);
  layerwise_full_inference(model_, graph_, store_, &scheduler);
}

BatchResult RecomputeEngine::apply_batch(UpdateBatch batch) {
  BatchResult result;
  result.batch_size = batch.size();

  StopWatch update_watch;
  apply_updates_to_graph(graph_, store_.features(), batch);
  result.update_sec = update_watch.elapsed_sec();

  StopWatch propagate_watch;
  const bool uses_self = model_.layer(0).uses_self();
  auto affected = compute_affected_sets(graph_, batch,
                                        model_.num_layers(), uses_self);
  for (std::size_t l = 0; l < model_.num_layers(); ++l) {
    const Matrix& h_prev = store_.layer(l);
    Matrix& h_out = store_.layer(l + 1);
    x_scratch_.assign(model_.config().layer_in_dim(l), 0.0f);
    for (VertexId v : affected[l]) {
      // Full-neighborhood pull: k aggregation ops even if one input changed.
      recompute_vertex(model_, l, graph_.in_neighbors(v), rows_of(h_prev),
                       h_prev.row(v), x_scratch_, h_out.row(v));
    }
  }
  result.propagate_sec = propagate_watch.elapsed_sec();
  result.propagation_tree_size = propagation_tree_size(affected);
  result.affected_final = affected.back().size();
  result.final_rows = std::move(affected.back());
  return result;
}

std::size_t RecomputeEngine::memory_bytes() const {
  return store_.bytes() + graph_.bytes();
}

}  // namespace ripple
