#include "core/hop_kernel.h"

namespace ripple {

void bootstrap_with_caches(const GnnModel& model, const DynamicGraph& graph,
                           EmbeddingStore& store,
                           std::vector<Matrix>& agg_cache,
                           WorkStealingScheduler* scheduler) {
  const AggregatorKind cache_kind =
      model.config().aggregator == AggregatorKind::weighted_sum
          ? AggregatorKind::weighted_sum
          : AggregatorKind::sum;
  const bool is_mean = model.config().aggregator == AggregatorKind::mean;
  agg_cache.resize(model.num_layers());
  Matrix x_actual;
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    aggregate_all(cache_kind, graph, store.layer(l), agg_cache[l]);
    const Matrix* x = &agg_cache[l];
    if (is_mean) {
      x_actual = agg_cache[l];
      for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        mean_normalize(x_actual.row(v), graph.in_degree(v));
      }
      x = &x_actual;
    }
    model.layer(l).update_matrix(store.layer(l), *x, store.layer(l + 1),
                                 scheduler);
    model.apply_activation_matrix(l, store.layer(l + 1));
  }
}

}  // namespace ripple
