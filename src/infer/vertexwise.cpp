#include "infer/vertexwise.h"

#include "common/scheduler.h"
#include "common/timer.h"
#include "infer/affected.h"
#include "infer/layerwise.h"
#include "infer/recompute.h"
#include "tensor/ops.h"

namespace ripple {

namespace {
std::uint64_t memo_key(std::size_t l, VertexId v) {
  return (static_cast<std::uint64_t>(l) << 32) | v;
}
}  // namespace

VertexWiseEngine::VertexWiseEngine(const GnnModel& model,
                                   DynamicGraph snapshot,
                                   const Matrix& features, std::size_t fanout,
                                   std::uint64_t sampler_seed,
                                   ThreadPool* pool)
    : model_(model), graph_(std::move(snapshot)),
      store_(model.config(), graph_.num_vertices()), fanout_(fanout),
      sampler_(sampler_seed) {
  RIPPLE_CHECK(features.rows() == graph_.num_vertices());
  store_.features() = features;
  // Bootstrap is still layer-wise (the paper bootstraps all engines the same
  // way); vertex-wise cost shows up when serving updates.
  WorkStealingScheduler scheduler(pool);
  layerwise_full_inference(model_, graph_, store_, &scheduler);
}

const std::vector<float>& VertexWiseEngine::compute_embedding(std::size_t l,
                                                              VertexId v,
                                                              Memo& memo) {
  const auto key = memo_key(l, v);
  if (auto it = memo.find(key); it != memo.end()) return it->second;
  if (l == 0) {
    const auto row = store_.features().row(v);
    return memo.emplace(key, std::vector<float>(row.begin(), row.end()))
        .first->second;
  }
  const std::size_t layer_idx = l - 1;

  std::vector<Neighbor> nbrs;
  if (fanout_ == 0) {
    const auto all = graph_.in_neighbors(v);
    nbrs.assign(all.begin(), all.end());
  } else {
    nbrs = sampler_.sample_in(graph_, v, fanout_);
  }

  // Recurse first (so the memo fills depth-first), then aggregate.
  for (const Neighbor& nb : nbrs) compute_embedding(l - 1, nb.vertex, memo);
  const auto& h_self = compute_embedding(l - 1, v, memo);

  std::vector<float> x_agg(model_.config().layer_in_dim(layer_idx));
  std::vector<float> out(model_.config().layer_out_dim(layer_idx));
  recompute_vertex(
      model_, layer_idx, nbrs,
      [&](VertexId u) { return memo.at(memo_key(l - 1, u)).data(); }, h_self,
      x_agg, out);
  return memo.emplace(key, std::move(out)).first->second;
}

BatchResult VertexWiseEngine::apply_batch(UpdateBatch batch) {
  BatchResult result;
  result.batch_size = batch.size();

  StopWatch update_watch;
  apply_updates_to_graph(graph_, store_.features(), batch);
  result.update_sec = update_watch.elapsed_sec();

  StopWatch propagate_watch;
  const bool uses_self = model_.layer(0).uses_self();
  auto affected = compute_affected_sets(graph_, batch,
                                        model_.num_layers(), uses_self);
  const std::size_t num_layers = model_.num_layers();
  // Each final-hop target gets its own computation tree — the vertex-wise
  // redundancy. Intermediate store layers are refreshed from the trees so
  // later batches start from exact state (hop < L rows recomputed when they
  // appear in some tree at the matching depth).
  for (VertexId target : affected.back()) {
    Memo memo;
    const auto& logits = compute_embedding(num_layers, target, memo);
    vec_copy(logits, store_.logits().row(target));
  }
  // Keep intermediate layers exact via the (cheaper) layer-wise rule, since
  // vertex-wise serving only refreshes final-layer predictions.
  std::vector<float> x_scratch;
  for (std::size_t l = 0; l + 1 < num_layers; ++l) {
    const Matrix& h_prev = store_.layer(l);
    Matrix& h_out = store_.layer(l + 1);
    x_scratch.assign(model_.config().layer_in_dim(l), 0.0f);
    for (VertexId v : affected[l]) {
      recompute_vertex(model_, l, graph_.in_neighbors(v), rows_of(h_prev),
                       h_prev.row(v), x_scratch, h_out.row(v));
    }
  }
  result.propagate_sec = propagate_watch.elapsed_sec();
  result.propagation_tree_size = propagation_tree_size(affected);
  result.affected_final = affected.back().size();
  result.final_rows = std::move(affected.back());
  return result;
}

std::vector<float> VertexWiseEngine::infer_vertex(VertexId v,
                                                  std::size_t* tree_size) {
  Memo memo;
  const auto logits = compute_embedding(model_.num_layers(), v, memo);
  if (tree_size != nullptr) *tree_size = memo.size();
  return logits;
}

std::size_t VertexWiseEngine::memory_bytes() const {
  return store_.bytes() + graph_.bytes();
}

}  // namespace ripple
