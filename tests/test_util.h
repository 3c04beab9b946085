// Shared helpers for Ripple's test suites: tiny deterministic graphs,
// models, and the ground-truth comparison used by exactness tests.
#pragma once

#include <vector>

#include "common/rng.h"
#include "gnn/model.h"
#include "graph/dynamic_graph.h"
#include "graph/generators.h"
#include "infer/layerwise.h"
#include "stream/generator.h"
#include "tensor/ops.h"

namespace ripple::testing {

// The 6-vertex graph of the paper's Fig. 3/4/5 walkthroughs:
// A..F = 0..5, edges both ways between drawn neighbors are NOT implied; we
// use the directed edges needed by the Fig. 4 narrative:
//   B->A, C->A, D->A (A aggregates B, C, D), A->B, A->D, C->D, D->E(out),
//   F->C. Vertex ids: A=0 B=1 C=2 D=3 E=4 F=5.
inline DynamicGraph fig4_graph() {
  DynamicGraph g(6);
  g.add_edge(1, 0);  // B->A
  g.add_edge(3, 0);  // D->A
  g.add_edge(0, 1);  // A->B
  g.add_edge(0, 3);  // A->D
  g.add_edge(2, 3);  // C->D
  g.add_edge(3, 4);  // D->E
  g.add_edge(5, 2);  // F->C
  return g;
}

inline Matrix random_features(std::size_t n, std::size_t dim,
                              std::uint64_t seed) {
  Rng rng(seed);
  Matrix f(n, dim);
  for (std::size_t r = 0; r < n; ++r) {
    for (auto& v : f.row(r)) v = rng.next_float(-1.0f, 1.0f);
  }
  return f;
}

// Random small graph with weights on edges (exercises weighted_sum).
inline DynamicGraph random_graph(std::size_t n, std::size_t m,
                                 std::uint64_t seed, bool weighted = false) {
  Rng rng(seed);
  DynamicGraph g(n);
  while (g.num_edges() < m) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    if (u == v) continue;
    const float w = weighted ? rng.next_float(0.1f, 2.0f) : 1.0f;
    g.add_edge(u, v, w);
  }
  return g;
}

// The dist suites' shared workload: a 96-vertex skewed R-MAT snapshot,
// 8-wide features, and a 110-update mixed stream, all derived from `seed`.
struct RmatCase {
  DynamicGraph snapshot;
  Matrix features;
  std::vector<GraphUpdate> stream;
};

inline RmatCase make_rmat_case(std::uint64_t seed) {
  Rng rng(seed);
  RmatCase c;
  c.snapshot = rmat(96, 640, 0.55, 0.2, 0.2, 0.05, rng);
  c.features = random_features(c.snapshot.num_vertices(), 8, seed + 1);
  StreamConfig stream_config;
  stream_config.num_updates = 110;
  stream_config.feat_dim = 8;
  stream_config.seed = seed + 2;
  c.stream = generate_stream(c.snapshot, stream_config);
  return c;
}

// Ground truth: layer-wise full inference over the current graph state.
inline EmbeddingStore full_inference_truth(const GnnModel& model,
                                           const DynamicGraph& graph,
                                           const Matrix& features) {
  EmbeddingStore store(model.config(), graph.num_vertices());
  store.features() = features;
  layerwise_full_inference(model, graph, store);
  return store;
}

// Max |Δ| across every layer of two embedding stores.
inline float max_store_diff(const EmbeddingStore& a, const EmbeddingStore& b) {
  float worst = 0;
  for (std::size_t l = 0; l <= a.num_layers(); ++l) {
    worst = std::max(worst, max_abs_diff(a.layer(l), b.layer(l)));
  }
  return worst;
}

}  // namespace ripple::testing
