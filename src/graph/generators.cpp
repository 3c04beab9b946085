#include "graph/generators.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace ripple {

namespace {

// Bulk edge-set builder shared by the generators. It dedups through
// out-lists in arrival order, exactly as a sequential add_edge loop would
// (same accepted edges, same out-list order), then hands the out-lists to
// DynamicGraph::from_out_lists, which fills the id-sorted in-lists in one
// ascending-source pass instead of shifting into a hub's in-list per edge.
class OutListBuilder {
 public:
  explicit OutListBuilder(std::size_t num_vertices) : out_(num_vertices) {}

  std::size_t num_edges() const { return num_edges_; }

  // Same contract as DynamicGraph::add_edge: false for a duplicate.
  bool add_edge(VertexId u, VertexId v, EdgeWeight weight = 1.0f) {
    std::vector<Neighbor>& list = out_[u];
    for (const Neighbor& nb : list) {
      if (nb.vertex == v) return false;
    }
    list.push_back({v, weight});
    ++num_edges_;
    return true;
  }

  DynamicGraph build() && {
    return DynamicGraph::from_out_lists(std::move(out_));
  }

 private:
  std::vector<std::vector<Neighbor>> out_;
  std::size_t num_edges_ = 0;
};

}  // namespace

DynamicGraph erdos_renyi(std::size_t num_vertices, std::size_t num_edges,
                         Rng& rng) {
  RIPPLE_CHECK(num_vertices >= 2);
  RIPPLE_CHECK_MSG(
      num_edges <= num_vertices * (num_vertices - 1),
      "too many edges requested for a simple directed graph");
  OutListBuilder graph(num_vertices);
  while (graph.num_edges() < num_edges) {
    const auto u = static_cast<VertexId>(rng.next_below(num_vertices));
    const auto v = static_cast<VertexId>(rng.next_below(num_vertices));
    if (u == v) continue;
    graph.add_edge(u, v);
  }
  return std::move(graph).build();
}

DynamicGraph barabasi_albert(std::size_t num_vertices,
                             std::size_t edges_per_vertex, Rng& rng) {
  RIPPLE_CHECK(num_vertices > edges_per_vertex);
  RIPPLE_CHECK(edges_per_vertex >= 1);
  OutListBuilder graph(num_vertices);
  // Repeated-vertex list trick: picking a uniform entry from `targets`
  // realizes the (in_degree + 1)-proportional attachment distribution.
  std::vector<VertexId> targets;
  targets.reserve(num_vertices * (edges_per_vertex + 1));
  // Seed clique among the first edges_per_vertex + 1 vertices.
  const std::size_t seed = edges_per_vertex + 1;
  for (VertexId u = 0; u < seed; ++u) {
    targets.push_back(u);
    for (VertexId v = 0; v < seed; ++v) {
      if (u != v) graph.add_edge(u, v);
    }
  }
  for (VertexId u = static_cast<VertexId>(seed); u < num_vertices; ++u) {
    std::size_t added = 0;
    std::size_t attempts = 0;
    while (added < edges_per_vertex && attempts < edges_per_vertex * 64) {
      ++attempts;
      const VertexId v = targets[rng.next_below(targets.size())];
      if (v == u) continue;
      if (graph.add_edge(u, v)) {
        targets.push_back(v);
        ++added;
      }
    }
    targets.push_back(u);
  }
  return std::move(graph).build();
}

DynamicGraph rmat(std::size_t num_vertices, std::size_t num_edges, double a,
                  double b, double c, double d, Rng& rng) {
  RIPPLE_CHECK(num_vertices >= 2);
  RIPPLE_CHECK_MSG(std::abs(a + b + c + d - 1.0) < 1e-6,
                   "rmat probabilities must sum to 1");
  std::size_t scale = 0;
  while ((std::size_t{1} << scale) < num_vertices) ++scale;
  OutListBuilder graph(num_vertices);
  std::size_t failures = 0;
  const std::size_t max_failures = num_edges * 64 + 1024;
  while (graph.num_edges() < num_edges && failures < max_failures) {
    std::size_t u = 0;
    std::size_t v = 0;
    for (std::size_t bit = 0; bit < scale; ++bit) {
      const double r = rng.next_double();
      u <<= 1;
      v <<= 1;
      if (r < a) {
        // top-left quadrant: no bits set
      } else if (r < a + b) {
        v |= 1;
      } else if (r < a + b + c) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    if (u >= num_vertices || v >= num_vertices || u == v ||
        !graph.add_edge(static_cast<VertexId>(u),
                        static_cast<VertexId>(v))) {
      ++failures;
    }
  }
  return std::move(graph).build();
}

DynamicGraph stochastic_block_model(std::size_t num_vertices,
                                    std::size_t num_blocks, double p_in,
                                    double p_out, Rng& rng,
                                    std::vector<std::uint32_t>* labels) {
  RIPPLE_CHECK(num_blocks >= 1 && num_vertices >= num_blocks);
  RIPPLE_CHECK(p_in >= 0 && p_in <= 1 && p_out >= 0 && p_out <= 1);
  OutListBuilder graph(num_vertices);
  std::vector<std::uint32_t> block_of(num_vertices);
  for (std::size_t v = 0; v < num_vertices; ++v) {
    block_of[v] = static_cast<std::uint32_t>(v % num_blocks);
  }
  // Geometric skipping makes generation O(edges) rather than O(n^2):
  // within each (same-block / cross-block) regime, the gap to the next
  // present edge is geometric with parameter p.
  auto sample_pairs = [&](double p, bool same_block) {
    if (p <= 0) return;
    const double log1mp = std::log(1.0 - p);
    // Iterate ordered pairs (u, v), u != v, lazily via a running index.
    const std::size_t total = num_vertices * num_vertices;
    std::size_t idx = 0;
    while (true) {
      const double r = rng.next_double();
      const auto skip = static_cast<std::size_t>(
          std::floor(std::log(1.0 - r) / log1mp));
      idx += skip + 1;
      if (idx > total) break;
      const std::size_t flat = idx - 1;
      const auto u = static_cast<VertexId>(flat / num_vertices);
      const auto v = static_cast<VertexId>(flat % num_vertices);
      if (u == v) continue;
      const bool same = block_of[u] == block_of[v];
      if (same == same_block) graph.add_edge(u, v, 1.0f);
    }
  };
  sample_pairs(p_in, /*same_block=*/true);
  sample_pairs(p_out, /*same_block=*/false);
  if (labels != nullptr) *labels = std::move(block_of);
  return std::move(graph).build();
}

}  // namespace ripple
