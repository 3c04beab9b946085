#include "graph/dynamic_graph.h"

#include <algorithm>

#include "common/check.h"

namespace ripple {

void DynamicGraph::check_vertex(VertexId v) const {
  RIPPLE_CHECK_MSG(v < out_.size(),
                   "vertex " << v << " out of range (n=" << out_.size() << ')');
}

namespace {

std::vector<Neighbor>::iterator find_neighbor(std::vector<Neighbor>& list,
                                              VertexId target) {
  return std::find_if(list.begin(), list.end(), [target](const Neighbor& nb) {
    return nb.vertex == target;
  });
}

// First entry of an id-sorted in-list whose source is not below `source`.
template <typename List>
auto lower_bound_source(List& list, VertexId source) {
  return std::lower_bound(
      list.begin(), list.end(), source,
      [](const Neighbor& nb, VertexId id) { return nb.vertex < id; });
}

// The entry for `source` in an id-sorted in-list, or end().
template <typename List>
auto find_source(List& list, VertexId source) {
  const auto it = lower_bound_source(list, source);
  return it != list.end() && it->vertex == source ? it : list.end();
}

}  // namespace

DynamicGraph DynamicGraph::from_out_lists(
    std::vector<std::vector<Neighbor>> out) {
  DynamicGraph graph;
  const std::size_t n = out.size();
  std::vector<std::size_t> in_degree(n, 0);
  for (const auto& list : out) {
    for (const Neighbor& nb : list) {
      RIPPLE_CHECK_MSG(nb.vertex < n, "vertex " << nb.vertex
                                                << " out of range (n=" << n
                                                << ')');
      ++in_degree[nb.vertex];
    }
  }
  graph.in_.resize(n);
  for (VertexId v = 0; v < n; ++v) graph.in_[v].reserve(in_degree[v]);
  for (VertexId u = 0; u < n; ++u) {
    for (const Neighbor& nb : out[u]) {
      std::vector<Neighbor>& in = graph.in_[nb.vertex];
      // Sources arrive in ascending order, so a repeat is a parallel edge.
      RIPPLE_CHECK_MSG(in.empty() || in.back().vertex != u,
                       "parallel edge (" << u << ',' << nb.vertex << ')');
      in.push_back({u, nb.weight});
    }
    graph.num_edges_ += out[u].size();
  }
  graph.out_ = std::move(out);
  return graph;
}

bool DynamicGraph::add_edge(VertexId u, VertexId v, EdgeWeight weight) {
  check_vertex(u);
  check_vertex(v);
  const auto in_it = lower_bound_source(in_[v], u);
  if (in_it != in_[v].end() && in_it->vertex == u) return false;
  in_[v].insert(in_it, {u, weight});
  out_[u].push_back({v, weight});
  ++num_edges_;
  return true;
}

bool DynamicGraph::remove_edge(VertexId u, VertexId v) {
  check_vertex(u);
  check_vertex(v);
  const auto in_it = find_source(in_[v], u);
  if (in_it == in_[v].end()) return false;
  in_[v].erase(in_it);
  auto out_it = find_neighbor(out_[u], v);
  RIPPLE_CHECK_MSG(out_it != out_[u].end(),
                   "in/out adjacency out of sync for edge (" << u << ',' << v
                                                             << ')');
  // Out-lists keep their swap-erase order: it is observable (generators
  // and streams sample out-neighbors by position).
  *out_it = out_[u].back();
  out_[u].pop_back();
  --num_edges_;
  return true;
}

bool DynamicGraph::has_edge(VertexId u, VertexId v) const {
  check_vertex(u);
  check_vertex(v);
  return find_source(in_[v], u) != in_[v].end();
}

EdgeWeight DynamicGraph::edge_weight(VertexId u, VertexId v) const {
  check_vertex(u);
  check_vertex(v);
  const auto it = find_source(in_[v], u);
  RIPPLE_CHECK_MSG(it != in_[v].end(),
                   "edge (" << u << ',' << v << ") not found");
  return it->weight;
}

bool DynamicGraph::set_edge_weight(VertexId u, VertexId v, EdgeWeight weight) {
  check_vertex(u);
  check_vertex(v);
  const auto in_it = find_source(in_[v], u);
  if (in_it == in_[v].end()) return false;
  in_it->weight = weight;
  auto out_it = find_neighbor(out_[u], v);
  RIPPLE_CHECK(out_it != out_[u].end());
  out_it->weight = weight;
  return true;
}

std::vector<DynamicGraph::Edge> DynamicGraph::edges() const {
  std::vector<Edge> result;
  result.reserve(num_edges_);
  for (VertexId u = 0; u < out_.size(); ++u) {
    for (const Neighbor& nb : out_[u]) {
      result.push_back({u, nb.vertex, nb.weight});
    }
  }
  return result;
}

std::size_t DynamicGraph::bytes() const {
  std::size_t total = 0;
  for (const auto& list : out_) total += list.capacity() * sizeof(Neighbor);
  for (const auto& list : in_) total += list.capacity() * sizeof(Neighbor);
  return total;
}

}  // namespace ripple
