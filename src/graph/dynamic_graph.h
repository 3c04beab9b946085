// Mutable directed graph backed by per-vertex edge lists.
//
// This is the "lightweight edge list structure designed to efficiently
// handle streaming updates" from the paper (§6): edges are inserted and
// removed in place with no global rebuild, unlike CSR-based stores (see
// infer/dgl_emu for the contrast). Both out- and in-adjacency are
// maintained because update propagation pushes along out-edges while
// recompute baselines — and RippleEngine's dense hops — pull along
// in-edges.
//
// Sorted in-list invariant: every in-list is strictly ascending by source
// id. RippleEngine's pull scatter (core/ripple_engine.h) walks a target's
// in-list and must meet its senders in the same ascending-id order the push
// scatter delivers them, which is what keeps the two directions
// bit-identical. Costs:
//   * add_edge: O(log in_degree(v)) search (it is also the duplicate check)
//     plus an O(in_degree(v)) shift for a middle insert — an append when
//     sources arrive in ascending order. Inserting a hub's edges in random
//     source order costs O(in_degree²), so bulk builders dedup into
//     out-lists and call from_out_lists(), which fills every in-list in
//     ascending source order in O(|E|) (graph/generators.cpp);
//   * remove_edge: O(log in_degree(v)) search plus an O(in_degree(v)) erase
//     shift, and an O(out_degree(u)) find + swap-erase on the out-list;
//   * has_edge / edge_weight: O(log in_degree(v)).
// Out-lists stay in insertion order (swap-erase on removal): that order is
// observable, since generators and streams sample out-neighbors by
// position.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/types.h"

namespace ripple {

class DynamicGraph {
 public:
  DynamicGraph() = default;
  explicit DynamicGraph(std::size_t num_vertices)
      : out_(num_vertices), in_(num_vertices) {}

  // Bulk build: adopts `out` as the out-lists (out[u] = u's out-edges, in
  // their given order; no parallel edges) and derives the in-lists in one
  // ascending-source pass, so every in-list insert is an append. Checks
  // vertex ids and rejects a parallel edge.
  static DynamicGraph from_out_lists(std::vector<std::vector<Neighbor>> out);

  std::size_t num_vertices() const { return out_.size(); }
  std::size_t num_edges() const { return num_edges_; }

  // Inserts directed edge (u, v): appended to u's out-list, inserted at its
  // id-sorted place in v's in-list. Returns false (and leaves the graph
  // unchanged) if the edge already exists. Self-loops are allowed; parallel
  // edges are not.
  bool add_edge(VertexId u, VertexId v, EdgeWeight weight = 1.0f);

  // Removes directed edge (u, v); returns false if it was absent.
  bool remove_edge(VertexId u, VertexId v);

  bool has_edge(VertexId u, VertexId v) const;

  // Weight of edge (u, v); checks that the edge exists.
  EdgeWeight edge_weight(VertexId u, VertexId v) const;

  // Updates the weight of an existing edge; returns false if absent.
  bool set_edge_weight(VertexId u, VertexId v, EdgeWeight weight);

  std::size_t out_degree(VertexId u) const { return out_[u].size(); }
  std::size_t in_degree(VertexId v) const { return in_[v].size(); }

  std::span<const Neighbor> out_neighbors(VertexId u) const {
    return out_[u];
  }
  // Ascending by source id (the sorted in-list invariant above).
  std::span<const Neighbor> in_neighbors(VertexId v) const { return in_[v]; }

  double avg_in_degree() const {
    return num_vertices() == 0
               ? 0.0
               : static_cast<double>(num_edges_) / num_vertices();
  }

  // All edges as (u, v, w) triples, ordered by source id (test/IO helper).
  struct Edge {
    VertexId src;
    VertexId dst;
    EdgeWeight weight;
    friend bool operator==(const Edge&, const Edge&) = default;
  };
  std::vector<Edge> edges() const;

  // Approximate resident bytes of the adjacency structures.
  std::size_t bytes() const;

 private:
  void check_vertex(VertexId v) const;

  std::vector<std::vector<Neighbor>> out_;
  std::vector<std::vector<Neighbor>> in_;
  std::size_t num_edges_ = 0;
};

}  // namespace ripple
