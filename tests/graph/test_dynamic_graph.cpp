#include "graph/dynamic_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace ripple {
namespace {

TEST(DynamicGraph, AddEdgeUpdatesBothDirections) {
  DynamicGraph g(4);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.in_degree(1), 1u);
  EXPECT_EQ(g.out_neighbors(0)[0].vertex, 1u);
  EXPECT_EQ(g.in_neighbors(1)[0].vertex, 0u);
}

TEST(DynamicGraph, DuplicateEdgeRejected) {
  DynamicGraph g(3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_FALSE(g.add_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(DynamicGraph, ReverseEdgeIsDistinct) {
  DynamicGraph g(3);
  EXPECT_TRUE(g.add_edge(0, 1));
  EXPECT_TRUE(g.add_edge(1, 0));
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(DynamicGraph, SelfLoopAllowed) {
  DynamicGraph g(2);
  EXPECT_TRUE(g.add_edge(1, 1));
  EXPECT_EQ(g.in_degree(1), 1u);
  EXPECT_EQ(g.out_degree(1), 1u);
}

TEST(DynamicGraph, RemoveEdge) {
  DynamicGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  EXPECT_TRUE(g.remove_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_EQ(g.in_degree(1), 0u);
}

TEST(DynamicGraph, RemoveAbsentEdgeReturnsFalse) {
  DynamicGraph g(3);
  g.add_edge(0, 1);
  EXPECT_FALSE(g.remove_edge(1, 0));
  EXPECT_FALSE(g.remove_edge(0, 2));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(DynamicGraph, ReAddAfterRemove) {
  DynamicGraph g(2);
  g.add_edge(0, 1, 2.0f);
  g.remove_edge(0, 1);
  EXPECT_TRUE(g.add_edge(0, 1, 3.0f));
  EXPECT_FLOAT_EQ(g.edge_weight(0, 1), 3.0f);
}

TEST(DynamicGraph, EdgeWeightRoundTrip) {
  DynamicGraph g(2);
  g.add_edge(0, 1, 0.75f);
  EXPECT_FLOAT_EQ(g.edge_weight(0, 1), 0.75f);
  EXPECT_FLOAT_EQ(g.in_neighbors(1)[0].weight, 0.75f);
}

TEST(DynamicGraph, SetEdgeWeightUpdatesBothSides) {
  DynamicGraph g(2);
  g.add_edge(0, 1, 1.0f);
  EXPECT_TRUE(g.set_edge_weight(0, 1, 5.0f));
  EXPECT_FLOAT_EQ(g.out_neighbors(0)[0].weight, 5.0f);
  EXPECT_FLOAT_EQ(g.in_neighbors(1)[0].weight, 5.0f);
  EXPECT_FALSE(g.set_edge_weight(1, 0, 2.0f));
}

TEST(DynamicGraph, EdgeWeightOfAbsentEdgeThrows) {
  DynamicGraph g(2);
  EXPECT_THROW(g.edge_weight(0, 1), check_error);
}

TEST(DynamicGraph, OutOfRangeVertexThrows) {
  DynamicGraph g(2);
  EXPECT_THROW(g.add_edge(0, 2), check_error);
  EXPECT_THROW(g.add_edge(5, 0), check_error);
  EXPECT_THROW(g.has_edge(0, 9), check_error);
}

TEST(DynamicGraph, EdgesListsAll) {
  DynamicGraph g(4);
  g.add_edge(0, 1, 1.0f);
  g.add_edge(2, 3, 2.0f);
  g.add_edge(3, 0, 3.0f);
  auto edges = g.edges();
  EXPECT_EQ(edges.size(), 3u);
  std::sort(edges.begin(), edges.end(),
            [](const auto& a, const auto& b) { return a.src < b.src; });
  EXPECT_EQ(edges[0].src, 0u);
  EXPECT_EQ(edges[1].dst, 3u);
  EXPECT_FLOAT_EQ(edges[2].weight, 3.0f);
}

TEST(DynamicGraph, AvgInDegree) {
  DynamicGraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 1);
  g.add_edge(3, 1);
  g.add_edge(1, 0);
  EXPECT_DOUBLE_EQ(g.avg_in_degree(), 1.0);
}

TEST(DynamicGraph, ManyEdgesStressInvariant) {
  DynamicGraph g(100);
  std::size_t added = 0;
  for (VertexId u = 0; u < 100; ++u) {
    for (VertexId v = 0; v < 100; v += 7) {
      if (u != v && g.add_edge(u, v)) ++added;
    }
  }
  EXPECT_EQ(g.num_edges(), added);
  // in/out degree sums must both equal the edge count.
  std::size_t in_sum = 0;
  std::size_t out_sum = 0;
  for (VertexId v = 0; v < 100; ++v) {
    in_sum += g.in_degree(v);
    out_sum += g.out_degree(v);
  }
  EXPECT_EQ(in_sum, added);
  EXPECT_EQ(out_sum, added);
}

TEST(DynamicGraph, FromOutListsKeepsOutOrderAndSortsInLists) {
  const DynamicGraph g = DynamicGraph::from_out_lists(
      {{{2, 1.0f}, {1, 2.0f}}, {{2, 3.0f}, {1, 4.0f}}, {{0, 5.0f}}});
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(g.out_neighbors(0)[0], (Neighbor{2, 1.0f}));
  EXPECT_EQ(g.out_neighbors(0)[1], (Neighbor{1, 2.0f}));
  // In-lists come out ascending by source; the self-loop (1, 1) included.
  ASSERT_EQ(g.in_degree(1), 2u);
  EXPECT_EQ(g.in_neighbors(1)[0], (Neighbor{0, 2.0f}));
  EXPECT_EQ(g.in_neighbors(1)[1], (Neighbor{1, 4.0f}));
  ASSERT_EQ(g.in_degree(2), 2u);
  EXPECT_EQ(g.in_neighbors(2)[0].vertex, 0u);
  EXPECT_EQ(g.in_neighbors(2)[1].vertex, 1u);
  EXPECT_FLOAT_EQ(g.edge_weight(2, 0), 5.0f);
}

TEST(DynamicGraph, FromOutListsRejectsParallelEdgesAndBadIds) {
  EXPECT_THROW(DynamicGraph::from_out_lists({{{1, 1.0f}, {1, 2.0f}}, {}}),
               check_error);
  EXPECT_THROW(DynamicGraph::from_out_lists({{{2, 1.0f}}, {}}), check_error);
}

// Seeded differential test against a std::map reference: random adds
// (duplicates and self-loops included), removes (absent ones included) and
// weight updates. After every op, every in-list must be strictly ascending
// by source id and hold exactly the reference's in-edges with their
// weights; every out-list must match a reference that appends on add and
// swap-erases on remove (its order is observable).
TEST(DynamicGraph, RandomOpsMatchMapReference) {
  constexpr std::size_t kVertices = 24;
  DynamicGraph g(kVertices);
  std::map<std::pair<VertexId, VertexId>, EdgeWeight> ref;
  std::vector<std::vector<Neighbor>> ref_out(kVertices);
  Rng rng(2024);
  for (int op = 0; op < 4000; ++op) {
    const auto u = static_cast<VertexId>(rng.next_below(kVertices));
    // Targets skew low so hub in-lists grow long and duplicates are common.
    const auto v = static_cast<VertexId>(
        rng.next_below(rng.next_bool(0.5) ? 4 : kVertices));
    const auto w = static_cast<EdgeWeight>(1 + rng.next_below(9));
    const bool present = ref.count({u, v}) != 0;
    const double kind = rng.next_double();
    if (kind < 0.5) {
      ASSERT_EQ(g.add_edge(u, v, w), !present) << u << "->" << v;
      if (!present) {
        ref[{u, v}] = w;
        ref_out[u].push_back({v, w});
      }
    } else if (kind < 0.8) {
      ASSERT_EQ(g.remove_edge(u, v), present) << u << "->" << v;
      if (present) {
        ref.erase({u, v});
        auto& list = ref_out[u];
        const auto it = std::find_if(list.begin(), list.end(),
                                     [v](const Neighbor& nb) {
                                       return nb.vertex == v;
                                     });
        *it = list.back();
        list.pop_back();
      }
    } else {
      ASSERT_EQ(g.set_edge_weight(u, v, w), present) << u << "->" << v;
      if (present) {
        ref[{u, v}] = w;
        for (Neighbor& nb : ref_out[u]) {
          if (nb.vertex == v) nb.weight = w;
        }
      }
    }

    ASSERT_EQ(g.num_edges(), ref.size());
    ASSERT_EQ(g.has_edge(u, v), ref.count({u, v}) != 0);
    if (g.has_edge(u, v)) ASSERT_EQ(g.edge_weight(u, v), ref.at({u, v}));
    for (VertexId x = 0; x < kVertices; ++x) {
      const auto in = g.in_neighbors(x);
      std::vector<Neighbor> expect_in;
      for (const auto& [edge, weight] : ref) {
        if (edge.second == x) expect_in.push_back({edge.first, weight});
      }
      // std::map orders by (src, dst): expect_in is ascending by source.
      ASSERT_EQ(in.size(), expect_in.size()) << "in-list of " << x;
      for (std::size_t i = 0; i < in.size(); ++i) {
        if (i > 0) ASSERT_LT(in[i - 1].vertex, in[i].vertex);
        ASSERT_EQ(in[i].vertex, expect_in[i].vertex);
        ASSERT_EQ(in[i].weight, expect_in[i].weight);
      }
      const auto out = g.out_neighbors(x);
      ASSERT_EQ(out.size(), ref_out[x].size()) << "out-list of " << x;
      for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i].vertex, ref_out[x][i].vertex);
        ASSERT_EQ(out[i].weight, ref_out[x][i].weight);
      }
    }
  }
}

}  // namespace
}  // namespace ripple
