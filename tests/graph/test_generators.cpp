#include "graph/generators.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "graph/stats.h"

namespace ripple {
namespace {

TEST(Generators, ErdosRenyiExactEdgeCount) {
  Rng rng(1);
  const auto g = erdos_renyi(200, 1500, rng);
  EXPECT_EQ(g.num_vertices(), 200u);
  EXPECT_EQ(g.num_edges(), 1500u);
}

TEST(Generators, ErdosRenyiDeterministic) {
  Rng rng1(42);
  Rng rng2(42);
  const auto g1 = erdos_renyi(100, 400, rng1);
  const auto g2 = erdos_renyi(100, 400, rng2);
  EXPECT_EQ(g1.edges(), g2.edges());
}

TEST(Generators, ErdosRenyiNoSelfLoopsOrDuplicates) {
  Rng rng(3);
  const auto g = erdos_renyi(50, 600, rng);
  for (const auto& e : g.edges()) EXPECT_NE(e.src, e.dst);
  // DynamicGraph::add_edge rejects duplicates, so m == unique edges.
  EXPECT_EQ(g.edges().size(), g.num_edges());
}

TEST(Generators, ErdosRenyiRejectsOverfull) {
  Rng rng(1);
  EXPECT_THROW(erdos_renyi(3, 100, rng), check_error);
}

TEST(Generators, BarabasiAlbertDegreeSkew) {
  Rng rng(7);
  const auto g = barabasi_albert(2000, 8, rng);
  const auto stats = compute_stats(g);
  // Preferential attachment must produce a heavy tail: p99 well above mean.
  EXPECT_GT(static_cast<double>(stats.max_in_degree),
            4.0 * stats.avg_in_degree);
  EXPECT_NEAR(stats.avg_in_degree, 8.0, 2.0);
}

TEST(Generators, RmatApproximatesTargetEdges) {
  Rng rng(11);
  const auto g = rmat(1024, 8000, 0.45, 0.22, 0.22, 0.11, rng);
  // R-MAT rejects collisions, so allow modest shortfall.
  EXPECT_GT(g.num_edges(), 7000u);
  EXPECT_LE(g.num_edges(), 8000u);
}

TEST(Generators, RmatSkewedInDegrees) {
  Rng rng(13);
  const auto g = rmat(2048, 20000, 0.45, 0.22, 0.22, 0.11, rng);
  const auto stats = compute_stats(g);
  EXPECT_GT(static_cast<double>(stats.max_in_degree),
            5.0 * stats.avg_in_degree);
}

TEST(Generators, RmatValidatesProbabilities) {
  Rng rng(1);
  EXPECT_THROW(rmat(64, 100, 0.5, 0.5, 0.5, 0.5, rng), check_error);
}

TEST(Generators, SbmLabelsAssignedToAllVertices) {
  Rng rng(17);
  std::vector<std::uint32_t> labels;
  const auto g = stochastic_block_model(500, 5, 0.05, 0.005, rng, &labels);
  EXPECT_EQ(labels.size(), 500u);
  for (auto label : labels) EXPECT_LT(label, 5u);
}

TEST(Generators, SbmAssortativity) {
  Rng rng(19);
  std::vector<std::uint32_t> labels;
  const auto g = stochastic_block_model(600, 3, 0.06, 0.004, rng, &labels);
  std::size_t within = 0;
  std::size_t across = 0;
  for (const auto& e : g.edges()) {
    if (labels[e.src] == labels[e.dst]) ++within;
    else ++across;
  }
  // p_in/p_out = 15 but across-pairs are 2x as numerous; expect a clear
  // majority of within-community edges regardless.
  EXPECT_GT(within, across);
}

TEST(Generators, SbmExpectedDegreeClose) {
  Rng rng(23);
  std::vector<std::uint32_t> labels;
  const std::size_t n = 1200;
  const double p = 0.01;
  const auto g = stochastic_block_model(n, 4, p, p, rng, &labels);
  // With p_in == p_out == p, E[m] = p * n * (n - 1).
  const double expected = p * static_cast<double>(n) * (n - 1);
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, expected * 0.1);
}

// ---- Source-ordered construction vs the sequential add_edge loop ----
// The generators dedup through out-lists and insert edges in ascending
// source order (so sorted in-list inserts are appends). The reference
// builders below are the original sequential add_edge loops; the generated
// edge sets, out-list orders and weights (edges() walks the out-lists in
// order) and the RNG streams must all be unchanged.

DynamicGraph reference_erdos_renyi(std::size_t n, std::size_t m, Rng& rng) {
  DynamicGraph graph(n);
  while (graph.num_edges() < m) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    if (u == v) continue;
    graph.add_edge(u, v);
  }
  return graph;
}

DynamicGraph reference_barabasi_albert(std::size_t n, std::size_t k,
                                       Rng& rng) {
  DynamicGraph graph(n);
  std::vector<VertexId> targets;
  const std::size_t seed = k + 1;
  for (VertexId u = 0; u < seed; ++u) {
    targets.push_back(u);
    for (VertexId v = 0; v < seed; ++v) {
      if (u != v) graph.add_edge(u, v);
    }
  }
  for (VertexId u = static_cast<VertexId>(seed); u < n; ++u) {
    std::size_t added = 0;
    std::size_t attempts = 0;
    while (added < k && attempts < k * 64) {
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
  return graph;
}

DynamicGraph reference_rmat(std::size_t n, std::size_t m, double a, double b,
                            double c, Rng& rng) {
  std::size_t scale = 0;
  while ((std::size_t{1} << scale) < n) ++scale;
  DynamicGraph graph(n);
  std::size_t failures = 0;
  const std::size_t max_failures = m * 64 + 1024;
  while (graph.num_edges() < m && failures < max_failures) {
    std::size_t u = 0;
    std::size_t v = 0;
    for (std::size_t bit = 0; bit < scale; ++bit) {
      const double r = rng.next_double();
      u <<= 1;
      v <<= 1;
      if (r < a) {
      } else if (r < a + b) {
        v |= 1;
      } else if (r < a + b + c) {
        u |= 1;
      } else {
        u |= 1;
        v |= 1;
      }
    }
    if (u >= n || v >= n || u == v ||
        !graph.add_edge(static_cast<VertexId>(u), static_cast<VertexId>(v))) {
      ++failures;
    }
  }
  return graph;
}

DynamicGraph reference_sbm(std::size_t n, std::size_t blocks, double p_in,
                           double p_out, Rng& rng) {
  DynamicGraph graph(n);
  auto sample_pairs = [&](double p, bool same_block) {
    if (p <= 0) return;
    const double log1mp = std::log(1.0 - p);
    const std::size_t total = n * n;
    std::size_t idx = 0;
    while (true) {
      const double r = rng.next_double();
      idx += static_cast<std::size_t>(std::floor(std::log(1.0 - r) / log1mp)) +
             1;
      if (idx > total) break;
      const auto u = static_cast<VertexId>((idx - 1) / n);
      const auto v = static_cast<VertexId>((idx - 1) % n);
      if (u == v) continue;
      if ((u % blocks == v % blocks) == same_block) graph.add_edge(u, v, 1.0f);
    }
  };
  sample_pairs(p_in, true);
  sample_pairs(p_out, false);
  return graph;
}

// Same edges in the same out-list order, the RNG left in the same state,
// and every in-list ascending by source.
void expect_same_graph(const DynamicGraph& got, const DynamicGraph& want,
                       Rng& got_rng, Rng& want_rng) {
  EXPECT_EQ(got.num_edges(), want.num_edges());
  EXPECT_EQ(got.edges(), want.edges());
  EXPECT_EQ(got_rng.next_u64(), want_rng.next_u64());
  for (VertexId v = 0; v < got.num_vertices(); ++v) {
    const auto in = got.in_neighbors(v);
    for (std::size_t i = 1; i < in.size(); ++i) {
      ASSERT_LT(in[i - 1].vertex, in[i].vertex) << "in-list of " << v;
    }
  }
}

TEST(Generators, SourceOrderedBuildMatchesSequentialAddEdge) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE(seed);
    {
      Rng a(seed), b(seed);
      expect_same_graph(erdos_renyi(300, 2400, a),
                        reference_erdos_renyi(300, 2400, b), a, b);
    }
    {
      Rng a(seed), b(seed);
      expect_same_graph(barabasi_albert(400, 6, a),
                        reference_barabasi_albert(400, 6, b), a, b);
    }
    {
      Rng a(seed), b(seed);
      expect_same_graph(rmat(1000, 9000, 0.45, 0.22, 0.22, 0.11, a),
                        reference_rmat(1000, 9000, 0.45, 0.22, 0.22, b), a,
                        b);
    }
    {
      Rng a(seed), b(seed);
      std::vector<std::uint32_t> labels;
      expect_same_graph(
          stochastic_block_model(300, 4, 0.05, 0.004, a, &labels),
          reference_sbm(300, 4, 0.05, 0.004, b), a, b);
    }
  }
}

}  // namespace
}  // namespace ripple
