// Property tests for the partitioners (§5.1) and the Partition type:
//  * ldg_partition respects the capacity_slack balance envelope,
//  * refine_partition never increases the edge cut,
//  * every vertex is assigned to exactly one part,
//  * hash_partition meets the round-robin balance bound,
//  * part_of(v) for post-partitioning vertices falls back to a
//    deterministic hash (regression: used to read out of bounds),
//  * build_halo_index classifies boundary/halo vertices correctly,
//  * propose_migration returns the same plan, move for move, as the
//    per-shed rescan it replaced (reference_propose below),
//  * swap_backfill pairs every return with a shed and, when every shed is
//    paired, leaves every part size unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include "common/rng.h"
#include "graph/generators.h"
#include "partition/partition.h"
#include "test_util.h"

namespace ripple {
namespace {

DynamicGraph property_graph(std::uint64_t seed) {
  Rng rng(seed);
  // R-MAT's skewed degrees stress the capacity envelope harder than G(n,m).
  return rmat(200, 1400, 0.5, 0.2, 0.2, 0.1, rng);
}

TEST(PartitionProperties, LdgRespectsCapacitySlack) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const auto graph = property_graph(seed);
    for (const std::size_t k : {2, 4, 7}) {
      for (const double slack : {1.02, 1.05, 1.3}) {
        const auto partition = ldg_partition(graph, k, slack);
        const double capacity =
            slack * static_cast<double>(graph.num_vertices()) /
            static_cast<double>(k);
        for (std::size_t p = 0; p < k; ++p) {
          // A part may exceed capacity by at most the final placement (the
          // all-parts-full fallback picks the smallest part).
          EXPECT_LE(static_cast<double>(partition.part_size(p)),
                    capacity + 1.0)
              << "seed " << seed << " k " << k << " slack " << slack;
        }
      }
    }
  }
}

TEST(PartitionProperties, RefineNeverIncreasesEdgeCut) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const auto graph = property_graph(seed);
    for (const std::size_t k : {2, 4, 8}) {
      // Both a cut-oblivious start (hash) and a good start (LDG).
      for (const bool use_ldg : {false, true}) {
        auto partition = use_ldg
                             ? ldg_partition(graph, k)
                             : hash_partition(graph.num_vertices(), k);
        const std::size_t cut_before = partition.edge_cut(graph);
        refine_partition(graph, partition, 3);
        EXPECT_LE(partition.edge_cut(graph), cut_before)
            << "seed " << seed << " k " << k << " ldg " << use_ldg;
      }
    }
  }
}

TEST(PartitionProperties, EveryVertexAssignedExactlyOnce) {
  const auto graph = property_graph(31);
  for (const std::size_t k : {1, 3, 6}) {
    auto partition = ldg_partition(graph, k);
    refine_partition(graph, partition, 2);
    std::vector<VertexId> seen;
    for (std::size_t p = 0; p < k; ++p) {
      for (const VertexId v : partition.vertices_of(p)) {
        EXPECT_EQ(partition.part_of(v), p);
        seen.push_back(v);
      }
    }
    std::sort(seen.begin(), seen.end());
    std::vector<VertexId> expected(graph.num_vertices());
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(seen, expected) << "k " << k;
  }
}

TEST(PartitionProperties, HashBalanceBound) {
  for (const std::size_t n : {100, 1000, 1001}) {
    for (const std::size_t k : {2, 7, 8}) {
      const auto partition = hash_partition(n, k);
      const std::size_t ceil_ideal = (n + k - 1) / k;
      for (std::size_t p = 0; p < k; ++p) {
        EXPECT_LE(partition.part_size(p), ceil_ideal) << n << "/" << k;
      }
    }
  }
}

// Regression: part_of(v) for a vertex that joined the stream after
// partitioning used to index out of bounds; it now falls back to a
// deterministic hash shared by every replica.
TEST(PartitionProperties, PartOfFallbackForStreamedVertices) {
  const auto partition = hash_partition(50, 4);
  for (VertexId v = 50; v < 90; ++v) {
    const std::uint32_t part = partition.part_of(v);
    EXPECT_LT(part, 4u);
    EXPECT_EQ(part, partition.part_of(v));  // deterministic
    // The documented Fibonacci spreading rule.
    const std::uint64_t h =
        static_cast<std::uint64_t>(v) * 0x9E3779B97F4A7C15ull;
    EXPECT_EQ(part, static_cast<std::uint32_t>((h >> 32) % 4));
  }
  // Hash fallback spreads across parts rather than piling on one.
  std::vector<std::size_t> hits(4, 0);
  for (VertexId v = 50; v < 250; ++v) ++hits[partition.part_of(v)];
  for (const std::size_t count : hits) EXPECT_GT(count, 0u);
  // Single part: everything (in range or not) maps to part 0.
  const auto single = hash_partition(10, 1);
  EXPECT_EQ(single.part_of(999), 0u);
}

// The skew detector as it was before the swap backfill ranked each pair's
// returns once: for every shed it rescans the destination part in full.
// Kept verbatim as the oracle for the linear implementation.

MigrationPlan reference_propose(const DynamicGraph& graph,
                                const Partition& partition,
                                const SkewSignal& signal,
                                const MigrationOptions& options) {
  MigrationPlan plan;
  const std::size_t k = partition.num_parts();
  if (k < 2 || options.max_moves == 0) return plan;
  const double mean = signal.mean(k);
  if (mean <= 0) return plan;
  std::vector<std::uint8_t> hot(k, 0);
  bool any_hot = false;
  for (std::size_t p = 0; p < k; ++p) {
    hot[p] = signal.busy(p) > options.hot_factor * mean;
    any_hot |= hot[p] != 0;
  }
  if (!any_hot) return plan;

  const std::size_t n =
      std::max(graph.num_vertices(), partition.num_vertices());
  const double capacity = options.capacity_slack * static_cast<double>(n) /
                          static_cast<double>(k);
  std::vector<std::size_t> sizes(k);
  for (std::size_t p = 0; p < k; ++p) sizes[p] = partition.part_size(p);

  struct Candidate {
    std::int64_t gain;  // cut edges removed minus cut edges created
    VertexId vertex;
    std::uint32_t from;
    std::uint32_t to;
  };
  std::vector<Candidate> candidates;
  std::vector<std::size_t> affinity(k);
  for (std::uint32_t p = 0; p < k; ++p) {
    if (!hot[p]) continue;
    for (const VertexId v : partition.vertices_of(p)) {
      if (v >= graph.num_vertices()) continue;
      std::fill(affinity.begin(), affinity.end(), 0);
      for (const Neighbor& nb : graph.in_neighbors(v)) {
        ++affinity[partition.part_of(nb.vertex)];
      }
      for (const Neighbor& nb : graph.out_neighbors(v)) {
        ++affinity[partition.part_of(nb.vertex)];
      }
      // Best non-hot destination: highest affinity, then lightest load,
      // then lowest part id — a total order, so every replica proposing
      // from the same signal derives the same plan.
      std::uint32_t best = UINT32_MAX;
      for (std::uint32_t q = 0; q < k; ++q) {
        if (q == p || hot[q]) continue;
        if (best == UINT32_MAX || affinity[q] > affinity[best] ||
            (affinity[q] == affinity[best] &&
             signal.busy(q) < signal.busy(best))) {
          best = q;
        }
      }
      if (best == UINT32_MAX) continue;
      candidates.push_back({static_cast<std::int64_t>(affinity[best]) -
                                static_cast<std::int64_t>(affinity[p]),
                            v, p, best});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.gain != b.gain) return a.gain > b.gain;
              return a.vertex < b.vertex;
            });
  std::vector<std::uint8_t> in_plan(n, 0);
  for (const Candidate& c : candidates) {
    if (plan.size() >= options.max_moves) break;
    if (sizes[c.from] <= 1) continue;  // never empty a part
    if (static_cast<double>(sizes[c.to]) + 1 > capacity) continue;
    plan.moves.push_back({c.vertex, c.from, c.to});
    in_plan[c.vertex] = 1;
    --sizes[c.from];
    ++sizes[c.to];
  }
  if (options.swap_backfill) {
    // Pair each shed with a return: the destination hands back its best
    // cut-gain vertex toward the shedding part, restoring both sizes. The
    // scan order (plan order, then ascending vertex id within the
    // destination) is a total order, so replicas stay in lockstep.
    const std::size_t sheds = plan.size();
    for (std::size_t i = 0; i < sheds; ++i) {
      const auto shed = plan.moves[i];
      std::int64_t best_gain = std::numeric_limits<std::int64_t>::min();
      VertexId best = kInvalidVertex;
      for (const VertexId w : partition.vertices_of(shed.to)) {
        if (w >= graph.num_vertices() || in_plan[w]) continue;
        std::int64_t toward_from = 0;
        std::int64_t toward_to = 0;
        for (const Neighbor& nb : graph.in_neighbors(w)) {
          const std::uint32_t q = partition.part_of(nb.vertex);
          toward_from += q == shed.from;
          toward_to += q == shed.to;
        }
        for (const Neighbor& nb : graph.out_neighbors(w)) {
          const std::uint32_t q = partition.part_of(nb.vertex);
          toward_from += q == shed.from;
          toward_to += q == shed.to;
        }
        const std::int64_t gain = toward_from - toward_to;
        if (gain > best_gain) {
          best_gain = gain;
          best = w;
        }
      }
      if (best == kInvalidVertex) continue;  // unpaired shed: size drifts
      plan.moves.push_back({best, shed.to, shed.from});
      in_plan[best] = 1;
      ++sizes[shed.from];
      --sizes[shed.to];
    }
  }
  plan.normalize(partition);
  return plan;
}

// Hot parts get busy 4.0; the others get distinct loads below the mean so
// the lightest-load tiebreak between non-hot destinations is exercised.
SkewSignal hot_signal(std::size_t k, std::size_t num_hot) {
  SkewSignal signal;
  for (std::size_t p = 0; p < k; ++p) {
    const double cool = 1.0 + 0.1 * static_cast<double>(p);
    signal.accumulate(p, p < num_hot ? 4.0 : cool);
  }
  return signal;
}

// Uneven parts: part p draws weight p + 1, so the highest part is the
// largest and part 0 the smallest destination a return can come from.
Partition skewed_partition(std::size_t n, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t total = k * (k + 1) / 2;
  std::vector<std::uint32_t> part_of(n);
  for (auto& part : part_of) {
    std::uint64_t draw = rng.next_below(total);
    std::uint32_t p = 0;
    while (draw >= p + 1) draw -= ++p;
    part = p;
  }
  return Partition(k, std::move(part_of));
}

void expect_same_plan(const MigrationPlan& got, const MigrationPlan& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.moves[i].vertex, want.moves[i].vertex) << where << " #" << i;
    EXPECT_EQ(got.moves[i].from, want.moves[i].from) << where << " #" << i;
    EXPECT_EQ(got.moves[i].to, want.moves[i].to) << where << " #" << i;
  }
}

// Shed and return counts per ordered part pair. Sheds leave hot parts,
// returns leave non-hot ones (a shed's destination is never hot).
struct PlanShape {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> sheds;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t> returns;
  std::size_t num_sheds = 0;
  std::size_t num_returns = 0;
};

PlanShape plan_shape(const MigrationPlan& plan, const SkewSignal& signal,
                     std::size_t k) {
  PlanShape shape;
  const double cutoff = MigrationOptions{}.hot_factor * signal.mean(k);
  for (const auto& move : plan.moves) {
    if (signal.busy(move.from) > cutoff) {
      ++shape.sheds[{move.from, move.to}];
      ++shape.num_sheds;
    } else {
      ++shape.returns[{move.from, move.to}];
      ++shape.num_returns;
    }
  }
  return shape;
}

TEST(PartitionProperties, ProposeMigrationMatchesReference) {
  std::size_t unpaired_plans = 0;
  for (const bool use_rmat : {false, true}) {
    for (const std::uint64_t seed : {41u, 42u}) {
      Rng rng(seed);
      const auto graph = use_rmat ? rmat(240, 1600, 0.5, 0.2, 0.2, 0.1, rng)
                                  : testing::random_graph(240, 1600, seed);
      for (const std::size_t k : {2, 3, 4}) {
        for (const bool skewed : {false, true}) {
          Partition partition =
              skewed ? skewed_partition(graph.num_vertices(), k, seed)
                     : ldg_partition(graph, k);
          if (!skewed) refine_partition(graph, partition, 1);
          std::size_t smallest = graph.num_vertices();
          for (std::size_t p = 0; p < k; ++p) {
            smallest = std::min(smallest, partition.part_size(p));
          }
          for (const std::size_t num_hot : {std::size_t{1}, k - 1}) {
            if (num_hot == k - 1 && k == 2) continue;  // same as one hot
            const SkewSignal signal = hot_signal(k, num_hot);
            for (const std::size_t max_moves :
                 {std::size_t{1}, std::size_t{64}, smallest + 1}) {
              for (const bool backfill : {false, true}) {
                for (const double slack : {1.10, 4.0}) {
                  MigrationOptions options;
                  options.max_moves = max_moves;
                  options.capacity_slack = slack;
                  options.swap_backfill = backfill;
                  const std::string where =
                      "rmat " + std::to_string(use_rmat) + " seed " +
                      std::to_string(seed) + " k " + std::to_string(k) +
                      " skewed " + std::to_string(skewed) + " hot " +
                      std::to_string(num_hot) + " max_moves " +
                      std::to_string(max_moves) + " backfill " +
                      std::to_string(backfill) + " slack " +
                      std::to_string(slack);
                  const MigrationPlan want =
                      reference_propose(graph, partition, signal, options);
                  expect_same_plan(
                      propose_migration(graph, partition, signal, options),
                      want, where);
                  const PlanShape shape = plan_shape(want, signal, k);
                  if (backfill && shape.num_returns < shape.num_sheds) {
                    ++unpaired_plans;
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  // The axes must reach cursor exhaustion: some backfilled plan leaves a
  // shed unpaired because its destination ran out of returns.
  EXPECT_GT(unpaired_plans, 0u);
}

// The graph has grown past the partition table: vertices_of() lists only
// table vertices, and part_of() routes the rest by the hash fallback. After
// a plan moves a post-partition vertex, apply() materializes the fallback
// entries up to it, so the next proposal sees them in vertices_of(). A
// table that runs AHEAD of the graph lists vertices with no adjacency yet,
// which neither side may offer as a return.
TEST(PartitionProperties, ProposeMigrationMatchesReferenceOnGrownGraph) {
  const auto graph = testing::random_graph(260, 1800, 51);
  for (const std::size_t k : {2, 3, 4}) {
    Partition partition = hash_partition(200, k);
    const auto compare_all = [&](const std::string& stage) {
      for (const bool backfill : {false, true}) {
        for (const std::size_t max_moves : {std::size_t{1}, std::size_t{64},
                                            std::size_t{300}}) {
          MigrationOptions options;
          options.max_moves = max_moves;
          options.capacity_slack = 4.0;
          options.swap_backfill = backfill;
          const SkewSignal signal = hot_signal(k, 1);
          expect_same_plan(
              propose_migration(graph, partition, signal, options),
              reference_propose(graph, partition, signal, options),
              stage + " k " + std::to_string(k) + " backfill " +
                  std::to_string(backfill) + " max_moves " +
                  std::to_string(max_moves));
        }
      }
    };
    compare_all("before apply");
    const Partition behind = partition;
    partition = hash_partition(300, k);
    compare_all("table ahead of graph");
    partition = behind;
    const VertexId grown = 250;
    MigrationPlan move_grown;
    const auto other_part =
        static_cast<std::uint32_t>((partition.part_of(grown) + 1) % k);
    move_grown.moves.push_back({grown, 0, other_part});
    move_grown.normalize(partition);
    partition.apply(move_grown);
    ASSERT_EQ(partition.num_vertices(), grown + 1u);
    compare_all("after apply");
  }
}

// The swap_backfill contract: a plan names each vertex at most once, every
// return runs opposite to a shed of the same pair, and when every shed found
// its return, applying the plan changes no part's size.
TEST(PartitionProperties, SwapBackfillKeepsPartSizesWhenPaired) {
  std::size_t fully_paired = 0;
  for (const std::uint64_t seed : {61u, 62u, 63u}) {
    Rng rng(seed);
    const auto graph = rmat(300, 2400, 0.5, 0.2, 0.2, 0.1, rng);
    for (const std::size_t k : {2, 3, 4}) {
      Partition partition = ldg_partition(graph, k);
      refine_partition(graph, partition, 1);
      for (const std::size_t num_hot : {std::size_t{1}, k - 1}) {
        if (num_hot == k - 1 && k == 2) continue;  // same as one hot
        for (const std::size_t max_moves : {std::size_t{8}, std::size_t{64},
                                            std::size_t{400}}) {
          MigrationOptions options;
          options.max_moves = max_moves;
          options.capacity_slack = 4.0;
          options.swap_backfill = true;
          const SkewSignal signal = hot_signal(k, num_hot);
          const MigrationPlan plan =
              propose_migration(graph, partition, signal, options);
          const std::string where = "seed " + std::to_string(seed) + " k " +
                                    std::to_string(k) + " hot " +
                                    std::to_string(num_hot) + " max_moves " +
                                    std::to_string(max_moves);

          std::set<VertexId> seen;
          for (const auto& move : plan.moves) {
            EXPECT_TRUE(seen.insert(move.vertex).second)
                << where << ": vertex " << move.vertex << " moved twice";
          }
          const PlanShape shape = plan_shape(plan, signal, k);
          for (const auto& [parts, count] : shape.returns) {
            const auto shed = shape.sheds.find({parts.second, parts.first});
            ASSERT_NE(shed, shape.sheds.end())
                << where << ": return " << parts.first << "->"
                << parts.second << " has no shed the other way";
            EXPECT_LE(count, shed->second) << where;
          }
          if (shape.num_sheds == 0 || shape.num_returns < shape.num_sheds) {
            continue;
          }
          EXPECT_EQ(shape.returns.size(), shape.sheds.size()) << where;
          ++fully_paired;
          Partition applied = partition;
          applied.apply(plan);
          for (std::size_t p = 0; p < k; ++p) {
            EXPECT_EQ(applied.part_size(p), partition.part_size(p))
                << where << " part " << p;
          }
        }
      }
    }
  }
  EXPECT_GT(fully_paired, 0u);
}

TEST(PartitionProperties, HaloIndexClassifiesCutEndpoints) {
  DynamicGraph g(4);
  g.add_edge(0, 1);  // internal to part 0
  g.add_edge(1, 2);  // cut: 0 -> 1
  g.add_edge(2, 3);  // internal to part 1
  g.add_edge(2, 0);  // cut: 1 -> 0
  const Partition partition(2, {0, 0, 1, 1});
  const auto halo = build_halo_index(g, partition);
  EXPECT_EQ(halo.boundary[0], (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(halo.boundary[1], (std::vector<VertexId>{2}));
  EXPECT_EQ(halo.halo_in[0], (std::vector<VertexId>{2}));
  EXPECT_EQ(halo.halo_in[1], (std::vector<VertexId>{1}));
  EXPECT_EQ(halo.total_boundary(), 3u);
  EXPECT_EQ(halo.total_halo(), 2u);
}

}  // namespace
}  // namespace ripple
