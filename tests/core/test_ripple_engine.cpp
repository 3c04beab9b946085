#include "core/ripple_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "../test_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace ripple {
namespace {

TEST(RippleEngine, RejectsNonLinearAggregator) {
  const auto graph = testing::random_graph(10, 30, 1);
  const auto features = testing::random_features(10, 4, 2);
  auto config = workload_config(Workload::gc_s, 4, 2, 2, 4);
  config.aggregator = AggregatorKind::max;
  const auto model = GnnModel::random(config, 3);
  EXPECT_THROW(RippleEngine(model, graph, features), check_error);
}

TEST(RippleEngine, BootstrapMatchesLayerwise) {
  const auto graph = testing::random_graph(30, 200, 4);
  const auto features = testing::random_features(30, 6, 5);
  for (Workload w : all_workloads()) {
    const auto config = workload_config(w, 6, 3, 2, 8);
    const auto model = GnnModel::random(config, 6);
    RippleEngine engine(model, graph, features);
    const auto truth = testing::full_inference_truth(model, graph, features);
    EXPECT_LT(testing::max_store_diff(engine.embeddings(), truth), 1e-4f)
        << workload_name(w);
  }
}

TEST(RippleEngine, AggregateCacheHoldsRawSums) {
  DynamicGraph g(3);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  const Matrix features = Matrix::from_rows(3, 2, {1, 2, 3, 4, 0, 0});
  const auto config = workload_config(Workload::gc_m, 2, 2, 1, 4);
  const auto model = GnnModel::random(config, 7);
  RippleEngine engine(model, g, features);
  // Mean aggregator: cache must store the SUM (4, 6), not the mean (2, 3).
  EXPECT_FLOAT_EQ(engine.aggregate_cache(1).at(2, 0), 4.0f);
  EXPECT_FLOAT_EQ(engine.aggregate_cache(1).at(2, 1), 6.0f);
}

TEST(RippleEngine, EdgeAddUpdatesCacheIncrementally) {
  DynamicGraph g(3);
  g.add_edge(0, 2);
  const Matrix features = Matrix::from_rows(3, 2, {1, 2, 3, 4, 0, 0});
  const auto config = workload_config(Workload::gc_s, 2, 2, 1, 4);
  const auto model = GnnModel::random(config, 8);
  RippleEngine engine(model, g, features);
  EXPECT_FLOAT_EQ(engine.aggregate_cache(1).at(2, 0), 1.0f);
  const std::vector<GraphUpdate> batch = {GraphUpdate::edge_add(1, 2)};
  engine.apply_batch(batch);
  EXPECT_FLOAT_EQ(engine.aggregate_cache(1).at(2, 0), 4.0f);
  EXPECT_FLOAT_EQ(engine.aggregate_cache(1).at(2, 1), 6.0f);
}

TEST(RippleEngine, EdgeDeleteRetractsContribution) {
  DynamicGraph g(3);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  const Matrix features = Matrix::from_rows(3, 2, {1, 2, 3, 4, 0, 0});
  const auto config = workload_config(Workload::gc_s, 2, 2, 1, 4);
  const auto model = GnnModel::random(config, 9);
  RippleEngine engine(model, g, features);
  const std::vector<GraphUpdate> batch = {GraphUpdate::edge_del(0, 2)};
  engine.apply_batch(batch);
  EXPECT_FLOAT_EQ(engine.aggregate_cache(1).at(2, 0), 3.0f);
  EXPECT_FLOAT_EQ(engine.aggregate_cache(1).at(2, 1), 4.0f);
  EXPECT_FALSE(engine.graph().has_edge(0, 2));
}

TEST(RippleEngine, AddThenDeleteSameBatchIsNetNoop) {
  auto graph = testing::random_graph(20, 100, 10);
  const auto features = testing::random_features(20, 5, 11);
  const auto config = workload_config(Workload::gs_s, 5, 3, 2, 8);
  const auto model = GnnModel::random(config, 12);
  RippleEngine engine(model, graph, features);
  // Find a non-edge.
  VertexId u = 0;
  VertexId v = 1;
  while (graph.has_edge(u, v) || u == v) {
    v = (v + 1) % 20;
    if (v == 0) ++u;
  }
  const std::vector<GraphUpdate> batch = {GraphUpdate::edge_add(u, v),
                                          GraphUpdate::edge_del(u, v)};
  engine.apply_batch(batch);
  const auto truth = testing::full_inference_truth(model, graph, features);
  EXPECT_LT(testing::max_store_diff(engine.embeddings(), truth), 1e-4f);
}

TEST(RippleEngine, BatchResultCountsAffectedHops) {
  auto g = testing::fig4_graph();
  const auto features = testing::random_features(6, 4, 13);
  const auto config = workload_config(Workload::gc_s, 4, 2, 3, 4);
  const auto model = GnnModel::random(config, 14);
  RippleEngine engine(model, g, features);
  const std::vector<GraphUpdate> batch = {GraphUpdate::edge_add(2, 0)};
  const auto result = engine.apply_batch(batch);
  // Fig. 4 (add C->A): hop1 {A}; hop2 {A, B, D} (A stays affected — the new
  // edge feeds x^2_A); hop3 {A, B, D, E}. Tree size 8, final hop 4.
  EXPECT_EQ(result.propagation_tree_size, 8u);
  EXPECT_EQ(result.affected_final, 4u);
  EXPECT_EQ(result.batch_size, 1u);
}

TEST(RippleEngine, UpdateThenPropagateSplitOperators) {
  auto graph = testing::random_graph(25, 120, 15);
  const auto features = testing::random_features(25, 5, 16);
  const auto config = workload_config(Workload::gc_s, 5, 3, 2, 8);
  const auto model = GnnModel::random(config, 17);
  RippleEngine engine(model, graph, features);
  const auto edge = graph.edges().front();
  const std::vector<GraphUpdate> batch = {
      GraphUpdate::edge_del(edge.src, edge.dst)};
  engine.update(batch);
  // After update(): topology changed, mailboxes seeded, embeddings stale.
  EXPECT_FALSE(engine.graph().has_edge(edge.src, edge.dst));
  EXPECT_GT(engine.mailbox(1).size(), 0u);
  engine.propagate();
  EXPECT_EQ(engine.mailbox(1).size(), 0u);  // drained
  auto truth_graph = graph;
  truth_graph.remove_edge(edge.src, edge.dst);
  const auto truth =
      testing::full_inference_truth(model, truth_graph, features);
  EXPECT_LT(testing::max_store_diff(engine.embeddings(), truth), 1e-4f);
}

TEST(RippleEngine, FeatureUpdateCommitsAndPropagates) {
  auto graph = testing::random_graph(15, 60, 18);
  const auto features = testing::random_features(15, 4, 19);
  const auto config = workload_config(Workload::gs_s, 4, 2, 2, 6);
  const auto model = GnnModel::random(config, 20);
  RippleEngine engine(model, graph, features);
  std::vector<float> new_feat = {9.0f, -9.0f, 1.0f, 0.5f};
  const std::vector<GraphUpdate> batch = {
      GraphUpdate::vertex_feature(3, new_feat)};
  engine.apply_batch(batch);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(engine.embeddings().features().at(3, j), new_feat[j]);
  }
  Matrix truth_features = features;
  vec_copy(new_feat, truth_features.row(3));
  const auto truth =
      testing::full_inference_truth(model, graph, truth_features);
  EXPECT_LT(testing::max_store_diff(engine.embeddings(), truth), 1e-4f);
}

TEST(RippleEngine, FeatureWidthMismatchThrows) {
  auto graph = testing::random_graph(10, 40, 21);
  const auto features = testing::random_features(10, 4, 22);
  const auto config = workload_config(Workload::gc_s, 4, 2, 2, 4);
  const auto model = GnnModel::random(config, 23);
  RippleEngine engine(model, graph, features);
  const std::vector<GraphUpdate> batch = {
      GraphUpdate::vertex_feature(0, {1.0f, 2.0f})};  // width 2, expect 4
  EXPECT_THROW(engine.apply_batch(batch), check_error);
}

TEST(RippleEngine, IncrementalOpsCounterAdvances) {
  auto graph = testing::random_graph(20, 120, 24);
  const auto features = testing::random_features(20, 4, 25);
  const auto config = workload_config(Workload::gc_s, 4, 2, 2, 6);
  const auto model = GnnModel::random(config, 26);
  RippleEngine engine(model, graph, features);
  const auto before = engine.incremental_ops();
  const auto edge = graph.edges().front();
  const std::vector<GraphUpdate> batch = {
      GraphUpdate::edge_del(edge.src, edge.dst)};
  engine.apply_batch(batch);
  EXPECT_GT(engine.incremental_ops(), before);
}

// Both scatter directions against full recompute, on a pooled multi-shard
// engine with a self-term model. A batch of one edge and one feature row on
// a 400-vertex graph keeps every hop's sender out-edges far below the pull
// threshold (push); a whole-graph feature batch makes every vertex a hop-1
// sender, so the senders' out-edges are all of |E| (pull). Vertex 0 has no
// in-edges: after its feature changes, its hop-2 cell comes only from the
// self mark the scatter must set, in either direction.
TEST(RippleEngine, SparseAndDenseHopsMatchRecompute) {
  auto graph = testing::random_graph(400, 1600, 30);
  std::vector<VertexId> sources;
  for (const Neighbor& nb : graph.in_neighbors(0)) sources.push_back(nb.vertex);
  for (const VertexId u : sources) graph.remove_edge(u, 0);
  ASSERT_GT(graph.out_degree(0), 0u);
  Matrix features = testing::random_features(400, 6, 31);
  const auto model =
      GnnModel::random(workload_config(Workload::gs_s, 6, 3, 3, 8), 32);
  ThreadPool pool(2);
  RippleEngine engine(model, graph, features, &pool, {.num_shards = 4});

  VertexId u = 1;
  while (graph.has_edge(u, 2) || u == 2) ++u;
  const std::vector<float> row0 = {0.5f, -0.25f, 1.0f, 0.0f, -1.0f, 0.75f};
  const std::vector<GraphUpdate> sparse = {
      GraphUpdate::edge_add(u, 2), GraphUpdate::vertex_feature(0, row0)};
  engine.apply_batch(sparse);
  graph.add_edge(u, 2);
  std::copy(row0.begin(), row0.end(), features.row(0).begin());
  EXPECT_LT(testing::max_store_diff(
                engine.embeddings(),
                testing::full_inference_truth(model, graph, features)),
            1e-4f);

  const Matrix fresh = testing::random_features(400, 6, 33);
  std::vector<GraphUpdate> dense;
  for (VertexId v = 0; v < 400; ++v) {
    const auto row = fresh.row(v);
    dense.push_back(GraphUpdate::vertex_feature(
        v, std::vector<float>(row.begin(), row.end())));
  }
  engine.apply_batch(dense);
  EXPECT_LT(testing::max_store_diff(
                engine.embeddings(),
                testing::full_inference_truth(model, graph, fresh)),
            1e-4f);
}

TEST(RippleEngine, DensePullCreatesCellsOnlyForSenderTargets) {
  // 300 vertices: F = [0, 10) get new features; every F vertex feeds all of
  // A = [10, 100); each A vertex feeds 10 of B = [100, 200); C = [250, 280)
  // hears only from D = [200, 250), which never changes; D, F and
  // E = [280, 300) have in-degree 0. Hop 1's senders are A ∪ F (the self
  // channel adds F), whose out-edges are 1800 of the 1890, so hop 1 pulls
  // and walks every target — C, D and E too.
  constexpr VertexId kN = 300;
  DynamicGraph graph(kN);
  for (VertexId f = 0; f < 10; ++f) {
    for (VertexId a = 10; a < 100; ++a) graph.add_edge(f, a);
  }
  Rng rng(41);
  for (VertexId a = 10; a < 100; ++a) {
    while (graph.out_degree(a) < 10) {
      const auto b = static_cast<VertexId>(100 + rng.next_u64() % 100);
      if (!graph.has_edge(a, b)) graph.add_edge(a, b);
    }
  }
  for (VertexId c = 250; c < 280; ++c) {
    for (VertexId k = 0; k < 3; ++k) graph.add_edge(200 + (c + 17 * k) % 50, c);
  }
  const Matrix features = testing::random_features(kN, 6, 42);
  const Matrix fresh = testing::random_features(10, 6, 43);
  const auto model =
      GnnModel::random(workload_config(Workload::gs_s, 6, 3, 2, 8), 44);
  ASSERT_TRUE(model.layer(0).uses_self());
  ASSERT_TRUE(model.layer(1).uses_self());

  std::vector<GraphUpdate> batch;
  Matrix updated = features;
  for (VertexId f = 0; f < 10; ++f) {
    const auto row = fresh.row(f);
    batch.push_back(GraphUpdate::vertex_feature(
        f, std::vector<float>(row.begin(), row.end())));
    std::copy(row.begin(), row.end(), updated.row(f).begin());
  }

  // The hop sets, counted from the graph alone: each hop holds its
  // senders' out-neighbors plus (self channel) the senders themselves.
  const auto next_hop = [&](const std::vector<VertexId>& senders) {
    std::vector<VertexId> hop = senders;
    for (const VertexId u : senders) {
      for (const Neighbor& nb : graph.out_neighbors(u)) hop.push_back(nb.vertex);
    }
    std::sort(hop.begin(), hop.end());
    hop.erase(std::unique(hop.begin(), hop.end()), hop.end());
    return hop;
  };
  std::vector<VertexId> hop0(10);
  std::iota(hop0.begin(), hop0.end(), 0u);
  const std::vector<VertexId> hop1 = next_hop(hop0);
  const std::vector<VertexId> hop2 = next_hop(hop1);
  ASSERT_EQ(hop1.size(), 100u);
  ASSERT_EQ(hop2.size(), 200u);
  std::size_t hop1_messages = 0;
  for (const VertexId u : hop1) hop1_messages += graph.out_degree(u);
  ASSERT_GT(hop1_messages * 10, graph.num_edges() * 4);  // a pull hop

  const auto truth = testing::full_inference_truth(model, graph, updated);
  ThreadPool pool(2);
  for (const auto& [threads, shards] :
       {std::pair<ThreadPool*, std::size_t>{nullptr, 1}, {&pool, 4},
        {&pool, 7}}) {
    SCOPED_TRACE(shards);
    RippleEngine engine(model, graph, features, threads,
                        {.num_shards = shards});
    BatchResult result = engine.apply_batch(batch);
    std::sort(result.final_rows.begin(), result.final_rows.end());
    EXPECT_EQ(result.final_rows, hop2);
    EXPECT_EQ(result.propagation_tree_size, hop1.size() + hop2.size());
    EXPECT_LT(testing::max_store_diff(engine.embeddings(), truth), 1e-4f);
  }
}

// Small batches on a graph of out-degree ~2 keep every hop's sender
// out-edges under the pull threshold (kPullFraction = 0.15 of |E|), so
// every hop pushes. The cross-shard buckets and their drains must then be
// bit-identical for any shard and thread count.
TEST(RippleEngine, PushHopsBitIdenticalForAnyShardAndThreadCount) {
  constexpr VertexId kN = 20000;
  constexpr VertexId kHubs = 1000;
  constexpr std::size_t kBatch = 16;
  DynamicGraph graph(kN);
  Rng rng(51);
  const auto random_vertex = [&] {
    return static_cast<VertexId>(rng.next_below(kN));
  };
  // Vertex u >= kHubs feeds hub u % kHubs, so hub g's in-neighbours
  // g + k·kHubs lie in every shard's id range.
  for (VertexId u = 0; u < kN; ++u) {
    if (u >= kHubs) graph.add_edge(u, u % kHubs);
    while (graph.out_degree(u) < 2) graph.add_edge(u, random_vertex());
  }
  // Each batch adds edges into in-neighbours of one hub, whose hop-2 cell
  // then sums Δh rows from many sender blocks.
  DynamicGraph working = graph;
  std::vector<std::vector<GraphUpdate>> batches(8);
  for (auto& batch : batches) {
    const VertexId hub = random_vertex() % kHubs;
    while (batch.size() < kBatch) {
      const VertexId u = random_vertex();
      const VertexId v = hub + kHubs * (random_vertex() % (kN / kHubs));
      if (working.add_edge(u, v)) batch.push_back(GraphUpdate::edge_add(u, v));
    }
  }
  // From the graph alone (edges only grow), for 3 layers: hop 1 holds at
  // most the batch's targets, hop l+1 at most those plus hop l's senders
  // and their out-neighbours.
  std::size_t max_out = 0;
  for (VertexId u = 0; u < kN; ++u) {
    max_out = std::max(max_out, working.out_degree(u));
  }
  const std::size_t hop2 = kBatch + kBatch * (1 + max_out);
  const std::size_t max_tree = kBatch + hop2 + kBatch + hop2 * (1 + max_out);
  ASSERT_LT(100 * max_tree * max_out, 15 * graph.num_edges());

  const Matrix features = testing::random_features(kN, 6, 52);
  const auto model =
      GnnModel::random(workload_config(Workload::gs_s, 6, 3, 3, 8), 53);
  ThreadPool pool(3);
  std::vector<std::unique_ptr<RippleEngine>> engines;
  for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (const std::size_t shards : {1, 2, 8}) {
      engines.push_back(std::make_unique<RippleEngine>(
          model, graph, features, threads, RippleOptions{shards}));
    }
  }
  for (const auto& batch : batches) {
    for (const auto& engine : engines) {
      engine->apply_batch(batch);
      EXPECT_EQ(testing::max_store_diff(engine->embeddings(),
                                        engines[0]->embeddings()),
                0.0f)
          << engine->num_shards() << " shards";
    }
  }
}

}  // namespace
}  // namespace ripple
