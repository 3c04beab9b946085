// End-to-end pipeline tests spanning every subsystem: dataset generation →
// training → snapshot/stream split → serving (single-machine and
// distributed) → exactness and consistency checks. These are the "does the
// whole product work" tests a release would gate on.
#include <gtest/gtest.h>

#include "../test_util.h"
#include "core/serving.h"
#include "dist/dist_engine.h"
#include "gnn/loss.h"
#include "gnn/trainer.h"
#include "graph/datasets.h"
#include "partition/partition.h"
#include "stream/generator.h"

namespace ripple {
namespace {

TEST(EndToEnd, TrainedModelServedIncrementally) {
  // 1. Data + training.
  auto ds = build_sbm_dataset(300, 4, 12, 8.0, 8.0, 1.0, 201);
  auto config = workload_config(Workload::gc_s, 12, 4, 2, 16);
  auto model = GnnModel::random(config, 202);
  TrainConfig train_config;
  train_config.epochs = 50;
  const auto trained =
      train_full_batch(model, ds.graph, ds.features, ds.labels, train_config);
  ASSERT_GT(trained.test_accuracy, 0.5);

  // 2. Snapshot + stream per the paper's protocol.
  StreamConfig stream_config;
  stream_config.num_updates = 150;
  stream_config.feat_dim = 12;
  stream_config.seed = 203;
  const auto stream = generate_stream(ds.graph, stream_config);

  // 3. Trigger-based serving over the trained model.
  StreamingServer::Options options;
  options.batch_size = 10;
  StreamingServer server(
      make_engine("ripple", model, ds.graph, ds.features), options);
  std::size_t flips = 0;
  server.set_label_callback(
      [&](VertexId, std::uint32_t, std::uint32_t) { ++flips; });
  auto truth_graph = ds.graph;
  Matrix truth_features = ds.features;
  for (const auto& update : stream) {
    switch (update.kind) {
      case UpdateKind::edge_add:
        truth_graph.add_edge(update.u, update.v, update.weight);
        break;
      case UpdateKind::edge_del:
        truth_graph.remove_edge(update.u, update.v);
        break;
      case UpdateKind::vertex_feature:
        vec_copy(update.new_features, truth_features.row(update.u));
        break;
    }
    server.submit(update);
  }
  server.flush();
  EXPECT_EQ(flips, server.stats().label_changes);
  EXPECT_EQ(server.stats().updates_processed, stream.size());

  // 4. Served labels match a from-scratch recompute of the evolved graph.
  const auto truth =
      testing::full_inference_truth(model, truth_graph, truth_features);
  std::size_t mismatches = 0;
  for (VertexId v = 0; v < truth_graph.num_vertices(); ++v) {
    if (server.label(v) != argmax_row(truth.logits().row(v))) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(EndToEnd, SingleMachineAndDistributedAgree) {
  auto ds = build_dataset("arxiv-s", 0.02, 204);
  StreamConfig stream_config;
  stream_config.num_updates = 120;
  stream_config.feat_dim = ds.spec.feat_dim;
  stream_config.seed = 205;
  const auto stream = generate_stream(ds.graph, stream_config);
  const auto config = workload_config(Workload::gs_s, ds.spec.feat_dim,
                                      ds.spec.num_classes, 2, 16);
  const auto model = GnnModel::random(config, 206);

  auto local = make_engine("ripple", model, ds.graph, ds.features);
  auto partition = ldg_partition(ds.graph, 3);
  auto dist =
      make_dist_engine("ripple", model, ds.graph, ds.features, partition);

  for (const auto& batch : make_batches(stream, 12)) {
    local->apply_batch(batch);
    dist->apply_batch(batch);
  }
  EXPECT_LT(testing::max_store_diff(local->embeddings(),
                                    dist->gather_embeddings()),
            1e-3f);
}

TEST(EndToEnd, AllEnginesAgreeWithEachOther) {
  auto ds = build_dataset("arxiv-s", 0.015, 207);
  StreamConfig stream_config;
  stream_config.num_updates = 60;
  stream_config.feat_dim = ds.spec.feat_dim;
  stream_config.seed = 208;
  const auto stream = generate_stream(ds.graph, stream_config);
  const auto config = workload_config(Workload::gc_m, ds.spec.feat_dim,
                                      ds.spec.num_classes, 2, 16);
  const auto model = GnnModel::random(config, 209);

  std::vector<std::unique_ptr<InferenceEngine>> engines;
  for (const char* key : {"ripple", "rc", "drc"}) {
    engines.push_back(make_engine(key, model, ds.graph, ds.features));
  }
  for (const auto& batch : make_batches(stream, 10)) {
    for (auto& engine : engines) engine->apply_batch(batch);
  }
  for (std::size_t i = 1; i < engines.size(); ++i) {
    EXPECT_LT(testing::max_store_diff(engines[0]->embeddings(),
                                      engines[i]->embeddings()),
              1e-3f)
        << engines[i]->name();
  }
}

TEST(EndToEnd, ThroughputOrderingRippleFastest) {
  // Comparative smoke in the regime where incrementality is structural: a
  // high-in-degree graph (Reddit-like), where recompute pays k aggregation
  // ops per affected vertex vs Ripple's k'. On low-degree graphs the
  // per-vertex GEMV dominates both engines and the gap shrinks (see
  // EXPERIMENTS.md); here it must be decisive.
  auto ds = build_dataset("reddit-s", 0.25, 210);
  StreamConfig stream_config;
  stream_config.num_updates = 60;
  stream_config.feat_dim = ds.spec.feat_dim;
  stream_config.seed = 211;
  const auto stream = generate_stream(ds.graph, stream_config);
  const auto config = workload_config(Workload::gc_s, ds.spec.feat_dim,
                                      ds.spec.num_classes, 2, 32);
  const auto model = GnnModel::random(config, 212);

  double ripple_sec = 0;
  double drc_sec = 0;
  {
    auto engine = make_engine("ripple", model, ds.graph, ds.features);
    for (const auto& batch : make_batches(stream, 1)) {
      const auto result = engine->apply_batch(batch);
      ripple_sec += result.total_sec();
    }
  }
  {
    auto engine = make_engine("drc", model, ds.graph, ds.features);
    for (const auto& batch : make_batches(stream, 1)) {
      const auto result = engine->apply_batch(batch);
      drc_sec += result.total_sec();
    }
  }
  EXPECT_LT(ripple_sec * 5, drc_sec);
}

}  // namespace
}  // namespace ripple
