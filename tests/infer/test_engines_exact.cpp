// The paper's central correctness claim: every engine (Ripple incremental,
// RC, DRC, exact DNC) keeps embeddings identical — within floating point —
// to a from-scratch layer-wise inference over the evolving graph, for all
// five workloads and all three update kinds.
#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <variant>

#include "../test_util.h"
#include "infer/engine.h"
#include "stream/generator.h"

namespace ripple {
namespace {

struct ExactCase {
  Workload workload;
  std::string engine;
  std::size_t num_layers;
};

std::string case_name(const ::testing::TestParamInfo<ExactCase>& info) {
  std::string name = workload_name(info.param.workload);
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name + "_" + info.param.engine + "_L" +
         std::to_string(info.param.num_layers);
}

class EnginesExact : public ::testing::TestWithParam<ExactCase> {};

TEST_P(EnginesExact, MatchesFullRecomputeUnderStream) {
  const auto& param = GetParam();
  const bool weighted = param.workload == Workload::gc_w;
  auto graph = testing::random_graph(80, 600, 13, weighted);
  const auto features = testing::random_features(80, 10, 14);
  const auto config = workload_config(param.workload, 10, 5,
                                      param.num_layers, 12);
  const auto model = GnnModel::random(config, 15);

  StreamConfig stream_config;
  stream_config.num_updates = 120;
  stream_config.feat_dim = 10;
  stream_config.seed = 16;
  const auto stream = generate_stream(graph, stream_config);

  auto engine = make_engine(param.engine, model, graph, features);
  auto truth_graph = graph;
  Matrix truth_features = features;

  const auto batches = make_batches(stream, 10);
  for (const auto& batch : batches) {
    engine->apply_batch(batch);
    // Evolve the ground-truth state identically.
    for (const auto& update : batch) {
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
    }
  }
  const auto truth =
      testing::full_inference_truth(model, truth_graph, truth_features);
  EXPECT_LT(testing::max_store_diff(engine->embeddings(), truth), 2e-3f);
  EXPECT_EQ(engine->graph().num_edges(), truth_graph.num_edges());
}

std::vector<ExactCase> all_cases() {
  std::vector<ExactCase> cases;
  for (Workload w : all_workloads()) {
    for (const char* engine : {"ripple", "rc", "drc"}) {
      cases.push_back({w, engine, 2});
    }
    cases.push_back({w, "ripple", 3});
    cases.push_back({w, "rc", 3});
  }
  // DNC is slow; cover it on two representative workloads.
  cases.push_back({Workload::gc_s, "dnc", 2});
  cases.push_back({Workload::gs_s, "dnc", 2});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloadsEngines, EnginesExact,
                         ::testing::ValuesIn(all_cases()), case_name);

// GnnModel::random zeroes every bias, so a layer that adds its bias at a
// different point of the Update chain agrees with one that does not; these
// biases make the association visible.
GnnModel with_random_biases(GnnModel model, std::uint64_t seed) {
  Rng rng(seed);
  const auto fill = [&](Matrix& bias) {
    for (float& b : bias.row(0)) b = rng.next_float(-0.5f, 0.5f);
  };
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    GnnLayer& layer = model.mutable_layer(l);
    std::visit(
        [&](auto& params) {
          if constexpr (std::is_same_v<std::decay_t<decltype(params)>,
                                       GinParams>) {
            fill(params.b1);
            fill(params.b2);
          } else {
            fill(params.bias);
          }
        },
        layer.mutable_params());
    layer.repack();
  }
  return model;
}

// RC, DRC and DNC rewrite each affected row with GnnLayer::update_row; the
// bootstrap and the layer-wise truth run update_matrix. Both associate the
// Update the same way (products from zero, summed, then the bias), and the
// recompute step aggregates like aggregate_all, so after a stream each
// recompute engine equals a from-scratch layer-wise pass over its own graph
// and features bit for bit, on every workload.
TEST(RecomputeEngines, BitExactToLayerwiseWithNonzeroBiases) {
  for (const Workload w : all_workloads()) {
    const bool weighted = w == Workload::gc_w;
    auto graph = testing::random_graph(400, 2400, 41, weighted);
    const auto features = testing::random_features(400, 10, 42);
    const auto model = with_random_biases(
        GnnModel::random(workload_config(w, 10, 5, 3, 12), 43), 44);
    StreamConfig stream_config;
    stream_config.num_updates = 300;
    stream_config.feat_dim = 10;
    stream_config.seed = 45;
    const auto stream = generate_stream(graph, stream_config);
    const auto batches = make_batches(stream, 10);
    for (const std::string key : {"rc", "drc", "dnc"}) {
      SCOPED_TRACE(std::string(workload_name(w)) + " " + key);
      auto engine = make_engine(key, model, graph, features);
      // DNC recomputes every affected vertex's whole 3-hop tree, ~100x
      // RC's cost here; its first 50 updates already run update_row on
      // every layer.
      const std::size_t num_batches = key == "dnc" ? 5 : batches.size();
      for (std::size_t b = 0; b < num_batches; ++b) {
        engine->apply_batch(batches[b]);
      }
      const auto truth = testing::full_inference_truth(
          model, engine->graph(), engine->embeddings().features());
      EXPECT_EQ(testing::max_store_diff(engine->embeddings(), truth), 0.0f);
    }
  }
}

TEST(EnginesFailureInjection, DuplicateAddAndMissingDeleteAreNoops) {
  auto graph = testing::random_graph(30, 150, 21);
  const auto features = testing::random_features(30, 6, 22);
  const auto config = workload_config(Workload::gc_s, 6, 3, 2, 8);
  const auto model = GnnModel::random(config, 23);
  for (const char* key : {"ripple", "rc", "drc"}) {
    auto engine = make_engine(key, model, graph, features);
    // Pick an existing edge and a non-edge.
    const auto existing = graph.edges().front();
    std::vector<GraphUpdate> batch = {
        GraphUpdate::edge_add(existing.src, existing.dst),  // duplicate
        GraphUpdate::edge_del(existing.dst, existing.src),  // likely absent
    };
    if (graph.has_edge(existing.dst, existing.src)) {
      batch.pop_back();
    }
    EXPECT_NO_THROW(engine->apply_batch(batch)) << key;
    const auto truth = testing::full_inference_truth(
        model, engine->graph(),
        engine->embeddings().features());
    EXPECT_LT(testing::max_store_diff(engine->embeddings(), truth), 1e-4f)
        << key;
  }
}

TEST(EnginesFailureInjection, EmptyBatchIsHarmless) {
  auto graph = testing::random_graph(20, 80, 24);
  const auto features = testing::random_features(20, 4, 25);
  const auto config = workload_config(Workload::gs_s, 4, 2, 2, 6);
  const auto model = GnnModel::random(config, 26);
  for (const char* key : {"ripple", "rc", "drc", "dnc"}) {
    auto engine = make_engine(key, model, graph, features);
    const std::vector<GraphUpdate> empty;
    const auto result = engine->apply_batch(empty);
    EXPECT_EQ(result.propagation_tree_size, 0u) << key;
    EXPECT_EQ(result.affected_final, 0u) << key;
  }
}

TEST(EnginesFailureInjection, SelfLoopUpdateStaysExact) {
  auto graph = testing::random_graph(25, 120, 27);
  const auto features = testing::random_features(25, 5, 28);
  const auto config = workload_config(Workload::gs_s, 5, 3, 2, 8);
  const auto model = GnnModel::random(config, 29);
  for (const char* key : {"ripple", "rc"}) {
    auto engine = make_engine(key, model, graph, features);
    std::vector<GraphUpdate> batch = {GraphUpdate::edge_add(7, 7)};
    engine->apply_batch(batch);
    batch = {GraphUpdate::edge_del(7, 7)};
    engine->apply_batch(batch);
    const auto truth = testing::full_inference_truth(model, graph, features);
    EXPECT_LT(testing::max_store_diff(engine->embeddings(), truth), 1e-4f)
        << key;
  }
}

TEST(EngineFactory, UnknownKeyThrows) {
  auto graph = testing::random_graph(5, 10, 1);
  const auto features = testing::random_features(5, 2, 2);
  const auto config = workload_config(Workload::gc_s, 2, 2, 1, 4);
  const auto model = GnnModel::random(config);
  EXPECT_THROW(make_engine("gpu", model, graph, features), check_error);
}

TEST(Engines, MemoryReportingNonZeroAndRippleLargest) {
  auto graph = testing::random_graph(50, 400, 31);
  const auto features = testing::random_features(50, 8, 32);
  const auto config = workload_config(Workload::gc_s, 8, 4, 3, 16);
  const auto model = GnnModel::random(config, 33);
  const auto ripple_engine = make_engine("ripple", model, graph, features);
  const auto rc_engine = make_engine("rc", model, graph, features);
  EXPECT_GT(ripple_engine->memory_bytes(), 0u);
  // Ripple pays for aggregate caches + mailboxes (§7.3 memory overhead).
  EXPECT_GT(ripple_engine->memory_bytes(), rc_engine->memory_bytes());
}

}  // namespace
}  // namespace ripple
