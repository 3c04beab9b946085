#include "infer/layerwise.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "common/scheduler.h"
#include "common/thread_pool.h"
#include "graph/csr.h"
#include "infer/engine.h"

namespace ripple {
namespace {

TEST(Layerwise, MatchesManualTwoLayerSum) {
  // Tiny path graph 0 -> 1 -> 2 with GC-S, hand-checkable.
  DynamicGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  auto config = workload_config(Workload::gc_s, 2, 2, 2, 2);
  auto model = GnnModel::random(config, 1);
  // Overwrite weights with identity-ish matrices for hand computation.
  auto& l0 = std::get<GraphConvParams>(model.mutable_layer(0).mutable_params());
  l0.weight = Matrix::from_rows(2, 2, {1, 0, 0, 1});
  l0.bias = Matrix(1, 2);
  auto& l1 = std::get<GraphConvParams>(model.mutable_layer(1).mutable_params());
  l1.weight = Matrix::from_rows(2, 2, {1, 0, 0, 1});
  l1.bias = Matrix(1, 2);

  const Matrix features = Matrix::from_rows(3, 2, {1, 2, 3, 4, 5, 6});
  EmbeddingStore store(config, 3);
  store.features() = features;
  layerwise_full_inference(model, g, store);
  // h1 = relu(sum of in-neighbors' features): v0: none => 0; v1: f0; v2: f1.
  EXPECT_FLOAT_EQ(store.layer(1).at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(store.layer(1).at(1, 0), 1.0f);
  EXPECT_FLOAT_EQ(store.layer(1).at(1, 1), 2.0f);
  EXPECT_FLOAT_EQ(store.layer(1).at(2, 0), 3.0f);
  // h2 (logits, no relu): v2 aggregates h1 of v1 = (1,2).
  EXPECT_FLOAT_EQ(store.logits().at(2, 0), 1.0f);
  EXPECT_FLOAT_EQ(store.logits().at(2, 1), 2.0f);
  // v0 has no in-neighbors at any hop.
  EXPECT_FLOAT_EQ(store.logits().at(0, 0), 0.0f);
}

TEST(Layerwise, CsrAndDynamicAgree) {
  const auto g = testing::random_graph(40, 200, 5);
  const auto features = testing::random_features(40, 8, 6);
  const auto config = workload_config(Workload::gs_s, 8, 4, 3, 8);
  const auto model = GnnModel::random(config, 2);
  EmbeddingStore store_dyn(config, 40);
  store_dyn.features() = features;
  layerwise_full_inference(model, g, store_dyn);
  const auto csr = Csr::from_graph(g);
  EmbeddingStore store_csr(config, 40);
  store_csr.features() = features;
  layerwise_full_inference(model, csr, store_csr);
  EXPECT_LT(testing::max_store_diff(store_dyn, store_csr), 1e-5f);
}

TEST(Layerwise, AllFiveWorkloadsRun) {
  const auto g = testing::random_graph(30, 150, 7, /*weighted=*/true);
  const auto features = testing::random_features(30, 6, 8);
  for (Workload w : all_workloads()) {
    const auto config = workload_config(w, 6, 3, 2, 8);
    const auto model = GnnModel::random(config, 3);
    EmbeddingStore store(config, 30);
    store.features() = features;
    EXPECT_NO_THROW(layerwise_full_inference(model, g, store))
        << workload_name(w);
    // Logits must be finite.
    for (std::size_t i = 0; i < store.logits().size(); ++i) {
      EXPECT_TRUE(std::isfinite(store.logits().data()[i]));
    }
  }
}

TEST(Layerwise, DeterministicAcrossRuns) {
  const auto g = testing::random_graph(25, 100, 9);
  const auto features = testing::random_features(25, 5, 10);
  const auto config = workload_config(Workload::gc_m, 5, 3, 2, 6);
  const auto model = GnnModel::random(config, 4);
  EmbeddingStore a(config, 25);
  a.features() = features;
  layerwise_full_inference(model, g, a);
  EmbeddingStore b(config, 25);
  b.features() = features;
  layerwise_full_inference(model, g, b);
  EXPECT_EQ(testing::max_store_diff(a, b), 0.0f);
}

TEST(Layerwise, PooledBootstrapIsBitIdenticalForEveryEngine) {
  // 600 rows: every Update GEMM is past the 128-row threshold, so the
  // scheduler over a pool really splits it into stealable row blocks.
  const auto g = testing::random_graph(600, 3000, 11, /*weighted=*/true);
  const auto features = testing::random_features(600, 6, 12);
  ThreadPool pool(3);
  for (Workload w : all_workloads()) {
    SCOPED_TRACE(workload_name(w));
    const auto model = GnnModel::random(workload_config(w, 6, 3, 2, 8), 13);
    EmbeddingStore pooled(model.config(), 600);
    pooled.features() = features;
    WorkStealingScheduler scheduler(&pool);
    layerwise_full_inference(model, g, pooled, &scheduler);
    EXPECT_GT(scheduler.stats().tasks, 2 * model.num_layers());
    EXPECT_EQ(testing::max_store_diff(
                  pooled, testing::full_inference_truth(model, g, features)),
              0.0f);
    for (const char* key : {"ripple", "rc", "drc", "dnc"}) {
      EXPECT_EQ(testing::max_store_diff(
                    make_engine(key, model, g, features)->embeddings(),
                    make_engine(key, model, g, features, &pool)->embeddings()),
                0.0f)
          << key;
    }
  }
}

}  // namespace
}  // namespace ripple
