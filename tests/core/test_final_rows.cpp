// The BatchResult::final_rows contract (infer/engine.h), property-tested
// over every single-machine engine on seeded adversarial streams:
//   * every H^L row a batch changes bitwise is listed in final_rows;
//   * the list has no repeats and no id outside the graph, and its length
//     is affected_final;
//   * StreamingServer, which re-derives labels from those rows only, fires
//     exactly the (vertex, old, new) callbacks a full scan of every vertex
//     would report, in the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "../test_util.h"
#include "common/thread_pool.h"
#include "core/ripple_engine.h"
#include "core/serving.h"

namespace ripple {
namespace {

// Vertices [kConnected, kVertices) never get an edge: feature updates on
// them exercise the isolated-vertex path for the whole stream.
constexpr std::size_t kVertices = 48;
constexpr std::size_t kConnected = 40;
constexpr std::size_t kFeatDim = 6;

struct Fixture {
  DynamicGraph graph;
  Matrix features;
  GnnModel model;
  std::vector<std::vector<GraphUpdate>> batches;
};

// A seeded stream that leans on the update operator's guards: duplicate
// adds, deletes of absent edges, a delete and re-add of the same edge in
// one batch, self-loops, feature updates on isolated vertices, and empty
// batches.
std::vector<std::vector<GraphUpdate>> adversarial_stream(
    const DynamicGraph& start, std::uint64_t seed) {
  Rng rng(seed);
  DynamicGraph mirror = start;  // tracks existing edges to pick from
  const auto connected = [&] {
    return static_cast<VertexId>(rng.next_below(kConnected));
  };
  const auto features = [&] {
    std::vector<float> row(kFeatDim);
    for (float& x : row) x = rng.next_float(-1.0f, 1.0f);
    return row;
  };
  const auto existing_edge = [&]() -> std::pair<VertexId, VertexId> {
    for (;;) {
      const VertexId u = connected();
      const auto out = mirror.out_neighbors(u);
      if (!out.empty()) return {u, out[rng.next_below(out.size())].vertex};
    }
  };
  std::vector<std::vector<GraphUpdate>> batches(40);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    std::vector<GraphUpdate>& batch = batches[b];
    if (b % 7 == 3) continue;  // empty batch
    const std::size_t size = 1 + rng.next_below(8);
    while (batch.size() < size) {
      switch (rng.next_below(7)) {
        case 0:
          batch.push_back(GraphUpdate::edge_add(connected(), connected()));
          break;
        case 1: {  // duplicate of an edge that already exists
          const auto [u, v] = existing_edge();
          batch.push_back(GraphUpdate::edge_add(u, v));
          break;
        }
        case 2: {  // delete, then re-add, in the same batch
          const auto [u, v] = existing_edge();
          batch.push_back(GraphUpdate::edge_del(u, v));
          batch.push_back(GraphUpdate::edge_add(u, v, 0.5f));
          break;
        }
        case 3:  // usually absent: deleting it must be a no-op
          batch.push_back(GraphUpdate::edge_del(connected(), connected()));
          break;
        case 4: {
          const VertexId u = connected();
          batch.push_back(rng.next_below(2) == 0 ? GraphUpdate::edge_add(u, u)
                                                 : GraphUpdate::edge_del(u, u));
          break;
        }
        case 5: {
          const auto isolated = static_cast<VertexId>(
              kConnected + rng.next_below(kVertices - kConnected));
          batch.push_back(GraphUpdate::vertex_feature(isolated, features()));
          break;
        }
        default:
          batch.push_back(GraphUpdate::vertex_feature(connected(), features()));
          break;
      }
    }
    for (const GraphUpdate& update : batch) {
      if (update.kind == UpdateKind::edge_add) {
        mirror.add_edge(update.u, update.v, update.weight);
      } else if (update.kind == UpdateKind::edge_del) {
        mirror.remove_edge(update.u, update.v);
      }
    }
  }
  return batches;
}

Fixture make_fixture(Workload workload, std::size_t num_layers,
                     std::uint64_t seed) {
  DynamicGraph graph(kVertices);
  Rng rng(seed);
  while (graph.num_edges() < 160) {
    const auto u = static_cast<VertexId>(rng.next_below(kConnected));
    const auto v = static_cast<VertexId>(rng.next_below(kConnected));
    if (u != v) graph.add_edge(u, v);
  }
  auto batches = adversarial_stream(graph, seed + 3);
  return {std::move(graph),
          testing::random_features(kVertices, kFeatDim, seed + 1),
          GnnModel::random(
              workload_config(workload, kFeatDim, 3, num_layers, 8), seed + 2),
          std::move(batches)};
}

const std::vector<std::string> kEngines = {"ripple", "ripple-pool", "rc",
                                           "drc", "dnc"};

std::unique_ptr<InferenceEngine> build(const std::string& key,
                                       const Fixture& f, ThreadPool& pool) {
  if (key == "ripple-pool") {
    RippleOptions options;
    options.num_shards = 8;
    return std::make_unique<RippleEngine>(f.model, f.graph, f.features, &pool,
                                          options);
  }
  return make_engine(key, f.model, f.graph, f.features);
}

struct Config {
  Workload workload;
  std::size_t num_layers;
  std::uint64_t seed;
};

const std::vector<Config> kConfigs = {
    {Workload::gc_s, 2, 11}, {Workload::gs_s, 3, 23}, {Workload::gc_m, 2, 37}};

TEST(FinalRows, ListEveryRewrittenLogitsRowOnceAndInRange) {
  ThreadPool pool(2);
  for (const Config& config : kConfigs) {
    const Fixture f = make_fixture(config.workload, config.num_layers,
                                   config.seed);
    for (const std::string& key : kEngines) {
      SCOPED_TRACE(key + " / " + workload_name(config.workload));
      auto engine = build(key, f, pool);
      std::size_t changed_total = 0;
      for (std::size_t b = 0; b < f.batches.size(); ++b) {
        SCOPED_TRACE("batch " + std::to_string(b));
        const Matrix before = engine->embeddings().logits();
        const BatchResult result = engine->apply_batch(f.batches[b]);
        const Matrix& after = engine->embeddings().logits();

        std::vector<VertexId> rows = result.final_rows;
        std::sort(rows.begin(), rows.end());
        EXPECT_EQ(std::adjacent_find(rows.begin(), rows.end()), rows.end());
        EXPECT_TRUE(rows.empty() || rows.back() < kVertices);
        EXPECT_EQ(result.affected_final, rows.size());
        for (VertexId v = 0; v < kVertices; ++v) {
          if (std::memcmp(before.row(v).data(), after.row(v).data(),
                          before.cols() * sizeof(float)) == 0) {
            continue;
          }
          ++changed_total;
          EXPECT_TRUE(std::binary_search(rows.begin(), rows.end(), v))
              << "H^L row " << v << " changed but is not in final_rows";
        }
      }
      EXPECT_GT(changed_total, 0u);  // the stream really moves logits
    }
  }
}

using Flip = std::tuple<VertexId, std::uint32_t, std::uint32_t>;

TEST(FinalRows, ServerCallbacksMatchAFullScanObserver) {
  ThreadPool pool(2);
  for (const Config& config : kConfigs) {
    const Fixture f = make_fixture(config.workload, config.num_layers,
                                   config.seed);
    for (const std::string& key : kEngines) {
      SCOPED_TRACE(key + " / " + workload_name(config.workload));
      StreamingServer::Options options;
      options.batch_size = 1000;  // every batch flushes explicitly below
      options.adaptive_options.flush_after_sec = 0;
      StreamingServer server(build(key, f, pool), options);
      std::vector<Flip> notified;
      server.set_label_callback(
          [&](VertexId v, std::uint32_t old_label, std::uint32_t new_label) {
            notified.emplace_back(v, old_label, new_label);
          });

      // Reference: diff every vertex's label after every batch.
      const EmbeddingStore& store = server.engine().embeddings();
      std::vector<std::uint32_t> seen(kVertices);
      for (VertexId v = 0; v < kVertices; ++v) {
        seen[v] = store.predicted_label(v);
      }
      std::vector<Flip> expected;
      for (const auto& batch : f.batches) {
        for (const GraphUpdate& update : batch) server.submit(update);
        server.flush();
        for (VertexId v = 0; v < kVertices; ++v) {
          const std::uint32_t fresh = store.predicted_label(v);
          if (fresh != seen[v]) expected.emplace_back(v, seen[v], fresh);
          seen[v] = fresh;
        }
        ASSERT_EQ(notified, expected);
      }
      EXPECT_EQ(server.stats().label_changes, expected.size());
      EXPECT_GT(expected.size(), 0u);  // the stream really flips labels
    }
  }
}

}  // namespace
}  // namespace ripple
