#include "core/serving.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "dist/transport_error.h"

namespace ripple {
namespace {

StreamingServer make_server(std::size_t batch_size, bool adaptive = false) {
  auto graph = testing::random_graph(40, 250, 91);
  const auto features = testing::random_features(40, 6, 92);
  const auto config = workload_config(Workload::gc_s, 6, 3, 2, 8);
  const auto model = GnnModel::random(config, 93);
  StreamingServer::Options options;
  options.batch_size = batch_size;
  options.adaptive = adaptive;
  return StreamingServer(make_engine("ripple", model, graph, features),
                         options);
}

TEST(StreamingServer, BuffersUntilBatchFull) {
  auto server = make_server(3);
  EXPECT_EQ(server.submit(GraphUpdate::edge_add(0, 5)), 0u);
  EXPECT_EQ(server.submit(GraphUpdate::edge_add(1, 6)), 0u);
  // Third submit fills the batch and applies all three.
  EXPECT_EQ(server.submit(GraphUpdate::edge_add(2, 7)), 3u);
  EXPECT_EQ(server.stats().batches_processed, 1u);
  EXPECT_EQ(server.stats().updates_processed, 3u);
}

TEST(StreamingServer, FlushAppliesPartialBatch) {
  auto server = make_server(100);
  server.submit(GraphUpdate::edge_add(0, 5));
  server.submit(GraphUpdate::edge_add(1, 6));
  EXPECT_EQ(server.flush(), 2u);
  EXPECT_EQ(server.flush(), 0u);  // nothing pending
}

TEST(StreamingServer, LabelLookupTracksEngine) {
  auto server = make_server(1);
  for (VertexId v = 0; v < 40; ++v) {
    EXPECT_EQ(server.label(v), server.engine().embeddings().predicted_label(v));
  }
}

TEST(StreamingServer, LabelLookupOutsideTheGraphIsACheckError) {
  // Used to read past the logits matrix through the unchecked Matrix::row.
  auto server = make_server(1);
  EXPECT_EQ(server.label(39),
            server.engine().embeddings().predicted_label(39));
  EXPECT_THROW(server.label(40), check_error);
  EXPECT_THROW(server.label(kInvalidVertex), check_error);
}

TEST(StreamingServer, CallbackFiresOnLabelFlips) {
  auto graph = testing::random_graph(30, 200, 94);
  const auto features = testing::random_features(30, 6, 95);
  const auto config = workload_config(Workload::gc_s, 6, 3, 2, 8);
  const auto model = GnnModel::random(config, 96);
  StreamingServer::Options options;
  options.batch_size = 5;
  StreamingServer server(make_engine("ripple", model, graph, features),
                         options);
  std::size_t notified = 0;
  server.set_label_callback(
      [&](VertexId, std::uint32_t old_label, std::uint32_t new_label) {
        EXPECT_NE(old_label, new_label);
        ++notified;
      });
  // Churn enough topology that some label flips occur.
  Rng rng(97);
  for (int i = 0; i < 60; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(30));
    const auto v = static_cast<VertexId>(rng.next_below(30));
    if (u == v) continue;
    server.submit(GraphUpdate::edge_add(u, v));
  }
  server.flush();
  EXPECT_EQ(notified, server.stats().label_changes);
  EXPECT_GT(server.stats().updates_processed, 0u);
}

TEST(StreamingServer, LabelsStayConsistentWithGroundTruth) {
  auto graph = testing::random_graph(25, 150, 98);
  const auto features = testing::random_features(25, 5, 99);
  const auto config = workload_config(Workload::gs_s, 5, 3, 2, 8);
  const auto model = GnnModel::random(config, 100);
  StreamingServer::Options options;
  options.batch_size = 4;
  StreamingServer server(make_engine("ripple", model, graph, features),
                         options);
  auto truth_graph = graph;
  Rng rng(101);
  for (int i = 0; i < 24; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(25));
    const auto v = static_cast<VertexId>(rng.next_below(25));
    if (u == v) continue;
    if (truth_graph.has_edge(u, v)) {
      server.submit(GraphUpdate::edge_del(u, v));
      truth_graph.remove_edge(u, v);
    } else {
      server.submit(GraphUpdate::edge_add(u, v));
      truth_graph.add_edge(u, v);
    }
  }
  server.flush();
  const auto truth = testing::full_inference_truth(model, truth_graph,
                                                   features);
  for (VertexId v = 0; v < 25; ++v) {
    EXPECT_EQ(server.label(v), argmax_row(truth.logits().row(v))) << v;
  }
}

TEST(StreamingServer, AdaptiveModeAppliesEverything) {
  auto server = make_server(1, /*adaptive=*/true);
  for (int i = 0; i < 20; ++i) {
    server.submit(GraphUpdate::edge_add(static_cast<VertexId>(i % 10),
                                        static_cast<VertexId>(20 + i % 10)));
  }
  server.flush();
  EXPECT_EQ(server.stats().updates_processed, 20u);
  EXPECT_GT(server.stats().batches_processed, 0u);
}

// ---- trickle-starvation regression: flush_after_sec must be honored ----
// (It used to be dead in the serving path: a stream slower than the batch
// threshold sat in pending_ forever.)

StreamingServer make_clocked_server(StreamingServer::Options options) {
  auto graph = testing::random_graph(40, 250, 91);
  const auto features = testing::random_features(40, 6, 92);
  const auto config = workload_config(Workload::gc_s, 6, 3, 2, 8);
  const auto model = GnnModel::random(config, 93);
  return StreamingServer(make_engine("ripple", model, graph, features),
                         options);
}

TEST(StreamingServer, AdaptiveTrickleFlushesByAgeOnSubmit) {
  double fake_now = 100.0;
  StreamingServer::Options options;
  options.adaptive = true;
  options.adaptive_options.min_batch = 10;  // size threshold never reached
  options.adaptive_options.flush_after_sec = 0.25;
  options.clock = [&] { return fake_now; };
  auto server = make_clocked_server(options);

  EXPECT_EQ(server.submit(GraphUpdate::edge_add(0, 5)), 0u);
  fake_now += 0.10;
  EXPECT_EQ(server.submit(GraphUpdate::edge_add(1, 6)), 0u);
  fake_now += 0.20;  // oldest pending is now 0.30s old > 0.25s deadline
  EXPECT_EQ(server.submit(GraphUpdate::edge_add(2, 7)), 3u);
  EXPECT_EQ(server.stats().batches_processed, 1u);
  // The age window restarts with the next pending update.
  EXPECT_EQ(server.submit(GraphUpdate::edge_add(3, 8)), 0u);
}

TEST(StreamingServer, PollFlushesIdleAdaptiveStream) {
  double fake_now = 5.0;
  StreamingServer::Options options;
  options.adaptive = true;
  options.adaptive_options.min_batch = 10;
  options.adaptive_options.flush_after_sec = 0.25;
  options.clock = [&] { return fake_now; };
  auto server = make_clocked_server(options);

  server.submit(GraphUpdate::edge_add(0, 5));
  server.submit(GraphUpdate::edge_add(1, 6));
  EXPECT_EQ(server.poll(), 0u);  // too young
  fake_now += 0.24;
  EXPECT_EQ(server.poll(), 0u);  // still inside the deadline
  fake_now += 0.02;
  EXPECT_EQ(server.poll(), 2u);  // past it: the trickle applies
  EXPECT_EQ(server.poll(), 0u);  // nothing pending
  EXPECT_EQ(server.stats().updates_processed, 2u);
}

TEST(StreamingServer, PollFlushesIdleFixedStreamToo) {
  double fake_now = 1.0;
  StreamingServer::Options options;
  options.batch_size = 100;  // trickle far below the fixed threshold
  options.adaptive_options.flush_after_sec = 0.5;
  options.clock = [&] { return fake_now; };
  auto server = make_clocked_server(options);

  server.submit(GraphUpdate::edge_add(0, 5));
  EXPECT_EQ(server.poll(), 0u);
  fake_now += 0.51;
  EXPECT_EQ(server.poll(), 1u);
  EXPECT_EQ(server.stats().batches_processed, 1u);
}

TEST(StreamingServer, ZeroFlushAfterDisablesTheTrickleGuard) {
  double fake_now = 0.0;
  StreamingServer::Options options;
  options.batch_size = 3;
  options.adaptive_options.flush_after_sec = 0;  // pure size-based batching
  options.clock = [&] { return fake_now; };
  auto server = make_clocked_server(options);

  EXPECT_EQ(server.submit(GraphUpdate::edge_add(0, 5)), 0u);
  fake_now += 1e6;  // arbitrarily old pending must NOT flush
  EXPECT_EQ(server.submit(GraphUpdate::edge_add(1, 6)), 0u);
  EXPECT_EQ(server.poll(), 0u);
  EXPECT_EQ(server.submit(GraphUpdate::edge_add(2, 7)), 3u);  // size only
}

TEST(StreamingServer, AgeWindowStartsAtFirstPendingNotLastSubmit) {
  double fake_now = 0.0;
  StreamingServer::Options options;
  options.batch_size = 100;
  options.adaptive_options.flush_after_sec = 0.25;
  options.clock = [&] { return fake_now; };
  auto server = make_clocked_server(options);

  server.submit(GraphUpdate::edge_add(0, 5));
  // Keep trickling just inside the deadline: the window is anchored at the
  // FIRST pending update, so the third submit must flush everything.
  fake_now += 0.15;
  EXPECT_EQ(server.submit(GraphUpdate::edge_add(1, 6)), 0u);
  fake_now += 0.15;
  EXPECT_EQ(server.submit(GraphUpdate::edge_add(2, 7)), 3u);
}

// ---- vertex-growth regression ----
// refresh_labels_and_notify() used to index labels_[v] for every vertex of
// the CURRENT graph while labels_ kept its construction-time size: an
// engine whose graph grows between batches made the diff loop read and
// write out of bounds. New vertices must be baselined to their current
// prediction without a spurious flip callback.

class GrowingStubEngine : public InferenceEngine {
 public:
  GrowingStubEngine()
      : model_(GnnModel::random(workload_config(Workload::gc_s, 2, 2, 2, 2),
                                7)),
        graph_(2), store_(model_.config(), 2) {
    set_label(0, 0);
    set_label(1, 0);
  }
  const char* name() const override { return "growing-stub"; }
  BatchResult apply_batch(UpdateBatch batch) override {
    // Every batch adds one vertex predicted as label 1; batch 2 also flips
    // vertex 0 from label 0 to 1.
    ++batches_;
    const std::size_t n = graph_.num_vertices() + 1;
    graph_ = DynamicGraph(n);
    store_ = EmbeddingStore(model_.config(), n);
    set_label(0, batches_ >= 2 ? 1 : 0);
    for (VertexId v = 2; v < n; ++v) set_label(v, 1);
    BatchResult result;
    result.batch_size = batch.size();
    // The store is rebuilt, so every row counts as rewritten.
    for (VertexId v = 0; v < n; ++v) result.final_rows.push_back(v);
    result.affected_final = n;
    return result;
  }
  const EmbeddingStore& embeddings() const override { return store_; }
  const DynamicGraph& graph() const override { return graph_; }
  const GnnModel& model() const override { return model_; }
  std::size_t memory_bytes() const override { return store_.bytes(); }

 private:
  void set_label(VertexId v, std::uint32_t label) {
    store_.logits().row(v)[label] = 1.0f;
  }
  GnnModel model_;
  DynamicGraph graph_;
  EmbeddingStore store_;
  std::size_t batches_ = 0;
};

TEST(StreamingServer, VertexGrowthBaselinesNewLabelsWithoutFlipCallbacks) {
  StreamingServer::Options options;
  options.batch_size = 1;
  StreamingServer server(std::make_unique<GrowingStubEngine>(), options);
  std::vector<VertexId> flipped;
  server.set_label_callback(
      [&](VertexId v, std::uint32_t old_label, std::uint32_t new_label) {
        flipped.push_back(v);
        EXPECT_EQ(old_label, 0u);
        EXPECT_EQ(new_label, 1u);
      });

  // Batch 1 grows 2 -> 3 vertices: the newcomer is immediately servable
  // but NOT reported as a flip (it has no old label to flip from).
  server.submit(GraphUpdate::edge_add(0, 1));
  EXPECT_TRUE(flipped.empty());
  EXPECT_EQ(server.stats().label_changes, 0u);
  EXPECT_EQ(server.label(2), 1u);

  // Batch 2 grows 3 -> 4 and flips vertex 0: exactly that one callback —
  // the batch-1 newcomer's baseline stuck, so it does not re-fire.
  server.submit(GraphUpdate::edge_add(0, 1));
  ASSERT_EQ(flipped.size(), 1u);
  EXPECT_EQ(flipped[0], 0u);
  EXPECT_EQ(server.stats().label_changes, 1u);
  EXPECT_EQ(server.label(3), 1u);
}

TEST(StreamingServer, WorksWithRecomputeEngineToo) {
  auto graph = testing::random_graph(20, 100, 102);
  const auto features = testing::random_features(20, 4, 103);
  const auto config = workload_config(Workload::gc_s, 4, 2, 2, 6);
  const auto model = GnnModel::random(config, 104);
  StreamingServer::Options options;
  options.batch_size = 2;
  StreamingServer server(make_engine("rc", model, graph, features), options);
  server.submit(GraphUpdate::edge_add(0, 10));
  EXPECT_EQ(server.submit(GraphUpdate::edge_add(1, 11)), 2u);
}

// ---- degradation (docs/fault_tolerance.md §4) ----
// One failed engine apply must not kill the server: it degrades, rejects
// further updates, and sheds lookups onto the last COMMITTED snapshot.

// Decorator over a real engine that throws a typed transport failure on its
// Nth apply — the shape of a distributed engine losing a peer mid-batch.
class FailingEngine : public InferenceEngine {
 public:
  FailingEngine(std::unique_ptr<InferenceEngine> inner,
                std::size_t fail_on_apply)
      : inner_(std::move(inner)), fail_on_apply_(fail_on_apply) {}
  const char* name() const override { return inner_->name(); }
  BatchResult apply_batch(UpdateBatch batch) override {
    if (++applies_ == fail_on_apply_) {
      throw TransportError(TransportErrorKind::kPeerLost,
                           "injected: rank 1 died mid-batch");
    }
    return inner_->apply_batch(batch);
  }
  const EmbeddingStore& embeddings() const override {
    return inner_->embeddings();
  }
  const DynamicGraph& graph() const override { return inner_->graph(); }
  const GnnModel& model() const override { return inner_->model(); }
  std::size_t memory_bytes() const override { return inner_->memory_bytes(); }

 private:
  std::unique_ptr<InferenceEngine> inner_;
  std::size_t fail_on_apply_;
  std::size_t applies_ = 0;
};

TEST(StreamingServer, DegradesOnEngineFailureAndShedsToCommittedLabels) {
  auto graph = testing::random_graph(40, 250, 91);
  const auto features = testing::random_features(40, 6, 92);
  const auto config = workload_config(Workload::gc_s, 6, 3, 2, 8);
  const auto model = GnnModel::random(config, 93);
  StreamingServer::Options options;
  options.batch_size = 2;
  StreamingServer server(
      std::make_unique<FailingEngine>(
          make_engine("ripple", model, graph, features), /*fail_on_apply=*/2),
      options);

  // Batch 1 applies cleanly; its labels are the last committed snapshot.
  server.submit(GraphUpdate::edge_add(0, 5));
  EXPECT_EQ(server.submit(GraphUpdate::edge_add(1, 6)), 2u);
  EXPECT_EQ(server.status(), ServeStatus::kOk);
  EXPECT_TRUE(server.fault().empty());
  std::vector<std::uint32_t> committed(40);
  for (VertexId v = 0; v < 40; ++v) committed[v] = server.label(v);

  // Batch 2's apply throws: the server degrades instead of dying, records
  // the failure, and counts the poisoned batch as rejected.
  server.submit(GraphUpdate::edge_add(2, 7));
  EXPECT_EQ(server.submit(GraphUpdate::edge_add(3, 8)), 0u);
  EXPECT_EQ(server.status(), ServeStatus::kDegraded);
  EXPECT_NE(server.fault().find("peer_lost"), std::string::npos);
  EXPECT_EQ(server.stats().updates_rejected, 2u);
  EXPECT_EQ(server.stats().batches_processed, 1u);
  EXPECT_EQ(server.stats().updates_processed, 2u);

  // Degraded: further submits are rejected without buffering...
  EXPECT_EQ(server.submit(GraphUpdate::edge_add(4, 9)), 0u);
  EXPECT_EQ(server.stats().updates_rejected, 3u);
  EXPECT_EQ(server.flush(), 0u);
  EXPECT_EQ(server.poll(), 0u);
  EXPECT_EQ(server.stats().batches_processed, 1u);

  // ...and lookups shed onto the batch-1 snapshot, bit-for-bit.
  for (VertexId v = 0; v < 40; ++v) {
    EXPECT_EQ(server.label(v), committed[v]) << v;
  }
}

}  // namespace
}  // namespace ripple
