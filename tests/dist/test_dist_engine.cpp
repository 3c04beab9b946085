// Distributed runtime tests (src/dist):
//  1. Exactness property: dist engines are BIT-IDENTICAL to their
//     single-machine counterparts across num_parts ∈ {1, 2, 4} × thread
//     pool on/off, on an R-MAT stream with mixed add/delete/feature
//     batches — and the two dist engines agree with each other within FP
//     tolerance (incremental vs recompute rounding).
//  2. Transport accounting: wire counters match a hand-computed count on a
//     tiny 2-partition graph, for both the edge and the feature paths.
//  3. A single partition produces zero wire traffic.
//  4. Halo-cache invalidation: a boundary mutation refreshes the neighbor
//     partition's cached rows before the next read; a non-boundary mutation
//     ships nothing but routing; cut-edge deletion erases eagerly and
//     re-adding refills with the owner's current committed rows.
//  5. Memory scaling: one rank's resident state at P=4 is under half of
//     the P=1 footprint — adding ranks adds capacity.
#include <gtest/gtest.h>

#include "../test_util.h"
#include "common/thread_pool.h"
#include "core/ripple_engine.h"
#include "dist/dist_engine.h"
#include "dist/dist_ripple.h"
#include "dist/transport.h"
#include "infer/recompute.h"
#include "stream/generator.h"

namespace ripple {
namespace {

struct RmatCase {
  DynamicGraph snapshot;
  Matrix features;
  std::vector<GraphUpdate> stream;
};

RmatCase make_rmat_case(std::uint64_t seed) {
  Rng rng(seed);
  RmatCase c;
  c.snapshot = rmat(96, 640, 0.55, 0.2, 0.2, 0.05, rng);
  c.features = testing::random_features(c.snapshot.num_vertices(), 8, seed + 1);
  StreamConfig stream_config;
  stream_config.num_updates = 110;
  stream_config.feat_dim = 8;
  stream_config.seed = seed + 2;
  c.stream = generate_stream(c.snapshot, stream_config);
  return c;
}

TEST(DistExactness, BitIdenticalToSingleMachineForAnyPartsAndThreads) {
  for (const Workload workload :
       {Workload::gc_s, Workload::gs_s, Workload::gc_m}) {
    SCOPED_TRACE(workload_name(workload));
    auto c = make_rmat_case(77);
    const auto config = workload_config(workload, 8, 4, 2, 12);
    const auto model = GnnModel::random(config, 79);
    const auto batches = make_batches(c.stream, 9);

    RippleEngine ripple_ref(model, c.snapshot, c.features);
    RecomputeEngine rc_ref(model, c.snapshot, c.features);
    for (const auto& batch : batches) {
      ripple_ref.apply_batch(batch);
      rc_ref.apply_batch(batch);
    }

    for (const std::size_t num_parts : {1, 2, 4}) {
      auto partition = ldg_partition(c.snapshot, num_parts);
      refine_partition(c.snapshot, partition, 1);
      for (const bool use_pool : {false, true}) {
        SCOPED_TRACE(std::to_string(num_parts) + " parts, pool " +
                     (use_pool ? "on" : "off"));
        ThreadPool pool(3);
        ThreadPool* p = use_pool ? &pool : nullptr;
        auto dist_ripple = make_dist_engine("ripple", model, c.snapshot,
                                            c.features, partition, p);
        auto dist_rc =
            make_dist_engine("rc", model, c.snapshot, c.features, partition, p);
        for (const auto& batch : batches) {
          dist_ripple->apply_batch(batch);
          dist_rc->apply_batch(batch);
        }
        // Bit-identical to the single-machine counterparts...
        EXPECT_EQ(testing::max_store_diff(ripple_ref.embeddings(),
                                          dist_ripple->gather_embeddings()),
                  0.0f);
        EXPECT_EQ(testing::max_store_diff(rc_ref.embeddings(),
                                          dist_rc->gather_embeddings()),
                  0.0f);
        // ...and cross-engine agreement within FP tolerance.
        EXPECT_LT(testing::max_store_diff(dist_ripple->gather_embeddings(),
                                          dist_rc->gather_embeddings()),
                  1e-3f);
      }
    }
  }
}

TEST(DistExactness, BitIdenticalAcrossKernelModes) {
  // --kernels=scalar vs --kernels=auto across the distributed axis: a
  // scalar-mode single-machine reference must match auto-mode dist engines
  // bit-for-bit for every partition count and both engines (the kernel
  // subsystem's determinism contract composes with the dist runtime's
  // owner-computes bit-exactness).
  const KernelMode saved = kernel_mode();
  auto c = make_rmat_case(57);
  const auto config = workload_config(Workload::gs_s, 8, 4, 2, 13);
  const auto model = GnnModel::random(config, 59);
  const auto batches = make_batches(c.stream, 9);

  set_kernel_mode(KernelMode::kScalar);
  RippleEngine ripple_ref(model, c.snapshot, c.features);
  RecomputeEngine rc_ref(model, c.snapshot, c.features);
  for (const auto& batch : batches) {
    ripple_ref.apply_batch(batch);
    rc_ref.apply_batch(batch);
  }

  set_kernel_mode(KernelMode::kAuto);
  for (const std::size_t num_parts : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(num_parts) + " parts, kernels=auto (" +
                 kernel_isa_name(active_kernel_isa()) + ")");
    auto partition = ldg_partition(c.snapshot, num_parts);
    refine_partition(c.snapshot, partition, 1);
    auto dist_ripple = make_dist_engine("ripple", model, c.snapshot,
                                        c.features, partition);
    auto dist_rc =
        make_dist_engine("rc", model, c.snapshot, c.features, partition);
    for (const auto& batch : batches) {
      dist_ripple->apply_batch(batch);
      dist_rc->apply_batch(batch);
    }
    EXPECT_EQ(testing::max_store_diff(ripple_ref.embeddings(),
                                      dist_ripple->gather_embeddings()),
              0.0f);
    EXPECT_EQ(testing::max_store_diff(rc_ref.embeddings(),
                                      dist_rc->gather_embeddings()),
              0.0f);
  }
  set_kernel_mode(saved);
}

TEST(DistExactness, CountersMatchSingleMachine) {
  auto c = make_rmat_case(31);
  const auto config = workload_config(Workload::gs_s, 8, 4, 3, 10);
  const auto model = GnnModel::random(config, 33);
  RippleEngine ref(model, c.snapshot, c.features);
  const auto partition = ldg_partition(c.snapshot, 3);
  auto dist = make_dist_engine("ripple", model, c.snapshot, c.features,
                               partition);
  for (const auto& batch : make_batches(c.stream, 8)) {
    const BatchResult expected = ref.apply_batch(batch);
    const DistBatchResult got = dist->apply_batch(batch);
    EXPECT_EQ(got.propagation_tree_size, expected.propagation_tree_size);
    EXPECT_EQ(got.affected_final, expected.affected_final);
    EXPECT_EQ(got.num_parts, 3u);
    EXPECT_EQ(got.batch_size, batch.size());
  }
}

TEST(DistExactness, StealSchedulerReportsStats) {
  // Dist engines surface the stealing scheduler's width/task counters
  // through DistBatchResult; without a pool the scheduler has width 1.
  auto c = make_rmat_case(41);
  const auto config = workload_config(Workload::gc_s, 8, 4, 2, 10);
  const auto model = GnnModel::random(config, 43);
  const auto partition = ldg_partition(c.snapshot, 2);
  ThreadPool pool(2);
  auto steal = make_dist_engine("ripple", model, c.snapshot, c.features,
                                partition, &pool);
  auto serial = make_dist_engine("ripple", model, c.snapshot, c.features,
                                 partition, nullptr);
  std::uint64_t steal_tasks = 0;
  std::uint64_t serial_tasks = 0;
  std::uint64_t serial_steals = 0;
  std::size_t steal_width = 0;
  std::size_t serial_width = 0;
  for (const auto& batch : make_batches(c.stream, 10)) {
    const DistBatchResult sr = steal->apply_batch(batch);
    const DistBatchResult nr = serial->apply_batch(batch);
    steal_tasks += sr.sched.tasks;
    serial_tasks += nr.sched.tasks;
    serial_steals += nr.sched.steals;
    steal_width = std::max(steal_width, sr.sched.width);
    serial_width = std::max(serial_width, nr.sched.width);
  }
  EXPECT_GT(steal_tasks, 0u);
  EXPECT_EQ(steal_width, 3u);  // 2 workers + the driver
  EXPECT_GT(serial_tasks, 0u);
  EXPECT_EQ(serial_width, 1u);
  EXPECT_EQ(serial_steals, 0u);
}

// ---- transport accounting: hand-computed on a 4-vertex 2-part graph ----
//
// Vertices 0,1 live on partition 0; 2,3 on partition 1.
// Snapshot edges: 0->1, 1->2 (cut), 2->3, 2->0 (cut).
// Model: GraphConv/sum (no self term), 2 layers, feat=hidden=classes=2.

struct TinyDist {
  DynamicGraph graph{4};
  Matrix features;
  GnnModel model;
  Partition partition;

  TinyDist(std::size_t num_parts, std::vector<std::uint32_t> part_of)
      : features(testing::random_features(4, 2, 5)),
        model(GnnModel::random(workload_config(Workload::gc_s, 2, 2, 2, 2), 6)),
        partition(num_parts, std::move(part_of)) {
    graph.add_edge(0, 1);
    graph.add_edge(1, 2);
    graph.add_edge(2, 3);
    graph.add_edge(2, 0);
  }
};

constexpr std::size_t kHeader = 16;  // TransportOptions{}.header_bytes

TEST(DistTransportAccounting, EdgeAddWireCountsRipple) {
  TinyDist t(2, {0, 0, 1, 1});
  auto engine = make_dist_engine("ripple", t.model, t.graph, t.features,
                                 t.partition, nullptr, TransportOptions{});
  const std::vector<GraphUpdate> batch = {GraphUpdate::edge_add(0, 2)};
  const auto result = engine->apply_batch(batch);

  // 1. Routing: leader -> partition 1, one combined message.
  const std::size_t routing = kHeader + batch[0].wire_bytes();
  // 2. Halo fetch: owner(0)=0 ships h^0,h^1 of vertex 0 to owner(2)=1
  //    (widths feat=2 and hidden=2 floats).
  const std::size_t fetch = kHeader + (2 + 2) * sizeof(float);
  // 3. Hop-1 exchange: sender 2 (part 1) has out-neighbors {3 local,
  //    0 remote} -> ONE combined Δh row (hidden=2) to partition 0.
  const std::size_t delta = kHeader + 2 * sizeof(float);
  EXPECT_EQ(result.wire_messages, 3u);
  EXPECT_EQ(result.wire_bytes, routing + fetch + delta);
  EXPECT_GT(result.comm_sec, 0.0);
  // Propagation tree: hop 1 = {2}; hop 2 = {2 (edge sink), 3, 0}.
  EXPECT_EQ(result.propagation_tree_size, 4u);
  EXPECT_EQ(result.affected_final, 3u);
}

TEST(DistTransportAccounting, HaloFetchOnlyOnFirstCutEdgeFromSource) {
  TinyDist t(2, {0, 0, 1, 1});
  auto engine = make_dist_engine("ripple", t.model, t.graph, t.features,
                                 t.partition, nullptr, TransportOptions{});
  // Two adds from the same source into partition 1: only the first one
  // fetches vertex 0's halo rows; the second rides on the fresh copy.
  const std::vector<GraphUpdate> batch = {GraphUpdate::edge_add(0, 2),
                                          GraphUpdate::edge_add(0, 3)};
  const auto result = engine->apply_batch(batch);
  const std::size_t routing =
      kHeader + batch[0].wire_bytes() + batch[1].wire_bytes();
  const std::size_t fetch = kHeader + (2 + 2) * sizeof(float);
  // Hop-1 senders {2, 3} (part 1): 2 ships Δh to part 0 (neighbor 0);
  // 3 has no out-edges.
  const std::size_t delta = kHeader + 2 * sizeof(float);
  EXPECT_EQ(result.wire_messages, 3u);
  EXPECT_EQ(result.wire_bytes, routing + fetch + delta);
}

TEST(DistTransportAccounting, CutEdgeDeletionDoesNotFetch) {
  TinyDist t(2, {0, 0, 1, 1});
  auto engine = make_dist_engine("ripple", t.model, t.graph, t.features,
                                 t.partition, nullptr, TransportOptions{});
  // Deleting cut edge 1->2: owner(2) already holds vertex 1's halo rows,
  // so the nullification seeds locally — routing plus the hop-1 delta
  // (sender 2 -> partition 0 for neighbor 0) are the only wire traffic.
  const std::vector<GraphUpdate> batch = {GraphUpdate::edge_del(1, 2)};
  const auto result = engine->apply_batch(batch);
  const std::size_t routing = kHeader + batch[0].wire_bytes();
  const std::size_t delta = kHeader + 2 * sizeof(float);
  EXPECT_EQ(result.wire_messages, 2u);
  EXPECT_EQ(result.wire_bytes, routing + delta);
}

TEST(DistTransportAccounting, FeatureUpdateWireCountsRipple) {
  TinyDist t(2, {0, 0, 1, 1});
  auto engine = make_dist_engine("ripple", t.model, t.graph, t.features,
                                 t.partition, nullptr, TransportOptions{});
  const std::vector<GraphUpdate> batch = {
      GraphUpdate::vertex_feature(1, {0.25f, -0.5f})};
  const auto result = engine->apply_batch(batch);

  const std::size_t routing = kHeader + batch[0].wire_bytes();
  // Feature path: owner(1)=0 sends one combined (x_new, x_old) message to
  // partition 1, which owns out-neighbor 2.
  const std::size_t feature = kHeader + 2 * 2 * sizeof(float);
  // Hop-1 exchange: sender 2 (part 1) -> Δh to partition 0 (neighbor 0).
  const std::size_t delta = kHeader + 2 * sizeof(float);
  EXPECT_EQ(result.wire_messages, 3u);
  EXPECT_EQ(result.wire_bytes, routing + feature + delta);
}

TEST(DistTransportAccounting, EdgeAddWireCountsRecompute) {
  TinyDist t(2, {0, 0, 1, 1});
  auto engine = make_dist_engine("rc", t.model, t.graph, t.features,
                                 t.partition, nullptr, TransportOptions{});
  const std::vector<GraphUpdate> batch = {GraphUpdate::edge_add(0, 2)};
  const auto result = engine->apply_batch(batch);

  const std::size_t routing = kHeader + batch[0].wire_bytes();
  const std::size_t row = kHeader + 2 * sizeof(float);  // all widths are 2
  // Layer 0: affected {2} (part 1) pulls remote in-neighbors {1, 0}.
  // Layer 1: affected {3, 0, 2}: part 0 recomputes 0 (pulls remote 2);
  // part 1 recomputes 3 (in-neighbor 2 local) and 2 (pulls remote 1, 0).
  EXPECT_EQ(result.wire_messages, 1u + 2u + 3u);
  EXPECT_EQ(result.wire_bytes, routing + 5 * row);
  // RC ships strictly more than Ripple on the same batch (the paper's
  // communication gap, Fig. 12c).
  auto ripple = make_dist_engine("ripple", t.model, t.graph, t.features,
                                 t.partition, nullptr, TransportOptions{});
  EXPECT_GT(result.wire_bytes, ripple->apply_batch(batch).wire_bytes);
}

TEST(DistTransportAccounting, SinglePartitionProducesZeroWireTraffic) {
  for (const char* key : {"ripple", "rc"}) {
    TinyDist t(1, {0, 0, 0, 0});
    auto engine = make_dist_engine(key, t.model, t.graph, t.features,
                                   t.partition, nullptr, TransportOptions{});
    const std::vector<GraphUpdate> batch = {
        GraphUpdate::edge_add(0, 2), GraphUpdate::edge_del(2, 3),
        GraphUpdate::vertex_feature(1, {0.1f, 0.2f})};
    const auto result = engine->apply_batch(batch);
    EXPECT_EQ(result.wire_bytes, 0u) << key;
    EXPECT_EQ(result.wire_messages, 0u) << key;
    EXPECT_EQ(result.comm_sec, 0.0) << key;
  }
}

// ---- halo-cache invalidation: fill / write-through refresh / eager erase
// on the TinyDist topology (vertices 0,1 on part 0; 2,3 on part 1; cut
// edges 1->2 and 2->0).

DistRippleEngine make_tiny_halo_engine(const TinyDist& t) {
  return DistRippleEngine(
      t.model, t.graph, t.features, t.partition, nullptr,
      std::make_unique<SimTransport>(t.partition.num_parts(),
                                     TransportOptions{}));
}

TEST(DistHaloCache, BoundaryFeatureMutationRefreshesNeighborHalo) {
  TinyDist t(2, {0, 0, 1, 1});
  auto engine = make_tiny_halo_engine(t);
  // Bootstrap halos mirror the cut in-edges exactly.
  EXPECT_TRUE(engine.halo_contains(1, 1));   // 1 -> 2 crosses into part 1
  EXPECT_TRUE(engine.halo_contains(0, 2));   // 2 -> 0 crosses into part 0
  EXPECT_FALSE(engine.halo_contains(1, 0));  // 0 has no edge into part 1
  EXPECT_FALSE(engine.halo_contains(0, 3));  // 3 has no out-edges at all
  const auto boot = engine.halo_row(1, 1, 0);
  ASSERT_EQ(boot.size(), 2u);
  EXPECT_EQ(boot[0], t.features.row(1)[0]);
  EXPECT_EQ(boot[1], t.features.row(1)[1]);

  // Mutating boundary vertex 1's features must refresh part 1's cached H^0
  // row to the new bits before any subsequent read.
  const std::vector<GraphUpdate> mutate = {
      GraphUpdate::vertex_feature(1, {0.75f, -1.25f})};
  engine.apply_batch(mutate);
  const auto updated = engine.halo_row(1, 1, 0);
  EXPECT_EQ(updated[0], 0.75f);
  EXPECT_EQ(updated[1], -1.25f);

  // The ripple reached H^1 of boundary vertex 2, and the hop-1 exchange
  // wrote the committed row through into part 0's cache: every cached row
  // is bit-equal to the owner's current row.
  const EmbeddingStore full = engine.gather_embeddings();
  for (std::size_t l = 0; l < 2; ++l) {
    const auto cached = engine.halo_row(0, 2, l);
    const auto owner_row = full.layer(l).row(2);
    for (std::size_t i = 0; i < cached.size(); ++i) {
      EXPECT_EQ(cached[i], owner_row[i]) << "layer " << l << " col " << i;
    }
  }
}

TEST(DistHaloCache, NonBoundaryFeatureMutationShipsOnlyRouting) {
  TinyDist t(2, {0, 0, 1, 1});
  auto engine = make_tiny_halo_engine(t);
  // Vertex 3 has no out-edges: nothing downstream, nothing remote. The
  // update itself is the only wire traffic (leader -> part 1 routing).
  const std::vector<GraphUpdate> batch = {
      GraphUpdate::vertex_feature(3, {0.5f, 0.5f})};
  const auto result = engine.apply_batch(batch);
  EXPECT_EQ(result.wire_messages, 1u);
  EXPECT_EQ(result.wire_bytes, kHeader + batch[0].wire_bytes());
}

TEST(DistHaloCache, CutEdgeDeleteErasesAndReAddRefills) {
  TinyDist t(2, {0, 0, 1, 1});
  auto engine = make_tiny_halo_engine(t);
  // Deleting 1->2 removes vertex 1's LAST cut edge into part 1: the entry
  // is erased eagerly, in the same batch.
  const std::vector<GraphUpdate> del = {GraphUpdate::edge_del(1, 2)};
  engine.apply_batch(del);
  EXPECT_FALSE(engine.halo_contains(1, 1));
  EXPECT_TRUE(engine.halo_contains(0, 2));  // 2 -> 0 still cut

  // Mutate vertex 1 while it is NOT cached anywhere, then re-add the cut
  // edge: the refill must carry the owner's CURRENT committed rows, not
  // the bits cached before the delete.
  const std::vector<GraphUpdate> mutate = {
      GraphUpdate::vertex_feature(1, {2.0f, -3.0f})};
  engine.apply_batch(mutate);
  const std::vector<GraphUpdate> re_add = {GraphUpdate::edge_add(1, 2)};
  engine.apply_batch(re_add);
  EXPECT_TRUE(engine.halo_contains(1, 1));
  const EmbeddingStore full = engine.gather_embeddings();
  for (std::size_t l = 0; l < 2; ++l) {
    const auto cached = engine.halo_row(1, 1, l);
    const auto owner_row = full.layer(l).row(1);
    for (std::size_t i = 0; i < cached.size(); ++i) {
      EXPECT_EQ(cached[i], owner_row[i]) << "layer " << l << " col " << i;
    }
  }
}

// ---- memory scaling: adding ranks must ADD capacity ----

TEST(DistMemory, FourPartRankStaysUnderHalfOfSinglePartFootprint) {
  // Locality-friendly chain-with-shortcuts graph and contiguous blocks:
  // the halo stays small, so per-rank residency is dominated by owned
  // rows and must drop roughly linearly in the partition count.
  constexpr std::size_t kN = 256;
  DynamicGraph graph(kN);
  for (VertexId v = 0; v + 1 < kN; ++v) graph.add_edge(v, v + 1);
  for (VertexId v = 0; v + 2 < kN; v += 2) graph.add_edge(v, v + 2);
  const auto features = testing::random_features(kN, 8, 19);
  const auto config = workload_config(Workload::gc_s, 8, 4, 2, 12);
  const auto model = GnnModel::random(config, 21);
  StreamConfig stream_config;
  stream_config.num_updates = 60;
  stream_config.feat_dim = 8;
  stream_config.seed = 23;
  const auto stream = generate_stream(graph, stream_config);

  for (const char* key : {"ripple", "rc"}) {
    SCOPED_TRACE(key);
    std::size_t mem_p1 = 0;
    std::size_t mem_p4 = 0;
    for (const std::size_t num_parts : {std::size_t{1}, std::size_t{4}}) {
      std::vector<std::uint32_t> part_of(kN);
      for (VertexId v = 0; v < kN; ++v) {
        part_of[v] = static_cast<std::uint32_t>(v / (kN / num_parts));
      }
      Partition partition(num_parts, std::move(part_of));
      auto engine = make_dist_engine(key, model, graph, features, partition);
      for (const auto& batch : make_batches(stream, 10)) {
        engine->apply_batch(batch);
      }
      (num_parts == 1 ? mem_p1 : mem_p4) = engine->memory_bytes();
    }
    EXPECT_GT(mem_p1, 0u);
    // One P=4 rank holds LESS THAN HALF the P=1 state: splitting four ways
    // genuinely sheds rows instead of replicating them.
    EXPECT_LT(mem_p4 * 2, mem_p1);
  }
}

TEST(DistTransport, CostModelFollowsOptions) {
  TransportOptions options;
  options.per_message_sec = 1e-3;
  options.bytes_per_sec = 1e6;
  options.header_bytes = 0;
  SimTransport transport(3, options);
  transport.begin_superstep();
  const std::vector<float> payload(250, 1.0f);  // 1000 bytes = 1ms on wire
  transport.send(0, 1, 7, payload);
  transport.send(2, 1, 9, payload);
  // Partition 1 ingests both messages: 2·(1ms latency + 1ms transfer).
  EXPECT_NEAR(transport.end_superstep(), 4e-3, 1e-9);
  EXPECT_EQ(transport.wire_messages(), 2u);
  EXPECT_EQ(transport.wire_bytes(), 2000u);
  EXPECT_EQ(transport.inbox(1).messages.size(), 2u);
  EXPECT_EQ(transport.inbox(1).messages[0].sender, 7u);
  // A fresh superstep clears inboxes and per-part costs but keeps totals.
  transport.begin_superstep();
  EXPECT_EQ(transport.inbox(1).messages.size(), 0u);
  EXPECT_EQ(transport.end_superstep(), 0.0);
  EXPECT_EQ(transport.wire_messages(), 2u);
}

}  // namespace
}  // namespace ripple
