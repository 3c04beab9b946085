// Online vertex migration (docs/repartition.md):
//  1. Partition-layer units: MigrationPlan::normalize canonicalization,
//     Partition::apply versioned table patch (including the materialized
//     hash-fallback entries for post-partition vertices), LocalRowMap::
//     rehome tombstone/slot-reuse contract, and the skew detector's
//     deterministic plan proposal.
//  2. Exactness property: embeddings after ANY migration schedule are
//     BIT-IDENTICAL to the never-migrated single-machine engines, across
//     num_parts {1, 2, 4} × both engines — for explicit
//     deterministic plans, and for plans the skew detector proposes from
//     the per-rank busy counters of the drifting-hot-region stream
//     (bench/drift_rmat.h, the workload the feature exists for).
//  3. Growth-then-migrate regression: a vertex that joined AFTER
//     partitioning (hash-fallback owner) can be migrated; the explicit
//     table entry overrides the fallback on every replica and the row map
//     stays consistent.
//  4. Halo-cache ownership change: cached rows keyed on the old owner are
//     unreachable after a re-home — erased where the vertex became local,
//     refilled where the move created new cut edges — including the
//     cut-edge-delete → migrate → re-add sequence.
#include <gtest/gtest.h>

#include "../../bench/drift_rmat.h"
#include "../test_util.h"
#include "common/thread_pool.h"
#include "core/ripple_engine.h"
#include "dist/dist_engine.h"
#include "dist/dist_ripple.h"
#include "dist/transport.h"
#include "infer/recompute.h"
#include "partition/partition.h"
#include "stream/generator.h"

namespace ripple {
namespace {

// ---------------------------------------------------------- partition layer

TEST(MigrationPlan, NormalizeFillsFromDropsNoopsAndSorts) {
  Partition partition(3, {0, 0, 1, 1, 2, 2});
  MigrationPlan plan;
  plan.moves.push_back({5, /*from=*/99, /*to=*/0});  // from is recomputed
  plan.moves.push_back({1, 0, 0});                   // no-op: already at 0
  plan.moves.push_back({2, 0, 2});
  plan.normalize(partition);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.moves[0].vertex, 2u);  // sorted by vertex id
  EXPECT_EQ(plan.moves[0].from, 1u);
  EXPECT_EQ(plan.moves[0].to, 2u);
  EXPECT_EQ(plan.moves[1].vertex, 5u);
  EXPECT_EQ(plan.moves[1].from, 2u);
  EXPECT_EQ(plan.moves[1].to, 0u);
}

TEST(MigrationPlan, ApplyBumpsVersionOncePerPlanAndPatchesSets) {
  Partition partition(2, {0, 0, 0, 1, 1, 1});
  EXPECT_EQ(partition.version(), 0u);
  MigrationPlan plan;
  plan.moves.push_back({1, 0, 1});
  plan.moves.push_back({4, 1, 0});
  plan.normalize(partition);
  partition.apply(plan);
  EXPECT_EQ(partition.version(), 1u);
  EXPECT_EQ(partition.part_of(1), 1u);
  EXPECT_EQ(partition.part_of(4), 0u);
  EXPECT_EQ(partition.part_size(0), 3u);
  EXPECT_EQ(partition.part_size(1), 3u);
  // vertices_of stays sorted and duplicate-free after the incremental patch.
  EXPECT_EQ(partition.vertices_of(0), (std::vector<VertexId>{0, 2, 4}));
  EXPECT_EQ(partition.vertices_of(1), (std::vector<VertexId>{1, 3, 5}));
}

TEST(MigrationPlan, ApplyMaterializesHashFallbackForPostPartitionVertex) {
  // Satellite regression: the partition table covers vertices 0..5, vertex
  // 9 joined the stream later and answers via the fib_spread fallback.
  // Migrating it must materialize an explicit entry that overrides the
  // fallback; untouched post-partition vertices keep the fallback answer.
  Partition partition(2, {0, 0, 0, 1, 1, 1});
  const VertexId late = 9;
  const std::uint32_t fallback = partition.part_of(late);
  const std::uint32_t target = 1 - fallback;
  MigrationPlan plan;
  plan.moves.push_back({late, 0, target});
  plan.normalize(partition);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan.moves[0].from, fallback);
  partition.apply(plan);
  EXPECT_EQ(partition.part_of(late), target);
  EXPECT_EQ(partition.version(), 1u);
  // Vertices 6..8 were materialized alongside but keep fallback routing.
  for (VertexId v = 6; v < late; ++v) {
    EXPECT_EQ(partition.part_of(v),
              static_cast<std::uint32_t>(fib_spread(v, 2)));
  }
  // And the owned set of the target part now contains the late vertex.
  const auto& owned = partition.vertices_of(target);
  EXPECT_TRUE(std::find(owned.begin(), owned.end(), late) != owned.end());
}

TEST(LocalRowMap, RehomeTombstonesOldSlotAndReusesRetiredSlots) {
  Partition partition(2, {0, 0, 0, 1, 1, 1});
  LocalRowMap rows(partition, 6);
  const std::uint32_t slot_v1 = rows.local_of(1);

  MigrationPlan plan;
  plan.moves.push_back({1, 0, 1});
  plan.normalize(partition);
  rows.rehome(plan);
  partition.apply(plan);
  // Old slot keeps its position but is a tombstone; every other part-0 row
  // is untouched (the extend() stability contract).
  EXPECT_EQ(rows.owned(0)[slot_v1], kInvalidVertex);
  EXPECT_EQ(rows.owned(0)[rows.local_of(0)], 0u);
  EXPECT_EQ(rows.owned(0)[rows.local_of(2)], 2u);
  // New owner appended a fresh row at the end.
  EXPECT_EQ(rows.local_of(1), 3u);
  EXPECT_EQ(rows.owned(1)[3], 1u);
  EXPECT_EQ(rows.part_size(1), 4u);

  // Migrating INTO part 0 now reuses the retired slot instead of growing.
  MigrationPlan back;
  back.moves.push_back({4, 1, 0});
  back.normalize(partition);
  rows.rehome(back);
  partition.apply(back);
  EXPECT_EQ(rows.local_of(4), slot_v1);
  EXPECT_EQ(rows.owned(0)[slot_v1], 4u);
  EXPECT_EQ(rows.part_size(0), 3u);  // no growth
  EXPECT_EQ(partition.version(), 2u);

  // Retiring the TAIL slot of a part trims it: part 1 currently owns
  // [3, #, 5, 1] (slot 1 tombstoned above); moving 1 (slot 3) out drops
  // the trailing tombstone run and the part genuinely shrinks.
  MigrationPlan tail;
  tail.moves.push_back({1, 1, 0});
  tail.normalize(partition);
  rows.rehome(tail);
  partition.apply(tail);
  EXPECT_EQ(rows.part_size(1), 3u);  // [3, #, 5]
  EXPECT_EQ(rows.owned(1)[0], 3u);
  EXPECT_EQ(rows.owned(1)[2], 5u);
}

TEST(SkewDetector, ProposesDeterministicCapacityGatedPlans) {
  auto graph = testing::random_graph(32, 128, 11);
  Partition partition = ldg_partition(graph, 4);
  refine_partition(graph, partition, 1);

  // Balanced load → empty plan.
  SkewSignal balanced;
  for (std::size_t p = 0; p < 4; ++p) balanced.accumulate(p, 1.0);
  EXPECT_TRUE(propose_migration(graph, partition, balanced, {}).empty());

  // One hot rank → nonempty plan shedding ONLY that rank's vertices, and
  // byte-identical across repeated proposals (replicas must agree).
  SkewSignal skewed;
  for (std::size_t p = 0; p < 4; ++p) {
    skewed.accumulate(p, p == 2 ? 4.0 : 1.0);
  }
  MigrationOptions options;
  options.max_moves = 4;
  options.capacity_slack = 1.5;  // roomy: the gate itself is tested below
  const MigrationPlan plan = propose_migration(graph, partition, skewed,
                                               options);
  ASSERT_FALSE(plan.empty());
  EXPECT_LE(plan.size(), options.max_moves);
  for (const auto& move : plan.moves) {
    EXPECT_EQ(move.from, 2u);
    EXPECT_NE(move.to, 2u);
  }
  const MigrationPlan again = propose_migration(graph, partition, skewed,
                                                options);
  ASSERT_EQ(again.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(again.moves[i].vertex, plan.moves[i].vertex);
    EXPECT_EQ(again.moves[i].to, plan.moves[i].to);
  }
  EXPECT_EQ(skewed.imbalance(4), 4.0 / 1.75);
}

// -------------------------------------------------------------- exactness

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

// A deterministic nontrivial schedule: after batch b, move a spread of
// vertices one part to the right. normalize() drops the no-ops (everything,
// at num_parts == 1), so the same schedule exercises every configuration.
MigrationPlan rotate_plan(const DistEngineBase& engine, std::size_t b) {
  const std::size_t k = engine.partition().num_parts();
  const std::size_t n = engine.graph().num_vertices();
  MigrationPlan plan;
  for (std::size_t i = 0; i < 5; ++i) {
    const auto v = static_cast<VertexId>((b * 13 + i * 29) % n);
    const auto to = static_cast<std::uint32_t>(
        (engine.partition().part_of(v) + 1) % k);
    plan.moves.push_back({v, 0, to});
  }
  return plan;
}

TEST(DistMigration, MigratedRunsBitIdenticalToNeverMigratedSingleMachine) {
  auto c = make_rmat_case(91);
  const auto config = workload_config(Workload::gc_s, 8, 4, 2, 12);
  const auto model = GnnModel::random(config, 93);
  const auto batches = make_batches(c.stream, 9);

  // Never-migrated ground truth: the single-machine engines (which the
  // existing suite proves bit-equal to never-migrated dist runs).
  RippleEngine ripple_ref(model, c.snapshot, c.features);
  RecomputeEngine rc_ref(model, c.snapshot, c.features);
  for (const auto& batch : batches) {
    ripple_ref.apply_batch(batch);
    rc_ref.apply_batch(batch);
  }

  for (const std::size_t num_parts : {1, 2, 4}) {
    auto partition = ldg_partition(c.snapshot, num_parts);
    refine_partition(c.snapshot, partition, 1);
    for (const char* key : {"ripple", "rc"}) {
      SCOPED_TRACE(std::string(key) + ", " +
                   std::to_string(num_parts) + " parts");
      ThreadPool pool(3);
      auto engine = make_dist_engine(key, model, c.snapshot, c.features,
                                     partition, &pool);
      std::size_t moves = 0;
      std::size_t supersteps = 0;
      for (std::size_t b = 0; b < batches.size(); ++b) {
        engine->apply_batch(batches[b]);
        const std::size_t executed = engine->migrate(rotate_plan(*engine, b));
        moves += executed;
        supersteps += executed > 0 ? 1 : 0;
      }
      if (num_parts > 1) {
        EXPECT_GT(moves, 0u);  // the schedule genuinely migrated
        EXPECT_EQ(engine->partition().version(), supersteps);
      }
      const auto& ref = std::string(key) == "ripple" ? ripple_ref.embeddings()
                                                     : rc_ref.embeddings();
      EXPECT_EQ(testing::max_store_diff(ref, engine->gather_embeddings()),
                0.0f);
    }
  }
}

TEST(DistMigration, SkewProposedPlansOnDriftStreamStayExact) {
  // End-to-end policy loop on the workload migration exists for: the
  // drifting-hot-region stream, per-batch busy evidence accumulated into a
  // SkewSignal, detector-proposed plans executed between batches. Sim's
  // modeled counters are replica-identical, so every (hosted) rank derives
  // the same plan; exactness must hold whatever the detector decides.
  bench::DriftConfig dc;
  dc.num_vertices = 128;
  dc.base_edges = 512;
  dc.window = 32;
  dc.num_windows = 3;
  dc.batches_per_window = 2;
  dc.batch_size = 24;
  dc.seed = 17;
  const auto scenario = bench::make_drift_scenario(dc);
  const auto features = testing::random_features(
      scenario.num_vertices, dc.feat_dim, dc.seed + 1);
  const auto config = workload_config(Workload::gs_s, dc.feat_dim, 4, 2, 12);
  const auto model = GnnModel::random(config, 19);
  const auto batches = make_batches(scenario.stream, dc.batch_size);

  RippleEngine ref(model, scenario.snapshot, features);
  for (const auto& batch : batches) ref.apply_batch(batch);

  auto partition = ldg_partition(scenario.snapshot, 4);
  refine_partition(scenario.snapshot, partition, 1);
  auto engine = make_dist_engine("ripple", model, scenario.snapshot,
                                 features, partition, nullptr);
  SkewSignal signal;
  MigrationOptions options;
  options.hot_factor = 1.0;  // eager: migrate on any measurable skew
  options.max_moves = 16;
  std::size_t total_moves = 0;
  for (const auto& batch : batches) {
    const DistBatchResult result = engine->apply_batch(batch);
    for (std::size_t p = 0; p < result.num_parts; ++p) {
      signal.accumulate(p, result.busy_share_sec(p));
    }
    total_moves += engine->migrate(propose_migration(
        engine->graph(), engine->partition(), signal, options));
  }
  EXPECT_GT(total_moves, 0u);  // the drift stream must trigger the detector
  EXPECT_EQ(testing::max_store_diff(ref.embeddings(),
                                    engine->gather_embeddings()),
            0.0f);
}

TEST(DistMigration, GrowthThenMigratePostPartitionVertex) {
  // Satellite regression at the engine level: the partition covers only a
  // 64-vertex prefix; vertices 64..95 joined afterwards (LocalRowMap::
  // extend + hash fallback). Migrating such a vertex must route its rows
  // and every replica's table through the versioned assignment — not the
  // fallback hash — and stay bit-exact.
  auto c = make_rmat_case(133);
  const std::size_t prefix = 64;
  DynamicGraph prefix_graph(prefix);
  for (const auto& e : c.snapshot.edges()) {
    if (e.src < prefix && e.dst < prefix) {
      prefix_graph.add_edge(e.src, e.dst, e.weight);
    }
  }
  auto partition = ldg_partition(prefix_graph, 2);
  refine_partition(prefix_graph, partition, 1);
  ASSERT_LT(partition.num_vertices(), c.snapshot.num_vertices());

  const auto config = workload_config(Workload::gc_s, 8, 4, 2, 12);
  const auto model = GnnModel::random(config, 135);
  const auto batches = make_batches(c.stream, 11);

  RippleEngine ripple_ref(model, c.snapshot, c.features);
  RecomputeEngine rc_ref(model, c.snapshot, c.features);
  for (const auto& batch : batches) {
    ripple_ref.apply_batch(batch);
    rc_ref.apply_batch(batch);
  }

  for (const char* key : {"ripple", "rc"}) {
    SCOPED_TRACE(key);
    auto engine = make_dist_engine(key, model, c.snapshot, c.features,
                                   partition, nullptr);
    std::size_t moved_late = 0;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      engine->apply_batch(batches[b]);
      // Every other batch, bounce one post-partition vertex to the part
      // the fallback would NOT pick.
      if (b % 2 == 0) {
        const auto late = static_cast<VertexId>(prefix + (b * 7) % 32);
        MigrationPlan plan;
        const auto to = static_cast<std::uint32_t>(
            (engine->partition().part_of(late) + 1) % 2);
        plan.moves.push_back({late, 0, to});
        moved_late += engine->migrate(std::move(plan));
        EXPECT_EQ(engine->partition().part_of(late), to);
      }
    }
    EXPECT_GT(moved_late, 0u);
    const auto& ref = std::string(key) == "ripple" ? ripple_ref.embeddings()
                                                   : rc_ref.embeddings();
    EXPECT_EQ(testing::max_store_diff(ref, engine->gather_embeddings()),
              0.0f);
  }
}

// ------------------------------------------------------- halo re-keying

// 6-vertex, 2-part fixture with a known cut: parts {0,1,2} | {3,4,5},
// edges 1→0 (internal), 0→3 (cut into part 1), 4→3 (internal), 5→4.
DynamicGraph halo_graph() {
  DynamicGraph g(6);
  g.add_edge(1, 0);
  g.add_edge(0, 3);
  g.add_edge(4, 3);
  g.add_edge(5, 4);
  return g;
}

TEST(DistMigration, HaloEntriesKeyedOnOldOwnerAreReKeyedByMigration) {
  const auto graph = halo_graph();
  const auto features = testing::random_features(6, 4, 201);
  const auto config = workload_config(Workload::gc_s, 4, 4, 2, 10);
  const auto model = GnnModel::random(config, 203);
  Partition partition(2, {0, 0, 0, 1, 1, 1});

  DistRippleEngine engine(model, graph, features, partition, nullptr,
                          std::make_unique<SimTransport>(
                              2, default_transport_options()));
  // Cut edge 0→3: part 1 caches owner 0's rows of vertex 0. Vertex 0 has
  // no in-edges from part 1's side beyond that, so part 0 needs no halo.
  EXPECT_TRUE(engine.halo_contains(1, 0));
  EXPECT_FALSE(engine.halo_contains(0, 3));

  // Migrate vertex 0 to part 1: the (1, 0) entry keyed on the OLD owner
  // must become unreachable (0 is local there now), while the move cuts
  // 1→0 the other way — part 1 newly needs owner 0's rows of vertex 1.
  MigrationPlan plan;
  plan.moves.push_back({0, 0, 1});
  ASSERT_EQ(engine.migrate(std::move(plan)), 1u);
  EXPECT_FALSE(engine.halo_contains(1, 0));
  EXPECT_TRUE(engine.halo_contains(1, 1));
  // The freshly filled halo row carries the owner's committed bits.
  const auto row = engine.halo_row(1, 1, 0);
  const auto truth = testing::full_inference_truth(model, graph, features);
  for (std::size_t j = 0; j < row.size(); ++j) {
    EXPECT_EQ(row[j], truth.layer(0).row(1)[j]);
  }
  // And the engine still agrees with single-machine inference bit-for-bit.
  RippleEngine ref(model, graph, features);
  EXPECT_EQ(testing::max_store_diff(ref.embeddings(),
                                    engine.gather_embeddings()),
            0.0f);
}

TEST(DistMigration, CutEdgeDeleteThenMigrateThenReAddKeepsHaloCoherent) {
  const auto graph = halo_graph();
  const auto features = testing::random_features(6, 4, 211);
  const auto config = workload_config(Workload::gc_s, 4, 4, 2, 10);
  const auto model = GnnModel::random(config, 213);
  Partition partition(2, {0, 0, 0, 1, 1, 1});

  DistRippleEngine engine(model, graph, features, partition, nullptr,
                          std::make_unique<SimTransport>(
                              2, default_transport_options()));
  RippleEngine ref(model, graph, features);

  // 1. Delete the only cut edge 0→3: eager erase of the (1, 0) entry.
  const std::vector<GraphUpdate> del = {GraphUpdate::edge_del(0, 3)};
  engine.apply_batch(del);
  ref.apply_batch(del);
  EXPECT_FALSE(engine.halo_contains(1, 0));

  // 2. Migrate vertex 3 to part 0 while the edge is gone.
  MigrationPlan plan;
  plan.moves.push_back({3, 1, 0});
  ASSERT_EQ(engine.migrate(std::move(plan)), 1u);
  // 4→3 became a cut edge INTO part 0: the new owner side caches vertex 4.
  EXPECT_TRUE(engine.halo_contains(0, 4));

  // 3. Re-add 0→3. Both endpoints now live on part 0 — the edge is
  //    internal, so no halo entry may reappear under the STALE key.
  const std::vector<GraphUpdate> add = {GraphUpdate::edge_add(0, 3)};
  engine.apply_batch(add);
  ref.apply_batch(add);
  EXPECT_FALSE(engine.halo_contains(1, 0));
  EXPECT_FALSE(engine.halo_contains(0, 3));
  EXPECT_EQ(testing::max_store_diff(ref.embeddings(),
                                    engine.gather_embeddings()),
            0.0f);
}

}  // namespace
}  // namespace ripple
