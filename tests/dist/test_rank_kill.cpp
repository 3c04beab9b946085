// Real rank-death drills over the forked tcp loopback harness
// (dist/loopback.h, docs/fault_tolerance.md): a FaultInjectTransport with
// plan.real_kill raises an ACTUAL SIGKILL inside one forked rank mid-run,
// and the tests assert on what the rest of the cluster observes:
//  1. Detection — the survivor's next transport call surfaces
//     TransportError{kPeerLost} within the configured deadlines for a
//     mid-superstep death. The victim's outcome is kDied (it never reached its report), proving the kill was
//     a real process death and not a thrown exception.
//  2. Recovery (RIPPLE_TRANSPORT=tcp, ci.sh's dedicated tcp pass) — the
//     killed cluster left periodic per-rank checkpoints behind; a fresh
//     2-rank cluster restores from the last complete cursor, replays the
//     stream suffix over real sockets, and the leader's gathered store is
//     BIT-identical to a single-machine run that never failed. This is the
//     sim recovery property of tests/dist/test_checkpoint.cpp, re-proven
//     with a real SIGKILL and a real wire.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>

#include "../test_util.h"
#include "common/check.h"
#include "core/ripple_engine.h"
#include "dist/checkpoint.h"
#include "dist/dist_engine.h"
#include "dist/fault_inject.h"
#include "dist/loopback.h"
#include "dist/tcp_transport.h"
#include "infer/recompute.h"
#include "stream/generator.h"

namespace ripple {
namespace {

std::string make_temp_dir() {
  std::string path = ::testing::TempDir() + "ripple_kill_XXXXXX";
  EXPECT_NE(::mkdtemp(path.data()), nullptr);
  return path;
}

// Short failure-detection deadlines: the drills must conclude in test
// time, and a SIGKILLed peer's sockets close immediately anyway (EOF is
// the fast path; peer_dead_sec only backstops a wedged-not-dead peer).
TcpConfig drill_config(const TcpConfig& config) {
  TcpConfig cfg = config;
  cfg.heartbeat_interval_sec = 0.05;
  cfg.peer_dead_sec = 2.0;
  cfg.barrier_timeout_sec = 60.0;  // backstop so a broken drill fails, not hangs
  return cfg;
}

constexpr std::size_t kVictim = 1;  // non-leader, so rank 0 keeps ingress

std::unique_ptr<Transport> make_victim_transport(const TcpConfig& config,
                                                 std::size_t num_ranks,
                                                 FaultAction action) {
  auto tcp =
      std::make_unique<TcpTransport>(num_ranks, TransportOptions{}, config);
  FaultPlan plan;
  plan.real_kill = true;  // SIGKILL, not a throw: a REAL process death
  plan.actions.push_back(action);
  return std::make_unique<FaultInjectTransport>(std::move(tcp),
                                                std::move(plan));
}

// Survivor report: [u8 caught][u8 kind][u64 batches applied before the
// error]. The victim never reports (its outcome is kDied).
std::vector<std::uint8_t> encode_survivor(bool caught, TransportErrorKind kind,
                                          std::uint64_t applied) {
  std::vector<std::uint8_t> blob(10);
  blob[0] = caught ? 1 : 0;
  blob[1] = static_cast<std::uint8_t>(kind);
  std::memcpy(blob.data() + 2, &applied, sizeof(applied));
  return blob;
}

// Runs a 2-rank cluster where the victim's transport executes `action`
// with real_kill and every rank checkpoints every `checkpoint_every`
// batches into `dir` (empty dir disables checkpointing). Asserts the
// victim died and returns the survivor's observed error kind.
void run_kill_drill(const std::string& key, const FaultAction& action,
                    const std::string& dir, std::size_t checkpoint_every) {
  constexpr std::size_t kNumRanks = 2;
  constexpr std::size_t kBatchSize = 9;
  const auto c = testing::make_rmat_case(77);
  const auto config = workload_config(Workload::gc_s, 8, 4, 2, 12);
  const auto model = GnnModel::random(config, 79);
  auto partition = ldg_partition(c.snapshot, kNumRanks);
  refine_partition(c.snapshot, partition, 1);
  const auto batches = make_batches(c.stream, kBatchSize);

  const auto outcomes = run_loopback_ranks_expecting_faults(
      kNumRanks, [&](const TcpConfig& raw) -> std::vector<std::uint8_t> {
        const TcpConfig cfg = drill_config(raw);
        std::unique_ptr<Transport> transport;
        if (cfg.rank == kVictim) {
          transport = make_victim_transport(cfg, kNumRanks, action);
        } else {
          transport = std::make_unique<TcpTransport>(kNumRanks,
                                                     TransportOptions{}, cfg);
        }
        auto engine = make_dist_engine(key, model, c.snapshot, c.features,
                                       partition, nullptr,
                                       std::move(transport));
        bool caught = false;
        auto kind = TransportErrorKind::kTimeout;
        std::uint64_t applied = 0;
        if (!dir.empty()) engine->write_checkpoint(dir, 0);  // cursor-0 base
        try {
          for (const auto& batch : batches) {
            engine->apply_batch(batch);
            ++applied;
            if (!dir.empty() && applied % checkpoint_every == 0) {
              engine->write_checkpoint(dir, applied);
            }
          }
        } catch (const TransportError& e) {
          caught = true;
          kind = e.kind();
        }
        return encode_survivor(caught, kind, applied);
      });

  // The victim really died mid-run: no report ever crossed its pipe.
  EXPECT_EQ(outcomes[kVictim].kind, RankOutcome::Kind::kDied)
      << outcomes[kVictim].error;
  // The survivor saw a typed peer loss — not a hang, not an abort.
  ASSERT_EQ(outcomes[0].kind, RankOutcome::Kind::kOk) << outcomes[0].error;
  ASSERT_EQ(outcomes[0].blob.size(), 10u);
  EXPECT_EQ(outcomes[0].blob[0], 1u) << "survivor finished without an error";
  EXPECT_EQ(static_cast<TransportErrorKind>(outcomes[0].blob[1]),
            TransportErrorKind::kPeerLost);
  std::uint64_t applied = 0;
  std::memcpy(&applied, outcomes[0].blob.data() + 2, sizeof(applied));
  EXPECT_LT(applied, batches.size()) << "kill fired after the stream ended";
}

TEST(RankKill, MidSuperstepBspDeathSurfacesPeerLostToTheSurvivor) {
  // steps_begun reaches 5 a batch or two into the run: the victim dies at
  // the top of a superstep, with the survivor parked at the barrier.
  run_kill_drill("ripple", {FaultKind::kKillAtStep, /*at_step=*/5, 0},
                 /*dir=*/"", /*checkpoint_every=*/0);
}

// ------------- kill -> restore -> replay, over the real wire -------------

// Flattened vertex-major H^0..H^L bytes of a store — the comparison key.
std::vector<std::uint8_t> flatten_store(const EmbeddingStore& store) {
  std::vector<std::uint8_t> bytes;
  for (VertexId v = 0; v < store.num_vertices(); ++v) {
    for (std::size_t l = 0; l <= store.num_layers(); ++l) {
      const auto row = store.layer(l).row(v);
      const auto* at = reinterpret_cast<const std::uint8_t*>(row.data());
      bytes.insert(bytes.end(), at, at + row.size() * sizeof(float));
    }
  }
  return bytes;
}

DynamicGraph topology_at(const DynamicGraph& snapshot,
                         std::span<const GraphUpdate> prefix) {
  DynamicGraph g = snapshot;
  for (const GraphUpdate& u : prefix) {
    if (u.kind == UpdateKind::edge_add) {
      g.add_edge(u.u, u.v, u.weight);
    } else if (u.kind == UpdateKind::edge_del) {
      g.remove_edge(u.u, u.v);
    }
  }
  return g;
}

void run_tcp_recovery_case(const std::string& key) {
  constexpr std::size_t kNumRanks = 2;
  constexpr std::size_t kBatchSize = 9;
  constexpr std::size_t kCheckpointEvery = 2;
  const auto c = testing::make_rmat_case(77);
  const auto config = workload_config(Workload::gc_s, 8, 4, 2, 12);
  const auto model = GnnModel::random(config, 79);
  const auto batches = make_batches(c.stream, kBatchSize);

  // The never-failed reference (single machine == dist by the exactness
  // contract, so it stands in for the run that was never killed).
  RippleEngine ripple_ref(model, c.snapshot, c.features);
  RecomputeEngine rc_ref(model, c.snapshot, c.features);
  for (const auto& batch : batches) {
    if (key == "ripple") {
      ripple_ref.apply_batch(batch);
    } else {
      rc_ref.apply_batch(batch);
    }
  }
  const EmbeddingStore& ref =
      key == "ripple" ? ripple_ref.embeddings() : rc_ref.embeddings();

  const std::string dir = make_temp_dir();

  // Act 1: the killed run. Checkpoints land every K batches until the
  // victim SIGKILLs itself ~2 batches later.
  run_kill_drill(key, {FaultKind::kKillAtStep, /*at_step=*/12, 0}, dir,
                 kCheckpointEvery);
  if (::testing::Test::HasFailure()) return;

  // Act 2: a fresh cluster recovers from what the dead one left on disk.
  const auto cursor = latest_checkpoint_cursor(dir, kNumRanks);
  ASSERT_TRUE(cursor.has_value());
  const std::size_t prefix_updates =
      std::min(*cursor * kBatchSize, c.stream.size());
  const DynamicGraph topo = topology_at(
      c.snapshot,
      std::span<const GraphUpdate>(c.stream.data(), prefix_updates));
  // Different features than the original run: every restored bit must come
  // from the checkpoint files, not the constructor bootstrap.
  const Matrix other_features =
      testing::random_features(c.snapshot.num_vertices(), 8, 991);
  const CheckpointData rank0 =
      read_checkpoint_file(checkpoint_path(dir, *cursor, 0));
  const Partition restored_partition(
      kNumRanks, std::vector<std::uint32_t>(rank0.meta.part_of));

  const auto results = run_loopback_ranks(
      kNumRanks, [&](const TcpConfig& raw) -> std::vector<std::uint8_t> {
        const TcpConfig cfg = drill_config(raw);
        auto transport = std::make_unique<TcpTransport>(
            kNumRanks, TransportOptions{}, cfg);
        auto engine = make_dist_engine(key, model, topo, other_features,
                                       restored_partition, nullptr,
                                       std::move(transport));
        // COLLECTIVE: the ripple restore runs a halo-refill superstep, so
        // both ranks call it at the same point — over the real wire.
        engine->restore_checkpoint(dir, *cursor);
        for (std::size_t i = *cursor; i < batches.size(); ++i) {
          engine->apply_batch(batches[i]);
        }
        const EmbeddingStore store = engine->gather_embeddings();
        if (cfg.rank != 0) return {};
        return flatten_store(store);  // leader holds the full table
      });

  const std::vector<std::uint8_t> expected = flatten_store(ref);
  ASSERT_EQ(results[0].size(), expected.size());
  // memcmp at zero tolerance: kill -> restore -> replay over real sockets
  // must be indistinguishable from never having failed.
  EXPECT_EQ(std::memcmp(results[0].data(), expected.data(), expected.size()),
            0);
}

// The heavy leg rides ci.sh's dedicated RIPPLE_TRANSPORT=tcp pass; the
// default dist tier keeps the fast detection drills above.
bool tcp_pass_enabled() {
  const char* env = std::getenv("RIPPLE_TRANSPORT");
  return env != nullptr && std::string(env) == "tcp";
}

TEST(RankKill, KillRestoreReplayIsBitIdenticalOverTcp) {
  if (!tcp_pass_enabled()) {
    GTEST_SKIP() << "set RIPPLE_TRANSPORT=tcp to run the tcp recovery drill";
  }
  for (const char* key : {"ripple", "rc"}) {
    SCOPED_TRACE(key);
    run_tcp_recovery_case(key);
  }
}

}  // namespace
}  // namespace ripple
