// Checkpoint/restore tests (dist/checkpoint.h, docs/fault_tolerance.md):
//  1. File format: a checkpoint round-trips bit-exactly (including NaN and
//     denormal floats), any flipped or missing byte is rejected as
//     TransportError{kCorrupt} by the CRC, and latest_checkpoint_cursor
//     skips cursors where any rank's file is missing or damaged.
//  2. THE recovery property: run a stream with periodic checkpoints under a
//     seeded kill schedule; after the injected rank death, rebuild the
//     stream-prefix topology, restore every rank from the last complete
//     checkpoint, and replay the suffix — the final embeddings must be
//     BIT-identical to a run that never failed, across
//     parts {1,2,4} x engines {ripple, rc} x kill seeds. Zero tolerance: this is what makes a checkpoint file plus the
//     deterministic runtime a complete recovery story.
//  3. Restore refuses a valid file that is not the one it asked for
//     (another rank's, another cursor's, another engine's) and the file
//     reader refuses length fields whose byte counts would overflow — both
//     as TransportError{kCorrupt}.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>

#include "../test_util.h"
#include "core/ripple_engine.h"
#include "dist/checkpoint.h"
#include "dist/dist_engine.h"
#include "dist/fault_inject.h"
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

std::string make_temp_dir() {
  std::string path = ::testing::TempDir() + "ripple_ckpt_XXXXXX";
  EXPECT_NE(::mkdtemp(path.data()), nullptr);
  return path;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

CheckpointData sample_checkpoint(std::uint64_t cursor, std::uint32_t rank) {
  CheckpointData data;
  data.meta.engine_key = "ripple";
  data.meta.stream_cursor = cursor;
  data.meta.rank = rank;
  data.meta.num_parts = 2;
  data.meta.partition_version = 3;
  data.meta.num_vertices = 4;
  data.meta.row_width = 3;
  // One shared assignment table; each rank's file lists ITS owned ids.
  data.meta.part_of = {0, 0, 1, 1};
  data.vertices = rank == 0 ? std::vector<VertexId>{0, 1}
                            : std::vector<VertexId>{2, 3};
  // Rows must survive bit-exactly, so include the values a float codec
  // could plausibly mangle: NaN, a denormal, and a negative zero.
  data.rows = {1.5f,
               std::numeric_limits<float>::quiet_NaN(),
               -0.0f,
               std::numeric_limits<float>::denorm_min(),
               -2.25f,
               3e38f};
  return data;
}

TEST(CheckpointFile, RoundTripsBitExactly) {
  const std::string dir = make_temp_dir();
  const CheckpointData written = sample_checkpoint(7, 0);
  write_checkpoint_file(dir, written);
  const CheckpointData got =
      read_checkpoint_file(checkpoint_path(dir, 7, 0));
  EXPECT_EQ(got.meta.engine_key, written.meta.engine_key);
  EXPECT_EQ(got.meta.stream_cursor, written.meta.stream_cursor);
  EXPECT_EQ(got.meta.rank, written.meta.rank);
  EXPECT_EQ(got.meta.num_parts, written.meta.num_parts);
  EXPECT_EQ(got.meta.partition_version, written.meta.partition_version);
  EXPECT_EQ(got.meta.num_vertices, written.meta.num_vertices);
  EXPECT_EQ(got.meta.row_width, written.meta.row_width);
  EXPECT_EQ(got.meta.part_of, written.meta.part_of);
  EXPECT_EQ(got.vertices, written.vertices);
  ASSERT_EQ(got.rows.size(), written.rows.size());
  // memcmp, not ==: NaN != NaN, but its bits must round-trip.
  EXPECT_EQ(std::memcmp(got.rows.data(), written.rows.data(),
                        got.rows.size() * sizeof(float)),
            0);
  // No stray ".tmp" left behind by the atomic rename.
  EXPECT_TRUE(slurp(checkpoint_path(dir, 7, 0)).size() > 0);
  std::ifstream tmp(checkpoint_path(dir, 7, 0) + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST(CheckpointFile, EveryFlippedByteIsRejected) {
  const std::string dir = make_temp_dir();
  write_checkpoint_file(dir, sample_checkpoint(1, 0));
  const std::string path = checkpoint_path(dir, 1, 0);
  const std::vector<std::uint8_t> valid = slurp(path);
  ASSERT_GT(valid.size(), 8u);
  // Flip one byte at a spread of offsets (header, meta, rows, CRC itself):
  // the CRC check must reject every single one.
  for (std::size_t at = 0; at < valid.size();
       at += 1 + valid.size() / 23) {
    std::vector<std::uint8_t> bad = valid;
    bad[at] ^= 0x40;
    dump(path, bad);
    EXPECT_THROW(read_checkpoint_file(path), TransportError) << "offset "
                                                             << at;
  }
  // Truncation at any length short of the full file is equally fatal.
  for (const std::size_t len : {0ul, 4ul, valid.size() / 2, valid.size() - 1}) {
    std::vector<std::uint8_t> bad(valid.begin(),
                                  valid.begin() + static_cast<long>(len));
    dump(path, bad);
    EXPECT_THROW(read_checkpoint_file(path), TransportError) << "len " << len;
  }
  dump(path, valid);
  EXPECT_NO_THROW(read_checkpoint_file(path));
}

TEST(CheckpointFile, HugeLengthFieldsAreCorruptNotLengthErrors) {
  // A CRC-valid file whose u64 length fields claim 2^62+1 entries: the
  // byte counts (length * 4) wrap past 2^64, so a multiplied bound check
  // would pass and the table resize would throw std::length_error. Both
  // tables must instead be rejected as typed corruption.
  constexpr std::uint64_t kHuge = (std::uint64_t{1} << 62) + 1;
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/crafted.bin";
  for (const bool huge_owned : {false, true}) {
    SCOPED_TRACE(huge_owned ? "owned id table" : "part_of table");
    const std::uint64_t num_vertices = huge_owned ? 1 : kHuge;
    std::vector<std::uint8_t> image;
    const auto put = [&](const auto& value) {
      const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
      image.insert(image.end(), p, p + sizeof(value));
    };
    put(kCheckpointMagic);
    put(kCheckpointFormatVersion);
    put(std::uint32_t{0});  // rank
    put(std::uint32_t{1});  // num_parts
    put(std::uint32_t{1});  // row_width
    put(std::uint64_t{0});  // stream_cursor
    put(std::uint64_t{0});  // partition_version
    put(num_vertices);
    put(std::uint32_t{6});
    for (const char ch : std::string("ripple")) put(ch);
    put(num_vertices);  // part_of length
    if (huge_owned) {
      put(std::uint32_t{0});  // part_of[0]
      put(kHuge);             // owned vertex count
    }
    put(std::uint64_t{0});  // enough bytes for a wrapped 4-byte bound
    put(crc32(image.data(), image.size()));
    dump(path, image);
    try {
      (void)read_checkpoint_file(path);
      ADD_FAILURE() << "crafted file was accepted";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind(), TransportErrorKind::kCorrupt);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-transport error: " << e.what();
    }
  }
}

TEST(CheckpointFile, LatestCursorRequiresACompleteRankSet) {
  const std::string dir = make_temp_dir();
  EXPECT_FALSE(latest_checkpoint_cursor(dir, 2).has_value());

  // Complete set at cursor 2.
  write_checkpoint_file(dir, sample_checkpoint(2, 0));
  write_checkpoint_file(dir, sample_checkpoint(2, 1));
  EXPECT_EQ(latest_checkpoint_cursor(dir, 2), 2u);

  // Cursor 4 has only rank 0 (a crash between the two ranks' writes):
  // recovery must fall back to the complete cursor 2.
  write_checkpoint_file(dir, sample_checkpoint(4, 0));
  EXPECT_EQ(latest_checkpoint_cursor(dir, 2), 2u);

  // Completing it promotes cursor 4...
  write_checkpoint_file(dir, sample_checkpoint(4, 1));
  EXPECT_EQ(latest_checkpoint_cursor(dir, 2), 4u);

  // ...and damaging one of its files demotes it again.
  const std::string path = checkpoint_path(dir, 4, 1);
  std::vector<std::uint8_t> bad = slurp(path);
  bad[bad.size() / 2] ^= 0x01;
  dump(path, bad);
  EXPECT_EQ(latest_checkpoint_cursor(dir, 2), 2u);
}

// ---- the recovery property: kill -> restore -> replay == never failed ----

// Structural replay of a stream prefix: recovery rebuilds the topology as
// of the checkpoint cursor from the durable update log (here: the stream
// vector itself). Feature updates carry no structure — the restored H^0
// rows come from the checkpoint files.
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

std::unique_ptr<InferenceEngine> make_reference(const std::string& key,
                                                const GnnModel& model,
                                                const DynamicGraph& g,
                                                const Matrix& features) {
  if (key == "ripple") {
    return std::make_unique<RippleEngine>(model, g, features);
  }
  return std::make_unique<RecomputeEngine>(model, g, features);
}

void run_recovery_case(const std::string& key, std::size_t num_parts,
                       std::uint64_t kill_seed) {
  constexpr std::size_t kBatchSize = 9;
  constexpr std::size_t kCheckpointEvery = 2;
  auto c = make_rmat_case(77);
  const auto config = workload_config(Workload::gc_s, 8, 4, 2, 12);
  const auto model = GnnModel::random(config, 79);
  const auto batches = make_batches(c.stream, kBatchSize);

  // The never-failed reference (the dist engines are bit-identical to it by
  // the exactness contract, so it doubles as the never-failed dist run).
  auto ref = make_reference(key, model, c.snapshot, c.features);
  for (const auto& batch : batches) ref->apply_batch(batch);

  auto partition = ldg_partition(c.snapshot, num_parts);
  refine_partition(c.snapshot, partition, 1);
  const std::string dir = make_temp_dir();

  // Deployment baseline: a cursor-0 checkpoint from a pristine engine, so
  // recovery has somewhere to land even if the kill fires during the
  // faulted engine's bootstrap.
  {
    auto pristine = make_dist_engine(key, model, c.snapshot, c.features,
                                     partition, nullptr,
                                     default_transport_options());
    EXPECT_GE(pristine->write_checkpoint(dir, 0), 0.0);
  }

  // The faulted run: checkpoint every K batches until the seeded kill.
  std::size_t applied = 0;
  bool killed = false;
  try {
    auto engine = make_dist_engine(
        key, model, c.snapshot, c.features, partition, nullptr,
        make_fault_inject_sim(num_parts, default_transport_options(),
                              FaultPlan::seeded_kill(kill_seed, 20)));
    for (const auto& batch : batches) {
      engine->apply_batch(batch);
      ++applied;
      if (applied % kCheckpointEvery == 0) {
        engine->write_checkpoint(dir, applied);
      }
    }
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind(), TransportErrorKind::kPeerLost);
    killed = true;
  }
  ASSERT_TRUE(killed) << "seeded kill never fired — raise max_step";

  // Recovery: survivors + a replacement rank agree on the last complete
  // checkpoint set, rebuild the prefix topology, restore, and replay.
  const auto cursor = latest_checkpoint_cursor(dir, num_parts);
  ASSERT_TRUE(cursor.has_value());
  ASSERT_LE(*cursor, applied);
  const std::size_t prefix_updates =
      std::min(*cursor * kBatchSize, c.stream.size());
  const DynamicGraph topo = topology_at(
      c.snapshot, std::span<const GraphUpdate>(c.stream.data(),
                                               prefix_updates));
  // Deliberately DIFFERENT features: every restored bit must come from the
  // checkpoint files, not from the constructor bootstrap.
  const Matrix other_features =
      testing::random_features(c.snapshot.num_vertices(), 8, 991);
  // The partition assignment also comes from the checkpoint.
  const CheckpointData rank0 =
      read_checkpoint_file(checkpoint_path(dir, *cursor, 0));
  Partition restored_partition(
      num_parts, std::vector<std::uint32_t>(rank0.meta.part_of));

  auto engine = make_dist_engine(key, model, topo, other_features,
                                 restored_partition, nullptr,
                                 default_transport_options());
  engine->restore_checkpoint(dir, *cursor);
  for (std::size_t i = *cursor; i < batches.size(); ++i) {
    engine->apply_batch(batches[i]);
  }
  EXPECT_EQ(
      testing::max_store_diff(ref->embeddings(), engine->gather_embeddings()),
      0.0f);
}

TEST(CheckpointRecovery, KillRestoreReplayIsBitIdenticalRipple) {
  for (const std::size_t num_parts : {1, 2, 4}) {
    for (const std::uint64_t seed : {5ull, 6ull}) {
      SCOPED_TRACE(std::to_string(num_parts) + " parts, kill seed " +
                   std::to_string(seed));
      run_recovery_case("ripple", num_parts, seed);
    }
  }
}

TEST(CheckpointRecovery, KillRestoreReplayIsBitIdenticalRecompute) {
  for (const std::size_t num_parts : {1, 2, 4}) {
    for (const std::uint64_t seed : {5ull, 6ull}) {
      SCOPED_TRACE(std::to_string(num_parts) + " parts, kill seed " +
                   std::to_string(seed));
      run_recovery_case("rc", num_parts, seed);
    }
  }
}

TEST(CheckpointRecovery, RowWidthsMatchTheMigrationLayout) {
  // ripple rows carry H^0..H^L plus the per-hop aggregate caches; rc rows
  // carry H only. workload gc_s feat=8 classes=4 hidden=12, 2 layers:
  // H widths 8+12+4, agg-cache widths = layer input dims 8+12.
  auto c = make_rmat_case(77);
  const auto config = workload_config(Workload::gc_s, 8, 4, 2, 12);
  const auto model = GnnModel::random(config, 79);
  const Partition partition = ldg_partition(c.snapshot, 2);
  EXPECT_EQ(make_dist_engine("rc", model, c.snapshot, c.features, partition)
                ->owned_row_width(),
            8u + 12u + 4u);
  EXPECT_EQ(
      make_dist_engine("ripple", model, c.snapshot, c.features, partition)
          ->owned_row_width(),
      (8u + 12u + 4u) + (8u + 12u));
}

TEST(CheckpointRecovery, RestoreRejectsAnotherRanksCursorsOrEnginesFile) {
  // A balanced v % 2 assignment: rank 1's file has the same part_of table
  // and the same owned-row count as rank 0's, so only the identity fields
  // tell a swapped file apart — and installing it would silently hand
  // rank 0 rank 1's rows.
  auto c = make_rmat_case(77);
  const auto config = workload_config(Workload::gc_s, 8, 4, 2, 12);
  const auto model = GnnModel::random(config, 79);
  std::vector<std::uint32_t> part_of(c.snapshot.num_vertices());
  for (VertexId v = 0; v < part_of.size(); ++v) part_of[v] = v % 2;
  const Partition partition(2, part_of);
  const auto restore_error =
      [&](const std::string& key,
          const std::string& dir) -> std::optional<TransportErrorKind> {
    auto engine =
        make_dist_engine(key, model, c.snapshot, c.features, partition);
    try {
      engine->restore_checkpoint(dir, 0);
    } catch (const TransportError& e) {
      return e.kind();
    }
    return std::nullopt;
  };
  for (const std::string key : {"ripple", "rc"}) {
    SCOPED_TRACE(key);
    const std::string other_key = key == "rc" ? "ripple" : "rc";
    const std::string dir = make_temp_dir();
    make_dist_engine(key, model, c.snapshot, c.features, partition)
        ->write_checkpoint(dir, 0);
    make_dist_engine(key, model, c.snapshot, c.features, partition)
        ->write_checkpoint(dir, 2);
    make_dist_engine(other_key, model, c.snapshot, c.features, partition)
        ->write_checkpoint(dir, 4);
    EXPECT_FALSE(restore_error(key, dir).has_value());
    const std::string rank0 = checkpoint_path(dir, 0, 0);
    const std::vector<std::uint8_t> valid = slurp(rank0);
    for (const std::string& impostor :
         {checkpoint_path(dir, 0, 1), checkpoint_path(dir, 2, 0),
          checkpoint_path(dir, 4, 0)}) {
      SCOPED_TRACE(impostor);
      dump(rank0, slurp(impostor));
      EXPECT_EQ(restore_error(key, dir), TransportErrorKind::kCorrupt);
    }
    dump(rank0, valid);
    EXPECT_FALSE(restore_error(key, dir).has_value());
  }
}

}  // namespace
}  // namespace ripple
