// Recovery bench (docs/fault_tolerance.md): what fault tolerance costs and
// what recovery takes, on the committed perf trajectory.
//
//   * checkpoint_stall_sec — seconds the stream stalls in write_checkpoint()
//     to snapshot every rank's owned rows, the periodic tax a checkpointed
//     stream pays every K batches;
//   * checkpoint_write_sec — seconds the background commits take (CRC,
//     write, fsync, atomic rename; dist/checkpoint.h), as flush_checkpoint()
//     reports them — overlapped with the next batches, not on their path;
//   * checkpoint_bytes    — on-disk size of one complete cursor set, the
//     durability footprint;
//   * restore_sec          — rebuilding engine state from the files
//     (install + the ripple halo-refill superstep);
//   * recovery_replay_sec  — replaying the stream suffix from the restored
//     cursor to the failure point's end state.
//
// Each row ends with "exact": the recovered embeddings compared bit-for-bit
// against the uninterrupted run — the recovery property of
// tests/dist/test_checkpoint.cpp, re-asserted at bench scale on every
// recorded trajectory.
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/timer.h"
#include "dist/checkpoint.h"
#include "dist_util.h"

using namespace ripple;

namespace {

std::string make_temp_dir() {
  std::string path = "/tmp/ripple_recovery_XXXXXX";
  RIPPLE_CHECK_MSG(::mkdtemp(path.data()) != nullptr,
                   "mkdtemp failed for " << path);
  return path;
}

// Structural replay of the stream prefix: recovery rebuilds topology from
// the durable update log (here, the stream itself); restored H^0 rows come
// from the checkpoint files, not from features.
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

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  apply_kernel_flag(flags);
  const bool quick = flags.has("quick");
  const bool json = flags.has("json");
  const double scale = flags.get_double("scale", quick ? 0.03 : 0.25);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto batch_size =
      static_cast<std::size_t>(flags.get_int("batch-size", 100));
  const auto checkpoint_every =
      static_cast<std::size_t>(flags.get_int("checkpoint-every", 4));
  const auto part_counts = flags.get_int_list(
      "partitions", quick ? std::vector<std::int64_t>{4, 8}
                          : std::vector<std::int64_t>{4, 8, 16});
  set_log_level(log_level::warn);
  const auto transport = TransportOptions::from_flags(flags);

  if (!json) {
    bench::print_header("Recovery: checkpoint tax + restore/replay cost");
  }
  const auto prepared =
      bench::prepare("papers-s", scale, quick ? 800 : 4000, seed);
  const auto& ds = prepared.dataset;
  const auto config = workload_config(Workload::gc_s, ds.spec.feat_dim,
                                      ds.spec.num_classes, 3, 64);
  const auto model = GnnModel::random(config, seed);
  const auto batches = make_batches(prepared.stream, batch_size);

  TextTable table({"Engine", "Parts", "Ckpts", "Stall (s)", "Write (s)",
                   "Ckpt bytes", "Restore (s)", "Replay (s)", "Replayed",
                   "Exact"});
  for (const auto parts : part_counts) {
    const auto num_parts = static_cast<std::size_t>(parts);
    const auto partition = bench::make_partition(ds.graph, num_parts);
    for (const char* key : {"rc", "ripple"}) {
      const std::string dir = make_temp_dir();

      // The streaming run, paying the periodic checkpoint tax. On the sim
      // transport this process hosts every rank, so each write_checkpoint
      // call produces one COMPLETE cursor set — stall and write seconds
      // cover all ranks' files. Each commit's own seconds are collected by
      // flushing it just before the next write, which would wait for it
      // anyway.
      auto engine = make_dist_engine(key, model, ds.graph, ds.features,
                                     partition, nullptr, transport);
      double stall_sec = 0;
      double write_sec = 0;
      std::size_t checkpoints = 0;
      std::size_t applied = 0;
      for (const auto& batch : batches) {
        engine->apply_batch(batch);
        ++applied;
        // No checkpoint at the very end of the stream: the modeled failure
        // is AFTER the last batch, so recovery always has a real suffix to
        // replay — the dominant cost the row exists to record.
        if (applied % checkpoint_every == 0 && applied != batches.size()) {
          write_sec += engine->flush_checkpoint();
          stall_sec += engine->write_checkpoint(dir, applied);
          ++checkpoints;
        }
      }
      // The last commit must reach its rename first, or recovery would
      // silently start from an older cursor and replay more.
      write_sec += engine->flush_checkpoint();

      // Recovery from the last complete cursor: prefix topology, fresh
      // engine, restore, replay the suffix.
      const auto cursor = latest_checkpoint_cursor(dir, num_parts);
      RIPPLE_CHECK_MSG(cursor.has_value(),
                       "no complete checkpoint set in " << dir);
      std::size_t checkpoint_bytes = 0;
      for (std::size_t r = 0; r < num_parts; ++r) {
        checkpoint_bytes += std::filesystem::file_size(
            checkpoint_path(dir, *cursor, r));
      }
      const std::size_t prefix_updates =
          std::min(*cursor * batch_size, prepared.stream.size());
      const DynamicGraph topo = topology_at(
          ds.graph, std::span<const GraphUpdate>(prepared.stream.data(),
                                                 prefix_updates));
      auto recovered = make_dist_engine(key, model, topo, ds.features,
                                        partition, nullptr, transport);
      StopWatch restore_watch;
      recovered->restore_checkpoint(dir, *cursor);
      const double restore_sec = restore_watch.elapsed_sec();
      StopWatch replay_watch;
      for (std::size_t i = *cursor; i < batches.size(); ++i) {
        recovered->apply_batch(batches[i]);
      }
      const double replay_sec = replay_watch.elapsed_sec();
      const std::size_t replayed = batches.size() - *cursor;

      // The recovered run must be indistinguishable from the uninterrupted
      // one — bit-for-bit, on every recorded trajectory.
      const EmbeddingStore a = engine->gather_embeddings();
      const EmbeddingStore b = recovered->gather_embeddings();
      bool exact = true;
      for (std::size_t l = 0; l <= a.num_layers() && exact; ++l) {
        for (VertexId v = 0; v < a.num_vertices() && exact; ++v) {
          const auto ra = a.layer(l).row(v);
          const auto rb = b.layer(l).row(v);
          exact = std::memcmp(ra.data(), rb.data(),
                              ra.size() * sizeof(float)) == 0;
        }
      }
      std::filesystem::remove_all(dir);

      if (json) {
        std::printf(
            "{\"bench\":\"recovery\",\"dataset\":\"papers-s\","
            "\"engine\":\"%s\",\"parts\":%zu,"
            "\"batch_size\":%zu,\"num_batches\":%zu,"
            "\"checkpoint_every\":%zu,\"checkpoints\":%zu,"
            "\"checkpoint_stall_sec\":%.6g,\"checkpoint_write_sec\":%.6g,"
            "\"mean_checkpoint_write_sec\":%.6g,"
            "\"checkpoint_bytes\":%zu,\"restore_cursor\":%llu,"
            "\"restore_sec\":%.6g,\"recovery_replay_sec\":%.6g,"
            "\"replayed_batches\":%zu,\"exact\":%s}\n",
            key, num_parts, batch_size, batches.size(),
            checkpoint_every, checkpoints, stall_sec, write_sec,
            checkpoints ? write_sec / static_cast<double>(checkpoints) : 0.0,
            checkpoint_bytes,
            static_cast<unsigned long long>(*cursor), restore_sec,
            replay_sec, replayed, exact ? "true" : "false");
        std::fflush(stdout);
      } else {
        table.add_row({key, TextTable::fmt_int(parts),
                       TextTable::fmt_int(static_cast<std::int64_t>(checkpoints)),
                       TextTable::fmt(stall_sec, 4),
                       TextTable::fmt(write_sec, 4),
                       TextTable::fmt_si(static_cast<double>(checkpoint_bytes)),
                       TextTable::fmt(restore_sec, 4),
                       TextTable::fmt(replay_sec, 4),
                       TextTable::fmt_int(static_cast<std::int64_t>(replayed)),
                       exact ? "yes" : "NO"});
      }
      RIPPLE_CHECK_MSG(exact, "recovered embeddings diverged (" << key << ", "
                                  << num_parts << " parts)");
    }
  }
  if (json) return 0;
  table.print();
  std::printf(
      "\nExpected shape: checkpoint writes cost milliseconds per cursor set\n"
      "(owned rows only, no topology), most of them in the background write\n"
      "rather than the stall, restore is one install + halo-refill\n"
      "superstep, and replay dominates recovery — its length is the distance\n"
      "to the last checkpoint, i.e. the checkpoint interval buys recovery\n"
      "time with write tax. \"Exact\" must read yes on every row.\n");
  return 0;
}
