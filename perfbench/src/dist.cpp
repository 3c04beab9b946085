// dist-tcp-drift: distributed Ripple in BSP mode over two forked-loopback
// TcpTransport ranks (one process per rank, no thread pool), fed the
// drifting hot-window R-MAT stream of bench/drift_rmat.h at a larger scale.
// Between batches, each window shift runs a propose_migration + migrate()
// superstep, and every few batches each rank writes a checkpoint. The loop
// is closed: the leader's next batch starts only after the previous one
// committed on every rank (the BSP barriers enforce it).
#include <unistd.h>

#include <cstring>
#include <filesystem>

#include "blob.h"
#include "core/ripple_engine.h"
#include "dist/loopback.h"
#include "dist_util.h"
#include "drift_rmat.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using namespace ripple;

constexpr std::size_t kRanks = 2;
constexpr std::size_t kWarmupBatches = 8;
constexpr std::size_t kTimedBatches = 128;
constexpr std::size_t kBatchesPerWindow = 16;
constexpr std::size_t kCheckpointEvery = 32;
// Touched-vertex counts of older batches fade by this factor per batch, so
// the skew signal follows the current hot window.
constexpr double kSignalDecay = 0.5;

bench::DriftConfig drift_config(std::uint64_t seed) {
  bench::DriftConfig dc;
  dc.num_vertices = 16384;
  dc.base_edges = dc.num_vertices * 8;
  dc.feat_dim = 32;
  dc.window = dc.num_vertices / (2 * kRanks);
  dc.batches_per_window = kBatchesPerWindow;
  dc.batch_size = 256;
  dc.num_windows = (kWarmupBatches + kTimedBatches + kBatchesPerWindow - 1) /
                   kBatchesPerWindow;
  dc.seed = seed;
  return dc;
}

MigrationOptions migration_options() {
  MigrationOptions m;
  m.hot_factor = 1.0;
  m.max_moves = 64;
  m.capacity_slack = 1.3;
  m.swap_backfill = true;
  return m;
}

// Everything a round needs, built from the seed before the ranks fork (so
// they share it copy-on-write).
struct DistCase {
  bench::DriftScenario scenario;
  Matrix features;
  GnnModel model;
  Partition partition;
};

DistCase make_case(std::uint64_t seed) {
  const bench::DriftConfig dc = drift_config(seed);
  bench::DriftScenario scenario = bench::make_drift_scenario(dc);
  Rng rng(seed + 1);
  Matrix features(scenario.num_vertices, dc.feat_dim);
  for (std::size_t r = 0; r < scenario.num_vertices; ++r) {
    for (auto& v : features.row(r)) v = rng.next_float(-1.0f, 1.0f);
  }
  const auto config = workload_config(Workload::gc_s, dc.feat_dim, 16, 2, 32);
  Partition partition = bench::make_partition(scenario.snapshot, kRanks);
  return {std::move(scenario), std::move(features),
          GnnModel::random(config, seed + 2), std::move(partition)};
}

// What one rank reports about its round.
struct RankReport {
  double ready_us = 0;  // mesh connected and engine bootstrapped
  double timed_start_us = 0;
  double timed_end_us = 0;
  std::vector<double> latency_ms;  // leader only
  std::map<std::string, double> figures;
  std::vector<Span> spans;
  std::vector<float> store;  // leader only: gathered H^0..H^L, layer-major
};

std::vector<std::uint8_t> encode(const RankReport& r) {
  BlobWriter w;
  w.put(r.ready_us);
  w.put(r.timed_start_us);
  w.put(r.timed_end_us);
  w.put(r.latency_ms);
  w.put(r.figures);
  w.put(r.spans);
  w.put(r.store);
  return w.take();
}

RankReport decode(const std::vector<std::uint8_t>& blob) {
  BlobReader rd(blob);
  RankReport r;
  rd.get(r.ready_us);
  rd.get(r.timed_start_us);
  rd.get(r.timed_end_us);
  rd.get(r.latency_ms);
  rd.get(r.figures);
  rd.get(r.spans);
  rd.get(r.store);
  RIPPLE_CHECK(rd.done());
  return r;
}

// One rank's round: connect, bootstrap, stream every batch with the
// between-batch migrate/checkpoint calls, gather at the leader.
RankReport rank_round(const DistCase& c, const std::vector<UpdateBatch>& batches,
                      const TcpConfig& config, std::size_t round, bool traced,
                      const std::string& checkpoint_dir) {
  const auto rank = static_cast<std::uint32_t>(config.rank);
  const bool leader = rank == 0;
  RankReport report;
  Tracer tracer(traced, rank);
  auto engine = make_dist_engine(
      "ripple", c.model, c.scenario.snapshot, c.features, c.partition,
      nullptr,
      std::make_unique<TcpTransport>(kRanks, TransportOptions{}, config),
      SchedulerMode::kSteal, ExecMode::kBsp);
  report.ready_us = now_us();

  const MigrationOptions migration = migration_options();
  SkewSignal signal;
  double wire_bytes = 0, wire_messages = 0, tree_size = 0, moves = 0;
  double compute_sec = 0, comm_sec = 0, barrier_sec = 0;
  double retries = 0, timeouts = 0, heartbeats = 0;
  const std::size_t total = kWarmupBatches + kTimedBatches;
  for (std::size_t b = 0; b < total; ++b) {
    const bool timed = b >= kWarmupBatches;
    const std::uint64_t id = batch_id(round, b);
    if (b == kWarmupBatches) report.timed_start_us = now_us();
    if (c.scenario.shifts_before(b)) {
      // Every rank derives the same plan: the signal counts touched
      // vertices against the replicated partition, never measured seconds.
      MigrationPlan plan;
      {
        ScopedSpan span(tracer, "partition.propose", id);
        plan = propose_migration(engine->graph(), engine->partition(), signal,
                                 migration);
      }
      ScopedSpan span(tracer, "dist.migrate", id);
      const std::size_t executed = engine->migrate(std::move(plan));
      if (timed) moves += static_cast<double>(executed);
    }
    const double t0 = now_us();
    DistBatchResult result;
    {
      ScopedSpan span(tracer, "dist.apply_batch", id);
      result = engine->apply_batch(batches[b]);
    }
    const double t1 = now_us();
    for (double& v : signal.busy_sec) v *= kSignalDecay;
    for (const GraphUpdate& u : batches[b]) {
      signal.accumulate(engine->partition().part_of(u.u), 1.0);
      if (u.is_edge_update()) {
        signal.accumulate(engine->partition().part_of(u.v), 1.0);
      }
    }
    if (timed) {
      if (leader) report.latency_ms.push_back((t1 - t0) / 1e3);
      wire_bytes += static_cast<double>(result.wire_bytes);
      wire_messages += static_cast<double>(result.wire_messages);
      tree_size += static_cast<double>(result.propagation_tree_size);
      compute_sec += result.compute_sec;
      comm_sec += result.comm_sec;
      barrier_sec += result.barrier_wait_sec.at(rank);
      retries += static_cast<double>(result.retries);
      timeouts += static_cast<double>(result.timeouts);
      heartbeats += static_cast<double>(result.heartbeats);
      if (b + 1 == total) report.timed_end_us = t1;
    }
    if ((b + 1) % kCheckpointEvery == kCheckpointEvery / 2) {
      ScopedSpan span(tracer, "dist.checkpoint", id);
      engine->write_checkpoint(checkpoint_dir, b + 1);
    }
  }
  EmbeddingStore store;
  {
    ScopedSpan span(tracer, "dist.gather", batch_id(round, total));
    store = engine->gather_embeddings();
  }
  if (leader) {
    for (std::size_t l = 0; l <= store.num_layers(); ++l) {
      const Matrix& m = store.layer(l);
      report.store.insert(report.store.end(), m.data(), m.data() + m.size());
    }
  }
  const double n = static_cast<double>(kTimedBatches);
  auto& f = report.figures;
  f["wire_bytes"] = wire_bytes;
  f["wire_messages"] = wire_messages;
  f["tree_size"] = tree_size;
  f["moves"] = moves;
  f["edge_cut"] =
      static_cast<double>(engine->partition().edge_cut(engine->graph()));
  f["compute_ms"] = compute_sec * 1e3 / n;
  f["comm_ms"] = comm_sec * 1e3 / n;
  f["barrier_wait_ms"] = barrier_sec * 1e3 / n;
  f["retries"] = retries;
  f["timeouts"] = timeouts;
  f["heartbeats"] = heartbeats;
  f["memory_mb"] =
      static_cast<double>(engine->memory_bytes()) / (1024.0 * 1024.0);
  f["peak_rss_mb"] = peak_rss_mb();
  report.spans = tracer.take();
  for (const char* name : {"dist.apply_batch", "dist.migrate",
                           "dist.checkpoint", "dist.gather",
                           "partition.propose"}) {
    f[std::string(name) + "_ms"] = span_totals(report.spans, name).mean_ms();
  }
  return report;
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// Correctness gate: the leader's gathered embeddings must be bit-identical
// to a single-machine RippleEngine replay of the same batches. Also counts
// the replay's incremental ops over the timed batches (the dist engine
// does not report them; the work is the same by the exactness contract).
Check check_against_replay(const DistCase& c,
                           const std::vector<UpdateBatch>& batches,
                           const std::vector<float>& gathered,
                           std::uint64_t& incremental_ops) {
  RippleEngine replay(c.model, c.scenario.snapshot, c.features);
  std::uint64_t ops_before = 0;
  for (std::size_t b = 0; b < kWarmupBatches + kTimedBatches; ++b) {
    if (b == kWarmupBatches) ops_before = replay.incremental_ops();
    replay.apply_batch(batches[b]);
  }
  incremental_ops = replay.incremental_ops() - ops_before;
  const EmbeddingStore& want = replay.embeddings();
  std::size_t expected_floats = 0;
  for (std::size_t l = 0; l <= want.num_layers(); ++l) {
    expected_floats += want.layer(l).size();
  }
  if (gathered.size() != expected_floats) {
    return {false, "leader gathered " + std::to_string(gathered.size()) +
                       " floats, expected " + std::to_string(expected_floats)};
  }
  std::size_t at = 0;
  std::size_t mismatched_rows = 0;
  for (std::size_t l = 0; l <= want.num_layers(); ++l) {
    const Matrix& m = want.layer(l);
    for (std::size_t v = 0; v < m.rows(); ++v) {
      if (std::memcmp(m.row(v).data(), gathered.data() + at,
                      m.cols() * sizeof(float)) != 0) {
        ++mismatched_rows;
      }
      at += m.cols();
    }
  }
  return {mismatched_rows == 0,
          std::to_string(mismatched_rows) +
              " rows differ bitwise between the leader's gather and a "
              "single-machine replay"};
}

// One round, run in its own process: build the case, fork the two ranks,
// collect their reports, then check the gathered state.
RoundResult dist_round(const Options& o, std::size_t round, bool traced) {
  RoundResult r;
  r.traced = traced;
  const StopWatch setup;
  const DistCase c = make_case(o.seed);
  const auto batches = make_batches(c.scenario.stream, c.scenario.batch_size);
  const std::size_t total = kWarmupBatches + kTimedBatches;
  RIPPLE_CHECK(batches.size() >= total);
  const std::string dir = o.out_dir + "/ckpt-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const double data_sec = setup.elapsed_sec();
  const double fork_us = now_us();

  const auto blobs = run_loopback_ranks(
      kRanks, [&](const TcpConfig& config) -> std::vector<std::uint8_t> {
        return encode(rank_round(c, batches, config, round, traced, dir));
      });
  std::vector<RankReport> ranks;
  for (const auto& blob : blobs) ranks.push_back(decode(blob));
  const RankReport& leader = ranks[0];

  double ready_us = fork_us;
  for (const RankReport& rank : ranks) {
    ready_us = std::max(ready_us, rank.ready_us);
    r.peak_rss_mb = std::max(r.peak_rss_mb, rank.figures.at("peak_rss_mb"));
  }
  r.setup_sec = data_sec + (ready_us - fork_us) / 1e6;
  r.attempted = total * c.scenario.batch_size;
  r.committed = kTimedBatches * c.scenario.batch_size;
  r.timed_sec = (leader.timed_end_us - leader.timed_start_us) / 1e6;
  r.latency_ms = leader.latency_ms;

  const auto sum = [&](const char* name) {
    double s = 0;
    for (const RankReport& rank : ranks) s += rank.figures.at(name);
    return s;
  };
  const auto count = [](double v) { return static_cast<std::uint64_t>(v); };
  r.exact["dist.wire_bytes"] = count(sum("wire_bytes"));
  r.exact["dist.wire_messages"] = count(sum("wire_messages"));
  r.exact["core.tree_size"] = count(leader.figures.at("tree_size"));
  r.exact["dist.moves"] = count(leader.figures.at("moves"));
  r.exact["partition.edge_cut"] = count(leader.figures.at("edge_cut"));
  r.exact["dist.checkpoint_bytes"] = directory_bytes(dir);
  std::filesystem::remove_all(dir);

  r.state_hash = hash_bytes(leader.store.data(),
                            leader.store.size() * sizeof(float));
  // The replay costs about a third of a round, so only round 0 (the
  // correctness gate) and traced rounds (the op count) run it; every other
  // round must reproduce round 0's state hash.
  if (round == 0 || traced) {
    std::uint64_t incremental_ops = 0;
    r.check = check_against_replay(c, batches, leader.store, incremental_ops);
    r.layer["core.incremental_ops"] = static_cast<double>(incremental_ops);
  }

  if (traced) {
    const auto& f = leader.figures;
    r.layer["dist.batch_ms"] = f.at("dist.apply_batch_ms");
    r.layer["dist.compute_ms"] = f.at("compute_ms");
    r.layer["dist.comm_ms"] = f.at("comm_ms");
    r.layer["dist.barrier_wait_ms.r0"] = ranks[0].figures.at("barrier_wait_ms");
    r.layer["dist.barrier_wait_ms.r1"] = ranks[1].figures.at("barrier_wait_ms");
    double memory = 0;
    for (const RankReport& rank : ranks) {
      memory = std::max(memory, rank.figures.at("memory_mb"));
    }
    r.layer["dist.rank_memory_mb"] = memory;
    r.layer["dist.migrate_ms"] = f.at("dist.migrate_ms");
    r.layer["dist.checkpoint_write_ms"] = f.at("dist.checkpoint_ms");
    r.layer["dist.gather_ms"] = f.at("dist.gather_ms");
    r.layer["partition.propose_ms"] = f.at("partition.propose_ms");
    r.layer["transport.retries"] = sum("retries");
    r.layer["transport.timeouts"] = sum("timeouts");
    r.layer["transport.heartbeats"] = sum("heartbeats");
    for (RankReport& rank : ranks) append_spans(r.spans, std::move(rank.spans));
  }
  return r;
}

}  // namespace

RunResult run_dist_tcp_drift(const Options& options) {
  return {run_rounds(options,
                     [&](std::size_t round, bool traced) {
                       return dist_round(options, round, traced);
                     }),
          {"rank 0 (leader)", "rank 1"}};
}

}  // namespace perfbench
