// Drifting-hot-region scenario: static partitioning vs online migration
// (docs/repartition.md).
//
// The stream (bench/drift_rmat.h) concentrates updates on a hot vertex
// window that shifts every K batches. The STATIC policy keeps the load-time
// LDG+refine partition for the whole run; the MIGRATE policy accumulates
// per-rank busy evidence (DistBatchResult::busy_share_sec, exponentially
// decayed so stale windows fade) into a SkewSignal and executes the skew
// detector's plan between batches. Both runs compute BIT-IDENTICAL
// embeddings (tests/dist/test_dist_migration.cpp); this bench records what
// the exactness costs bought:
//   - modeled makespan (Σ per-batch total_sec): migration re-balances the
//     hot window across compute and un-cuts its fresh edges, so the
//     per-hop max and the exchange traffic both shrink;
//   - peak max-rank memory_bytes(): the static run's halo grows with its
//     ever-increasing cut (the add-heavy stream keeps wiring the hot window
//     across the old boundary), while migration un-cuts those edges and the
//     HaloCache trailing trim releases the freed slots; swap-backfilled
//     plans (MigrationOptions::swap_backfill) plus the two-pass rehome keep
//     every rank's owned-row count flat, so churn adds no store high-water.
// Both the table and the rows also report propose_ms, the mean wall ms of
// one propose_migration call (the planner cost between batches; 0 for the
// static policy, which never proposes).
// --json emits one row per policy for bench/record_bench.sh.
#include <cstring>

#include "dist_util.h"
#include "drift_rmat.h"

using namespace ripple;

namespace {

struct PolicyMetrics {
  std::string policy;
  double makespan_sec = 0;
  double comm_sec = 0;
  std::size_t wire_bytes = 0;
  std::size_t wire_messages = 0;
  std::size_t peak_rank_memory_bytes = 0;
  std::size_t final_rank_memory_bytes = 0;
  std::size_t moves = 0;
  std::size_t migrations = 0;  // nonempty migration supersteps
  double propose_ms = 0;       // mean wall ms per propose_migration call
  double busy_imbalance = 1.0;
  EmbeddingStore final_embeddings;  // leader gather after the last batch
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  apply_kernel_flag(flags);
  const bool quick = flags.has("quick");
  const bool json = flags.has("json");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto parts =
      static_cast<std::size_t>(flags.get_int("partitions", 4));
  MigrationOptions options;
  options.hot_factor = flags.get_double("hot-factor", 1.0);
  options.max_moves =
      static_cast<std::size_t>(flags.get_int("max-moves", quick ? 32 : 64));
  options.capacity_slack = flags.get_double("capacity-slack", 1.3);
  options.swap_backfill = !flags.has("no-swap-backfill");
  const double decay = flags.get_double("signal-decay", 0.5);
  // Modeled makespan still carries each batch's MEASURED compute term, so a
  // scheduler hiccup can inflate one run; min-of-N is the standard
  // noise-robust estimator (graph state, moves and memory are deterministic
  // and identical across repeats).
  const int repeats = static_cast<int>(flags.get_int("repeats", quick ? 1 : 3));
  set_log_level(log_level::warn);
  const auto transport = TransportOptions::from_flags(flags);

  bench::DriftConfig dc;
  dc.num_vertices =
      static_cast<std::size_t>(flags.get_int("vertices", quick ? 512 : 2048));
  dc.base_edges = dc.num_vertices * static_cast<std::size_t>(flags.get_int(
                                        "base-degree", quick ? 4 : 1));
  dc.window = dc.num_vertices / (2 * parts);
  dc.num_windows =
      static_cast<std::size_t>(flags.get_int("windows", quick ? 3 : 10));
  dc.batches_per_window = static_cast<std::size_t>(
      flags.get_int("batches-per-window", quick ? 2 : 3));
  dc.batch_size =
      static_cast<std::size_t>(flags.get_int("batch-size", quick ? 48 : 96));
  dc.seed = seed;
  const auto scenario = bench::make_drift_scenario(dc);
  const auto batches = make_batches(scenario.stream, dc.batch_size);

  Rng feat_rng(seed + 1);
  Matrix features(scenario.num_vertices, dc.feat_dim);
  for (std::size_t r = 0; r < scenario.num_vertices; ++r) {
    for (auto& v : features.row(r)) v = feat_rng.next_float(-1.0f, 1.0f);
  }
  const auto config = workload_config(Workload::gs_s, dc.feat_dim, 16, 2, 16);
  const auto model = GnnModel::random(config, seed + 2);

  if (!json) {
    bench::print_header(
        "Drifting hot region: static partition vs online migration");
    std::printf("n=%zu m=%zu, %zu parts, window %zu x %zu shifts, "
                "%zu batches of %zu\n",
                scenario.num_vertices, scenario.snapshot.num_edges(), parts,
                dc.window, dc.num_windows, batches.size(), dc.batch_size);
  }

  const auto run_policy = [&](bool migrate) {
    PolicyMetrics m;
    m.policy = migrate ? "migrate" : "static";
    const auto partition = bench::make_partition(scenario.snapshot, parts);
    auto engine = make_dist_engine(
        "ripple", model, scenario.snapshot, features, partition, nullptr,
        transport);
    SkewSignal signal;
    Timer propose;
    for (const auto& batch : batches) {
      const DistBatchResult result = engine->apply_batch(batch);
      m.makespan_sec += result.total_sec();
      m.comm_sec += result.comm_sec;
      m.wire_bytes += result.wire_bytes;
      m.wire_messages += result.wire_messages;
      m.peak_rank_memory_bytes =
          std::max(m.peak_rank_memory_bytes, engine->memory_bytes());
      if (flags.has("trace")) {
        std::printf("TRACE %s mem=%zu cut=%zu\n", m.policy.c_str(),
                    engine->memory_bytes(),
                    engine->partition().edge_cut(engine->graph()));
      }
      for (double& v : signal.busy_sec) v *= decay;  // stale windows fade
      for (std::size_t p = 0; p < result.num_parts; ++p) {
        signal.accumulate(p, result.busy_share_sec(p));
      }
      if (migrate) {
        propose.start();
        MigrationPlan plan = propose_migration(
            engine->graph(), engine->partition(), signal, options);
        propose.stop();
        const std::size_t executed = engine->migrate(std::move(plan));
        m.moves += executed;
        m.migrations += executed > 0 ? 1 : 0;
      }
    }
    m.propose_ms = propose.mean_sec() * 1e3;
    m.final_rank_memory_bytes = engine->memory_bytes();
    m.busy_imbalance = signal.imbalance(parts);
    m.final_embeddings = engine->gather_embeddings();
    return m;
  };

  const auto run_best = [&](bool migrate) {
    PolicyMetrics best = run_policy(migrate);
    for (int r = 1; r < repeats; ++r) {
      const PolicyMetrics m = run_policy(migrate);
      if (m.makespan_sec < best.makespan_sec) {
        best.makespan_sec = m.makespan_sec;
        best.comm_sec = m.comm_sec;
      }
      best.propose_ms = std::min(best.propose_ms, m.propose_ms);
    }
    return best;
  };
  const PolicyMetrics st = run_best(false);
  const PolicyMetrics mg = run_best(true);
  // Migration moves ownership, never values: both policies must gather the
  // same bits.
  for (std::size_t l = 0; l <= st.final_embeddings.num_layers(); ++l) {
    const Matrix& a = st.final_embeddings.layer(l);
    const Matrix& b = mg.final_embeddings.layer(l);
    RIPPLE_CHECK_MSG(std::memcmp(a.data(), b.data(),
                                 a.size() * sizeof(float)) == 0,
                     "migrated embeddings diverged from static at layer "
                         << l);
  }

  if (json) {
    for (const auto* m : {&st, &mg}) {
      std::printf(
          "{\"bench\":\"drift_scenario\",\"policy\":\"%s\",\"parts\":%zu,"
          "\"num_vertices\":%zu,\"windows\":%zu,\"batches\":%zu,"
          "\"batch_size\":%zu,\"makespan_sec\":%.6g,\"comm_sec\":%.6g,"
          "\"wire_bytes\":%zu,\"wire_messages\":%zu,"
          "\"peak_rank_memory_bytes\":%zu,\"final_rank_memory_bytes\":%zu,"
          "\"moves\":%zu,\"migrations\":%zu,\"propose_ms\":%.6g}\n",
          m->policy.c_str(), parts, scenario.num_vertices, dc.num_windows,
          batches.size(), dc.batch_size, m->makespan_sec, m->comm_sec,
          m->wire_bytes, m->wire_messages, m->peak_rank_memory_bytes,
          m->final_rank_memory_bytes, m->moves, m->migrations,
          m->propose_ms);
    }
    std::fflush(stdout);
    return 0;
  }

  TextTable table({"Policy", "Makespan (s)", "Comm (s)", "Wire bytes",
                   "Messages", "Peak rank mem", "Final rank mem", "Moves",
                   "Propose (ms)"});
  for (const auto* m : {&st, &mg}) {
    table.add_row({m->policy,
                   TextTable::fmt(m->makespan_sec, 4),
                   TextTable::fmt(m->comm_sec, 4),
                   TextTable::fmt_si(static_cast<double>(m->wire_bytes)),
                   TextTable::fmt_int(static_cast<std::int64_t>(
                       m->wire_messages)),
                   TextTable::fmt_si(
                       static_cast<double>(m->peak_rank_memory_bytes)),
                   TextTable::fmt_si(
                       static_cast<double>(m->final_rank_memory_bytes)),
                   TextTable::fmt_int(static_cast<std::int64_t>(m->moves)),
                   m->policy == "migrate" ? TextTable::fmt(m->propose_ms, 3)
                                          : std::string("-")});
  }
  table.print();
  std::printf(
      "\nmigrate/static: makespan %.2fx, peak rank memory %.2fx "
      "(%zu moves over %zu supersteps; embeddings bit-identical)\n",
      st.makespan_sec > 0 ? mg.makespan_sec / st.makespan_sec : 0.0,
      st.peak_rank_memory_bytes > 0
          ? static_cast<double>(mg.peak_rank_memory_bytes) /
                static_cast<double>(st.peak_rank_memory_bytes)
          : 0.0,
      mg.moves, mg.migrations);
  return 0;
}
