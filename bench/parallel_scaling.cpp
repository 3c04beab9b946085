// Thread-count and skew scaling sweep of the shard-parallel propagation
// core: a 3-layer GC-S model over an R-MAT stream, re-run for every
// (R-MAT a, threads) combination. The R-MAT a-parameter axis controls the
// in-degree tail (a = 0.25 is uniform; larger a concentrates edges — and
// therefore mailbox slots — on a few hot shards), which is exactly the
// regime the work-stealing scheduler targets: under static chunking one
// worker would drain the hot shard while the rest idle.
//
// Within one a-group the shard count is fixed, so the numeric work — and,
// by the determinism guarantee, every embedding bit — is identical across
// thread counts.
//
// Emits one JSON object per line on stdout so the BENCH_* trajectory can be
// scraped without parsing tables:
//   {"bench":"parallel_scaling","rmat_a":0.57,"threads":4,...,
//    "steals":123,"imbalance":1.08,...}
//
// Flags: --vertices=100000 --degree=16 --updates=2000 --batch=100
//        --threads=1,2,4,8 --shards=16 --rmat-a=0.45,0.57,0.75
//        --kernels=auto|scalar --quick --seed=42
#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ripple_engine.h"
#include "graph/generators.h"

using namespace ripple;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const char* kernel_isa = apply_kernel_flag(flags);
  const bool quick = flags.has("quick");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto num_vertices = static_cast<std::size_t>(
      flags.get_int("vertices", quick ? 20000 : 100000));
  const auto avg_degree =
      static_cast<std::size_t>(flags.get_int("degree", 16));
  const auto num_updates = static_cast<std::size_t>(
      flags.get_int("updates", quick ? 400 : 2000));
  const auto batch_size =
      static_cast<std::size_t>(flags.get_int("batch", 100));
  const auto num_shards =
      static_cast<std::size_t>(flags.get_int("shards", 16));
  const auto thread_counts =
      flags.get_int_list("threads", {1, 2, 4, 8});
  // Skew axis: remaining R-MAT mass splits evenly over b/c/d, so a = 0.25
  // is the uniform Erdős–Rényi-like mix and a = 0.75 a heavy power-law
  // tail (a = 0.57 sits near the canonical 0.57/0.19/0.19/0.05 mix).
  const auto rmat_as =
      flags.get_double_list("rmat-a", quick ? std::vector<double>{0.57}
                                            : std::vector<double>{0.45, 0.57,
                                                                  0.75});
  set_log_level(log_level::warn);

  const std::size_t feat_dim = 32;
  const std::size_t num_classes = 16;
  const auto config =
      workload_config(Workload::gc_s, feat_dim, num_classes, /*layers=*/3, 64);
  const auto model = GnnModel::random(config, seed + 2);

  for (const double a : rmat_as) {
    Rng rng(seed);
    const double rest = (1.0 - a) / 3.0;
    auto graph = rmat(num_vertices, num_vertices * avg_degree, a, rest, rest,
                      rest, rng);
    const auto features =
        Matrix::random_uniform(graph.num_vertices(), feat_dim, rng);

    StreamConfig stream_config;
    stream_config.num_updates = num_updates;
    stream_config.feat_dim = feat_dim;
    stream_config.seed = seed + 1;
    const auto stream = generate_stream(graph, stream_config);

    std::fprintf(stderr,
                 "parallel_scaling: a=%.3g n=%zu m=%zu updates=%zu batch=%zu "
                 "shards=%zu layers=3\n",
                 a, graph.num_vertices(), graph.num_edges(), stream.size(),
                 batch_size, num_shards);

    // Speedups are reported relative to the FIRST --threads entry of the
    // same a-group (pass 1 first for a vs-1-thread number).
    double baseline_propagate = -1;
    for (const auto threads : thread_counts) {
      ThreadPool pool(static_cast<std::size_t>(threads));
      RippleOptions options;
      options.num_shards = num_shards;
      RippleEngine engine(model, graph, features, &pool, options);
      const auto run = bench::run_stream(engine, stream, batch_size);
      if (baseline_propagate < 0) {
        baseline_propagate = run.mean_propagate_sec;
      }
      const double speedup = run.mean_propagate_sec > 0
                                 ? baseline_propagate / run.mean_propagate_sec
                                 : 0;
      std::printf(
          "{\"bench\":\"parallel_scaling\",\"dataset\":\"rmat\","
          "\"kernels\":\"%s\",\"rmat_a\":%.4g,"
          "\"vertices\":%zu,\"edges\":%zu,\"layers\":3,\"feat_dim\":%zu,"
          "\"hidden_dim\":64,\"updates\":%zu,\"batch_size\":%zu,"
          "\"shards\":%zu,\"threads\":%lld,\"num_batches\":%zu,"
          "\"throughput_ups\":%.6g,\"median_latency_sec\":%.6g,"
          "\"mean_update_sec\":%.6g,\"mean_propagate_sec\":%.6g,"
          "\"mean_apply_phase_sec\":%.6g,\"mean_compute_phase_sec\":%.6g,"
          "\"mean_tree_size\":%.6g,\"sched_width\":%zu,\"tasks\":%llu,"
          "\"steals\":%llu,\"busy_max_sec\":%.6g,\"busy_total_sec\":%.6g,"
          "\"imbalance\":%.4g,\"propagate_speedup_vs_first\":%.4g}\n",
          kernel_isa, a, graph.num_vertices(), graph.num_edges(), feat_dim,
          stream.size(), batch_size, run.num_shards,
          static_cast<long long>(run.num_threads),
          run.num_batches, run.throughput_ups, run.median_latency_sec,
          run.mean_update_sec, run.mean_propagate_sec,
          run.mean_apply_phase_sec, run.mean_compute_phase_sec,
          run.mean_tree_size, run.sched.width,
          static_cast<unsigned long long>(run.sched.tasks),
          static_cast<unsigned long long>(run.sched.steals),
          run.sched.busy_max_sec, run.sched.busy_total_sec,
          run.sched.imbalance(), speedup);
      std::fflush(stdout);
    }
  }
  return 0;
}
