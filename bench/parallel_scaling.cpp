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
// thread counts: `embedding_hash` (FNV-1a over the final embeddings' bits)
// and `mean_tree_size` must match on every row of a group.
//
// Each thread count first runs once untimed (a thread count's first run
// read up to 2.3x slower than its fastest repeat), then kRepeats times on
// fresh engines. A row reports the
// median `mean_propagate_sec` with its min/max, and every repeat's value in
// run order (`repeat_propagate_sec`), so a cold first run shows; the other
// per-run timings come from the median run, and `bootstrap_sec` (the engine
// constructor's wall time) is the median over the repeats. `oversubscribed`
// marks rows whose scheduler is wider than the host's hardware threads.
//
// Emits one JSON object per line on stdout so the BENCH_* trajectory can be
// scraped without parsing tables:
//   {"bench":"parallel_scaling","rmat_a":0.57,"threads":4,"repeats":3,...,
//    "steals":123,"imbalance":1.08,...}
//
// Flags: --vertices=100000 --degree=16 --updates=2000 --batch=100
//        --threads=1,2,4,8 --shards=16 --rmat-a=0.45,0.57,0.75
//        --kernels=auto|scalar --quick --seed=42
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>

#include "bench_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ripple_engine.h"
#include "graph/generators.h"

using namespace ripple;

namespace {

constexpr std::size_t kRepeats = 3;

// FNV-1a over the bits of every layer of the store.
std::uint64_t embedding_hash(const EmbeddingStore& store) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t l = 0; l <= store.num_layers(); ++l) {
    const Matrix& m = store.layer(l);
    const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
    for (std::size_t i = 0; i < m.size() * sizeof(float); ++i) {
      h = (h ^ bytes[i]) * 1099511628211ull;
    }
  }
  return h;
}

}  // namespace

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
    // same a-group (pass 1 first for a vs-1-thread number), median to median.
    double baseline_propagate = -1;
    for (const auto threads : thread_counts) {
      ThreadPool pool(static_cast<std::size_t>(threads));
      RippleOptions options;
      options.num_shards = num_shards;
      std::vector<bench::RunMetrics> runs;
      std::vector<double> bootstrap_secs;
      std::uint64_t hash = 0;
      {
        RippleEngine warmup(model, graph, features, &pool, options);
        bench::run_stream(warmup, stream, batch_size);
      }
      for (std::size_t r = 0; r < kRepeats; ++r) {
        const StopWatch bootstrap;
        RippleEngine engine(model, graph, features, &pool, options);
        bootstrap_secs.push_back(bootstrap.elapsed_sec());
        runs.push_back(bench::run_stream(engine, stream, batch_size));
        const std::uint64_t run_hash = embedding_hash(engine.embeddings());
        RIPPLE_CHECK_MSG(r == 0 || run_hash == hash,
                         "embeddings differ between repeats");
        hash = run_hash;
      }
      std::string repeat_propagate;
      for (const bench::RunMetrics& r : runs) {
        if (!repeat_propagate.empty()) repeat_propagate += ',';
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", r.mean_propagate_sec);
        repeat_propagate += buf;
      }
      std::sort(runs.begin(), runs.end(), [](const auto& x, const auto& y) {
        return x.mean_propagate_sec < y.mean_propagate_sec;
      });
      const bench::RunMetrics& run = runs[kRepeats / 2];
      if (baseline_propagate < 0) {
        baseline_propagate = run.mean_propagate_sec;
      }
      const double speedup = run.mean_propagate_sec > 0
                                 ? baseline_propagate / run.mean_propagate_sec
                                 : 0;
      const bool oversubscribed =
          run.sched.width > std::thread::hardware_concurrency();
      std::printf(
          "{\"bench\":\"parallel_scaling\",\"dataset\":\"rmat\","
          "\"kernels\":\"%s\",\"rmat_a\":%.4g,"
          "\"vertices\":%zu,\"edges\":%zu,\"layers\":3,\"feat_dim\":%zu,"
          "\"hidden_dim\":64,\"updates\":%zu,\"batch_size\":%zu,"
          "\"shards\":%zu,\"threads\":%lld,\"oversubscribed\":%s,"
          "\"repeats\":%zu,\"num_batches\":%zu,\"bootstrap_sec\":%.6g,"
          "\"throughput_ups\":%.6g,\"median_latency_sec\":%.6g,"
          "\"mean_update_sec\":%.6g,\"mean_propagate_sec\":%.6g,"
          "\"mean_propagate_sec_min\":%.6g,\"mean_propagate_sec_max\":%.6g,"
          "\"repeat_propagate_sec\":[%s],"
          "\"mean_apply_phase_sec\":%.6g,\"mean_compute_phase_sec\":%.6g,"
          "\"mean_tree_size\":%.6g,\"embedding_hash\":\"%016llx\","
          "\"sched_width\":%zu,\"tasks\":%llu,"
          "\"steals\":%llu,\"busy_max_sec\":%.6g,\"busy_total_sec\":%.6g,"
          "\"imbalance\":%.4g,\"propagate_speedup_vs_first\":%.4g}\n",
          kernel_isa, a, graph.num_vertices(), graph.num_edges(), feat_dim,
          stream.size(), batch_size, run.num_shards,
          static_cast<long long>(run.num_threads),
          oversubscribed ? "true" : "false", kRepeats, run.num_batches,
          median(bootstrap_secs), run.throughput_ups, run.median_latency_sec,
          run.mean_update_sec, run.mean_propagate_sec,
          runs.front().mean_propagate_sec, runs.back().mean_propagate_sec,
          repeat_propagate.c_str(), run.mean_apply_phase_sec, run.mean_compute_phase_sec,
          run.mean_tree_size, static_cast<unsigned long long>(hash),
          run.sched.width,
          static_cast<unsigned long long>(run.sched.tasks),
          static_cast<unsigned long long>(run.sched.steals),
          run.sched.busy_max_sec, run.sched.busy_total_sec,
          run.sched.imbalance(), speedup);
      std::fflush(stdout);
    }
  }
  return 0;
}
