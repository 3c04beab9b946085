// Single-machine workloads: serve-arxiv (StreamingServer over a
// single-threaded RippleEngine, small batches) and bulk-products
// (RippleEngine::apply_batch driven directly, large batches, 2-worker
// work-stealing pool). Both are closed loops: the next batch is submitted
// only after the previous one committed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/ripple_engine.h"
#include "core/serving.h"
#include "infer/layerwise.h"
#include "perfbench.h"

namespace perfbench {
namespace {

using namespace ripple;

struct SingleConfig {
  const char* dataset;
  double scale;
  std::size_t layers;
  std::size_t hidden;
  std::size_t batch_size;
  std::size_t warmup_batches;
  std::size_t timed_batches;
  std::size_t pool_workers;  // 0 = no pool (single-threaded engine)
};

// arxiv-s (in-degree ~6.9), 2-layer GC-S, batches of 10: the paper's
// small-batch regime, where per-batch fixed costs dominate.
constexpr SingleConfig kServe{"arxiv-s", 1.0, 2, 64, 10, 100, 500, 0};
// products-s (in-degree ~25), 3-layer GC-S, batches of 1000 on 2 pool
// workers plus the caller (3 busy threads: the host has 4 cores and the
// harness keeps one): large propagation trees, GEMM/scatter/scheduler bound.
constexpr SingleConfig kBulk{"products-s", 0.25, 3, 64, 1000, 3, 100, 2};

// The 1e-4 ripple-vs-recompute bound of the accuracy-budget test suite.
constexpr double kRecomputeBound = 1e-4;

struct Case {
  bench::Prepared data;  // initial snapshot, features and update stream
  GnnModel model;
};

Case make_case(const SingleConfig& c, std::uint64_t seed) {
  const std::size_t updates =
      (c.warmup_batches + c.timed_batches) * c.batch_size;
  bench::Prepared data = bench::prepare(c.dataset, c.scale, updates, seed);
  const auto config =
      workload_config(Workload::gc_s, data.dataset.spec.feat_dim,
                      data.dataset.spec.num_classes, c.layers, c.hidden);
  return {std::move(data), GnnModel::random(config, seed + 2)};
}

// Applies an engine batch, split into the hop-0 update and the propagation
// when tracing so each gets its own span (apply_batch is exactly the two).
BatchResult apply_traced(RippleEngine& engine, UpdateBatch batch,
                         Tracer& tracer, std::uint64_t id,
                         std::int64_t parent) {
  if (!tracer.enabled()) return engine.apply_batch(batch);
  {
    ScopedSpan span(tracer, "core.update", id, parent);
    engine.update(batch);
  }
  BatchResult result;
  {
    ScopedSpan span(tracer, "core.propagate", id, parent);
    result = engine.propagate();
  }
  result.batch_size = batch.size();
  return result;
}

// Timing decorator the StreamingServer drives in place of the engine, so
// the benchmark sees the engine's share of every flush.
class TimedEngine final : public InferenceEngine {
 public:
  TimedEngine(std::unique_ptr<RippleEngine> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  // Batch id and parent span for the next apply_batch.
  void set_batch(std::uint64_t id, std::int64_t parent) {
    batch_ = id;
    parent_ = parent;
  }
  const BatchResult& last() const { return last_; }
  const RippleEngine& inner() const { return *inner_; }

  const char* name() const override { return inner_->name(); }
  BatchResult apply_batch(UpdateBatch batch) override {
    ScopedSpan span(tracer_, "engine.apply_batch", batch_, parent_);
    last_ = apply_traced(*inner_, batch, tracer_, batch_, span.id());
    return last_;
  }
  const EmbeddingStore& embeddings() const override {
    return inner_->embeddings();
  }
  const DynamicGraph& graph() const override { return inner_->graph(); }
  const GnnModel& model() const override { return inner_->model(); }
  std::size_t memory_bytes() const override { return inner_->memory_bytes(); }

 private:
  std::unique_ptr<RippleEngine> inner_;
  Tracer& tracer_;
  std::uint64_t batch_ = 0;
  std::int64_t parent_ = -1;
  BatchResult last_;
};

// Per-batch engine figures accumulated over the timed phase.
struct EngineTotals {
  std::uint64_t tree_size = 0;
  double apply_phase_sec = 0;
  double compute_phase_sec = 0;
  SchedulerStats sched;
  void add(const BatchResult& r) {
    tree_size += r.propagation_tree_size;
    apply_phase_sec += r.apply_phase_sec;
    compute_phase_sec += r.compute_phase_sec;
    sched.accumulate(r.sched);
  }
};

void record_engine_layers(RoundResult& r, const EngineTotals& t,
                          const RippleEngine& engine, std::size_t batches) {
  const double n = static_cast<double>(batches);
  r.exact["core.tree_size"] = t.tree_size;
  if (!r.traced) return;
  r.layer["core.update_ms"] = span_totals(r.spans, "core.update").mean_ms();
  r.layer["core.propagate_ms"] =
      span_totals(r.spans, "core.propagate").mean_ms();
  r.layer["core.apply_phase_ms"] = t.apply_phase_sec * 1e3 / n;
  r.layer["core.compute_phase_ms"] = t.compute_phase_sec * 1e3 / n;
  r.layer["core.memory_mb"] =
      static_cast<double>(engine.memory_bytes()) / (1024.0 * 1024.0);
  r.layer["sched.tasks"] = static_cast<double>(t.sched.tasks);
  r.layer["sched.steals"] = static_cast<double>(t.sched.steals);
  r.layer["sched.imbalance"] = t.sched.imbalance();
  r.layer["sched.busy_total_ms"] = t.sched.busy_total_sec * 1e3 / n;
}

// Correctness gate: the engine's final embeddings against layer-wise full
// inference over the final graph and features, both rebuilt here from the
// snapshot and the applied stream prefix (not read back from the engine).
Check check_against_recompute(const Case& c, std::size_t applied,
                              const InferenceEngine& engine) {
  DynamicGraph graph = c.data.dataset.graph;
  EmbeddingStore ref(c.model.config(), graph.num_vertices());
  ref.features() = c.data.dataset.features;
  for (std::size_t i = 0; i < applied; ++i) {
    const GraphUpdate& u = c.data.stream[i];
    switch (u.kind) {
      case UpdateKind::edge_add:
        graph.add_edge(u.u, u.v, u.weight);
        break;
      case UpdateKind::edge_del:
        graph.remove_edge(u.u, u.v);
        break;
      case UpdateKind::vertex_feature:
        std::copy(u.new_features.begin(), u.new_features.end(),
                  ref.features().row(u.u).begin());
        break;
    }
  }
  if (graph.num_edges() != engine.graph().num_edges()) {
    return {false, "engine graph has " +
                       std::to_string(engine.graph().num_edges()) +
                       " edges, expected " + std::to_string(graph.num_edges())};
  }
  layerwise_full_inference(c.model, graph, ref);
  // The bound is on values of magnitude ~1; sum-aggregated layers of a
  // dense graph grow far beyond that (products-s logits reach ~1e5), so
  // each layer's error is scaled by its largest magnitude when that is > 1.
  double worst = 0;
  const EmbeddingStore& got = engine.embeddings();
  for (std::size_t l = 0; l <= ref.num_layers(); ++l) {
    const Matrix& a = ref.layer(l);
    const Matrix& b = got.layer(l);
    if (!a.same_shape(b)) return {false, "layer shape mismatch"};
    double diff = 0;
    double magnitude = 1;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const double d = std::fabs(double{a.data()[i]} - double{b.data()[i]});
      diff = std::isnan(d) ? INFINITY : std::max(diff, d);
      magnitude = std::max(magnitude, std::fabs(double{a.data()[i]}));
    }
    worst = std::max(worst, diff / magnitude);
  }
  char detail[160];
  std::snprintf(detail, sizeof(detail),
                "max |ripple - full recompute| / max(1, |layer|) = %.3g "
                "(bound %.0e) after %zu updates",
                worst, kRecomputeBound, applied);
  return {worst <= kRecomputeBound, detail};
}

// Closes a single-machine round inside its process: peak memory first,
// then (round 0 only) the correctness check.
void finish_round(RoundResult& r, std::size_t round, const Case& c,
                  std::size_t applied, const InferenceEngine& engine) {
  r.state_hash = hash_store(engine.embeddings());
  r.peak_rss_mb = peak_rss_mb();
  if (round == 0) r.check = check_against_recompute(c, applied, engine);
}

RoundResult serve_round(const Options& o, std::size_t round, bool traced) {
  const SingleConfig& cfg = kServe;
  RoundResult r;
  r.traced = traced;
  const StopWatch setup;
  const Case c = make_case(cfg, o.seed);
  Tracer tracer(traced);
  auto timed = std::make_unique<TimedEngine>(
      std::make_unique<RippleEngine>(c.model, c.data.dataset.graph,
                                     c.data.dataset.features),
      tracer);
  TimedEngine& engine = *timed;  // owned by the server
  StreamingServer::Options server_options;
  server_options.batch_size = cfg.batch_size;
  server_options.adaptive = false;
  // No age-based trickle flush: every batch is exactly batch_size updates.
  server_options.adaptive_options.flush_after_sec = 0;
  StreamingServer server(std::move(timed), server_options);
  r.setup_sec = setup.elapsed_sec();

  EngineTotals totals;
  std::uint64_t ops_before = 0;
  std::size_t labels_before = 0;
  std::size_t applied_total = 0;
  double timed_start = 0;
  const std::size_t total = cfg.warmup_batches + cfg.timed_batches;
  for (std::size_t b = 0; b < total; ++b) {
    const bool timed_batch = b >= cfg.warmup_batches;
    if (b == cfg.warmup_batches) {
      ops_before = engine.inner().incremental_ops();
      labels_before = server.stats().label_changes;
    }
    const std::uint64_t id = batch_id(round, b);
    const double t0 = now_us();
    if (b == cfg.warmup_batches) timed_start = t0;
    std::size_t applied = 0;
    {
      ScopedSpan flush(tracer, "serving.flush", id);
      engine.set_batch(id, flush.id());
      // The batch_size-th submit flushes the batch through the engine and
      // refreshes the served labels.
      for (std::size_t i = 0; i < cfg.batch_size; ++i) {
        applied += server.submit(c.data.stream[b * cfg.batch_size + i]);
      }
    }
    const double t1 = now_us();
    r.attempted += cfg.batch_size;
    r.failed += cfg.batch_size - applied;
    applied_total += applied;
    if (!timed_batch) continue;
    r.committed += applied;
    r.latency_ms.push_back((t1 - t0) / 1e3);
    totals.add(engine.last());
    if (b + 1 == total) r.timed_sec = (t1 - timed_start) / 1e6;
  }
  r.exact["core.incremental_ops"] =
      engine.inner().incremental_ops() - ops_before;
  r.exact["serving.label_changes"] =
      server.stats().label_changes - labels_before;
  if (traced) {
    r.spans = tracer.take();
    r.layer["serving.flush_self_ms"] =
        span_totals(r.spans, "serving.flush").mean_self_ms();
  }
  record_engine_layers(r, totals, engine.inner(), cfg.timed_batches);
  finish_round(r, round, c, applied_total, engine);
  return r;
}

RoundResult bulk_round(const Options& o, std::size_t round, bool traced) {
  const SingleConfig& cfg = kBulk;
  RoundResult r;
  r.traced = traced;
  const StopWatch setup;
  const Case c = make_case(cfg, o.seed);
  Tracer tracer(traced);
  ThreadPool pool(cfg.pool_workers);
  RippleEngine engine(c.model, c.data.dataset.graph, c.data.dataset.features,
                      &pool);
  r.setup_sec = setup.elapsed_sec();

  EngineTotals totals;
  std::uint64_t ops_before = 0;
  std::size_t applied_total = 0;
  double timed_start = 0;
  const auto batches = make_batches(c.data.stream, cfg.batch_size);
  const std::size_t total = cfg.warmup_batches + cfg.timed_batches;
  RIPPLE_CHECK(batches.size() >= total);
  for (std::size_t b = 0; b < total; ++b) {
    const bool timed_batch = b >= cfg.warmup_batches;
    if (b == cfg.warmup_batches) ops_before = engine.incremental_ops();
    const std::uint64_t id = batch_id(round, b);
    const double t0 = now_us();
    if (b == cfg.warmup_batches) timed_start = t0;
    BatchResult result;
    {
      ScopedSpan span(tracer, "core.apply_batch", id);
      result = apply_traced(engine, batches[b], tracer, id, span.id());
    }
    const double t1 = now_us();
    r.attempted += batches[b].size();
    applied_total += batches[b].size();
    if (!timed_batch) continue;
    r.committed += batches[b].size();
    r.latency_ms.push_back((t1 - t0) / 1e3);
    totals.add(result);
    if (b + 1 == total) r.timed_sec = (t1 - timed_start) / 1e6;
  }
  r.exact["core.incremental_ops"] = engine.incremental_ops() - ops_before;
  if (traced) r.spans = tracer.take();
  record_engine_layers(r, totals, engine, cfg.timed_batches);
  finish_round(r, round, c, applied_total, engine);
  return r;
}

}  // namespace

RunResult run_serve_arxiv(const Options& options) {
  return {run_rounds(options,
                     [&](std::size_t round, bool traced) {
                       return serve_round(options, round, traced);
                     }),
          {"serve (1 thread)"}};
}

RunResult run_bulk_products(const Options& options) {
  return {run_rounds(options,
                     [&](std::size_t round, bool traced) {
                       return bulk_round(options, round, traced);
                     }),
          {"bulk (calling thread)"}};
}

}  // namespace perfbench
