// Microbenchmarks for the kernels on Ripple's hot paths: GEMM/GEMV across
// the kernel-variant axis (scalar vs dispatched SIMD tier, packed vs
// unpacked B panels), the served-label argmax over logits rows,
// neighborhood aggregation, mailbox accumulation, the
// pull scatter's gathered axpy (axpy_rows vs one vec_axpy per row),
// edge-list mutation vs CSR rebuild (the DGL-emulation contrast), and the
// end-to-end single-update apply for RC vs Ripple.
//
// Self-timed (no google-benchmark dependency): each case runs batches of
// iterations until a minimum wall time is reached, then emits one JSON
// object per line on stdout — the same scrape-friendly format as
// parallel_scaling:
//   {"bench":"micro_kernels","op":"gemm","dim":128,"kernels":"avx2",
//    "packed":true,"ns_per_op":...,"gflops":...}
//
// The kernel-variant axis deliberately re-dispatches via set_kernel_mode
// between cases, so one run on an AVX2 host yields the scalar-vs-SIMD
// speedup table quoted in docs/kernels.md. Output bits are identical
// across the axis (the kernels.h determinism contract); only the time
// changes.
//
// Flags: --dims=64,128,256 --min-time-ms=200 --quick --seed=42
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/ripple_engine.h"
#include "gnn/aggregator.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "infer/recompute.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"

using namespace ripple;

namespace {

double g_min_time_sec = 0.2;

// Runs fn in growing batches until g_min_time_sec of wall time accumulates;
// returns seconds per iteration.
template <typename Fn>
double time_per_iter(Fn&& fn) {
  fn();  // warm-up (faults pages, packs thread-local scratch, etc.)
  std::size_t batch = 1;
  for (;;) {
    StopWatch watch;
    for (std::size_t i = 0; i < batch; ++i) fn();
    const double sec = watch.elapsed_sec();
    if (sec >= g_min_time_sec) {
      return sec / static_cast<double>(batch);
    }
    const double target = sec > 0 ? g_min_time_sec / sec * 1.3 : 16.0;
    batch = static_cast<std::size_t>(static_cast<double>(batch) * target) + 1;
  }
}

void emit(const std::string& op, std::size_t dim, const char* kernel_isa,
          int packed /* -1 = axis not applicable */, double sec_per_op,
          double flops_per_op, double items_per_op) {
  std::printf("{\"bench\":\"micro_kernels\",\"op\":\"%s\",\"dim\":%zu,"
              "\"kernels\":\"%s\",",
              op.c_str(), dim, kernel_isa);
  if (packed >= 0) std::printf("\"packed\":%s,", packed ? "true" : "false");
  std::printf("\"ns_per_op\":%.6g", sec_per_op * 1e9);
  if (flops_per_op > 0) {
    std::printf(",\"gflops\":%.6g", flops_per_op / sec_per_op * 1e-9);
  }
  if (items_per_op > 0) {
    std::printf(",\"items_per_sec\":%.6g", items_per_op / sec_per_op);
  }
  std::printf("}\n");
  std::fflush(stdout);
}

// The kernel-variant axis: the portable scalar tier vs whatever the host
// dispatches (on a scalar-only host the two coincide and the numbers
// demonstrate overhead-neutrality of the dispatch layer).
struct KernelVariant {
  KernelMode mode;
  const char* label;
};

std::vector<KernelVariant> kernel_variants() {
  std::vector<KernelVariant> variants{{KernelMode::kScalar, "scalar"}};
  set_kernel_mode(KernelMode::kAuto);
  if (active_kernel_isa() != KernelIsa::kScalar) {
    variants.push_back({KernelMode::kAuto, kernel_isa_name(active_kernel_isa())});
  }
  return variants;
}

void bench_gemm(const std::vector<std::int64_t>& dims) {
  for (const auto dim64 : dims) {
    const auto dim = static_cast<std::size_t>(dim64);
    Rng rng(1);
    const auto a = Matrix::random_uniform(dim, dim, rng);
    const auto b = Matrix::random_uniform(dim, dim, rng);
    const auto pb = PackedMatrix::pack(b);
    Matrix c;
    const double flops = 2.0 * static_cast<double>(dim) * dim * dim;
    for (const auto& variant : kernel_variants()) {
      set_kernel_mode(variant.mode);
      emit("gemm", dim, variant.label, /*packed=*/0,
           time_per_iter([&] { gemm(a, b, c); }), flops, 0);
      emit("gemm", dim, variant.label, /*packed=*/1,
           time_per_iter([&] { gemm(a, pb, c); }), flops, 0);
    }
  }
}

void bench_gemv_row(const std::vector<std::int64_t>& dims) {
  for (const auto dim64 : dims) {
    const auto dim = static_cast<std::size_t>(dim64);
    Rng rng(2);
    const auto w = Matrix::random_uniform(dim, dim, rng);
    const auto pw = PackedMatrix::pack(w);
    std::vector<float> x(dim, 0.5f);
    std::vector<float> y(dim);
    const double flops = 2.0 * static_cast<double>(dim) * dim;
    for (const auto& variant : kernel_variants()) {
      set_kernel_mode(variant.mode);
      emit("gemv_row", dim, variant.label, /*packed=*/0,
           time_per_iter([&] { gemv_row(x, w, y); }), flops, 0);
      emit("gemv_row", dim, variant.label, /*packed=*/1,
           time_per_iter([&] { gemv_row(x, pw, y); }), flops, 0);
    }
  }
}

void bench_argmax() {
  // The serving loop's per-row label refresh (argmax_row over a logits
  // row): 40 is arxiv-s's class count, 16 one vector, 47 a ragged tail.
  // 1024 rows of a logits block are walked in turn so the loop is not one
  // cached row; reported per row.
  constexpr std::size_t kRows = 1024;
  for (const std::size_t dim : {16u, 40u, 47u}) {
    Rng rng(9);
    const auto logits = Matrix::random_uniform(kRows, dim, rng);
    std::size_t r = 0;
    volatile std::size_t label = 0;
    for (const auto& variant : kernel_variants()) {
      set_kernel_mode(variant.mode);
      emit("argmax", dim, variant.label, -1, time_per_iter([&] {
             label = argmax_row(logits.row(r++ % kRows));
           }),
           0, 1);
    }
  }
}

void bench_aggregate(bool quick) {
  for (const std::size_t degree : {7u, 50u, 500u}) {
    Rng rng(3);
    const auto h = Matrix::random_uniform(degree + 1, 64, rng);
    std::vector<Neighbor> nbrs;
    for (std::size_t i = 0; i < degree; ++i) {
      nbrs.push_back({static_cast<VertexId>(i), 1.0f});
    }
    std::vector<float> out(64);
    for (const auto& variant : kernel_variants()) {
      set_kernel_mode(variant.mode);
      emit("aggregate_neighbors", degree, variant.label, -1,
           time_per_iter(
               [&] { aggregate_neighbors(AggregatorKind::sum, nbrs, h, out); }),
           0, static_cast<double>(degree));
    }
    if (quick) break;
  }
}

void bench_mailbox() {
  // Fill/clear cycle: first-touch K of n cells (strided, so every touch
  // allocates a slot), then clear() — the per-hop lifecycle the engines
  // run, which mailbox_accumulate's warm re-hits never exercise. Reported
  // per accumulate, the clear amortized over its K cells.
  constexpr std::size_t kRows = 65536;
  constexpr std::size_t kCells = 4096;
  for (const auto& variant : kernel_variants()) {
    set_kernel_mode(variant.mode);
    Mailbox box(64, kRows);
    std::vector<float> h_new(64, 1.0f);
    std::vector<float> h_old(64, 0.5f);
    VertexId v = 0;
    emit("mailbox_accumulate", 64, variant.label, -1,
         time_per_iter([&] { box.accumulate(v++ % 1024, 1.0f, h_new, h_old); }),
         0, 1);
    Mailbox cycle(64, kRows);
    const double cycle_sec = time_per_iter([&] {
      for (std::size_t i = 0; i < kCells; ++i) {
        cycle.accumulate(static_cast<VertexId>(i * 7919 % kRows), 1.0f, h_new,
                         h_old);
      }
      cycle.clear();
    });
    emit("mailbox_fill_clear", 64, variant.label, -1,
         cycle_sec / static_cast<double>(kCells), 0, 1);
  }
}

void bench_scatter_gather() {
  // The pull scatter's inner step (core/ripple_engine.cpp): 22 random Δh
  // rows of a 3-MB rank-major block (12288 rows of 64 floats) added into
  // one 64-wide mailbox cell — once as one axpy_rows call that keeps the
  // cell in registers, once as 22 vec_axpy read-modify-writes (the push
  // drain's per-message cost). Identical output bits; reported per call,
  // items = rows gathered.
  constexpr std::size_t kDim = 64;
  constexpr std::size_t kBlockRows = 3 * 1024 * 1024 / (kDim * sizeof(float));
  constexpr std::size_t kRowsPerCell = 22;
  constexpr std::size_t kCells = 1024;
  set_kernel_mode(KernelMode::kAuto);
  const KernelOps& ops = kernels();
  Rng rng(8);
  const Matrix block = Matrix::random_uniform(kBlockRows, kDim, rng);
  std::vector<std::uint32_t> rows(kCells * kRowsPerCell);
  std::vector<float> alphas(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<std::uint32_t>(rng.next_below(kBlockRows));
    alphas[i] = rng.next_float(0.5f, 1.5f);
  }
  std::vector<float> cell(kDim, 0.0f);
  std::size_t c = 0;
  emit("scatter_gather_axpy_rows", kDim, kernel_isa_name(ops.isa), -1,
       time_per_iter([&] {
         const std::size_t at = (c++ % kCells) * kRowsPerCell;
         ops.axpy_rows(cell.data(), kDim, block.data(), kDim, &rows[at],
                       &alphas[at], kRowsPerCell);
       }),
       0, kRowsPerCell);
  emit("scatter_gather_vec_axpy", kDim, kernel_isa_name(ops.isa), -1,
       time_per_iter([&] {
         const std::size_t at = (c++ % kCells) * kRowsPerCell;
         for (std::size_t i = at; i < at + kRowsPerCell; ++i) {
           ops.vec_axpy(cell.data(), alphas[i], block.data() + rows[i] * kDim,
                        kDim);
         }
       }),
       0, kRowsPerCell);
}

void bench_graph_mutation() {
  Rng rng(4);
  auto graph = erdos_renyi(20000, 200000, rng);
  VertexId u = 0;
  emit("edge_list_mutation", 0, "n/a", -1, time_per_iter([&] {
         const auto v = static_cast<VertexId>((u * 7919 + 13) % 20000);
         if (!graph.add_edge(u % 20000, v)) {
           graph.remove_edge(u % 20000, v);
         }
         ++u;
       }),
       0, 1);
}

void bench_csr_rebuild() {
  // The per-batch cost the DGL emulation pays on every update batch.
  Rng rng(5);
  const auto graph = erdos_renyi(20000, 200000, rng);
  emit("csr_rebuild", 0, "n/a", -1, time_per_iter([&] {
         auto csr = Csr::from_graph(graph);
         (void)csr.num_edges();
       }),
       0, 1);
}

void bench_single_update() {
  // End-to-end single edge toggle: RC vs Ripple, on the dispatched kernels.
  set_kernel_mode(KernelMode::kAuto);
  for (const bool ripple_engine : {false, true}) {
    Rng rng(6);
    auto graph = erdos_renyi(5000, 100000, rng);
    Matrix features = Matrix::random_uniform(5000, 64, rng);
    const auto config = workload_config(Workload::gc_s, 64, 16, 2, 64);
    const auto model = GnnModel::random(config, 7);
    std::unique_ptr<InferenceEngine> engine;
    if (ripple_engine) {
      engine = std::make_unique<RippleEngine>(model, graph, features);
    } else {
      engine = std::make_unique<RecomputeEngine>(model, graph, features);
    }
    bool present = false;
    const std::vector<GraphUpdate> add = {GraphUpdate::edge_add(1, 2)};
    const std::vector<GraphUpdate> del = {GraphUpdate::edge_del(1, 2)};
    emit(ripple_engine ? "single_update_ripple" : "single_update_rc", 0,
         kernel_isa_name(active_kernel_isa()), -1, time_per_iter([&] {
           engine->apply_batch(present ? del : add);
           present = !present;
         }),
         0, 1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool quick = flags.has("quick");
  g_min_time_sec =
      flags.get_double("min-time-ms", quick ? 30.0 : 200.0) * 1e-3;
  const auto dims =
      flags.get_int_list("dims", quick ? std::vector<std::int64_t>{64, 128}
                                       : std::vector<std::int64_t>{64, 128,
                                                                   256});
  set_log_level(log_level::warn);

  set_kernel_mode(KernelMode::kAuto);
  std::fprintf(stderr, "micro_kernels: dispatched tier=%s\n",
               kernel_isa_name(active_kernel_isa()));

  bench_gemm(dims);
  bench_gemv_row(dims);
  bench_argmax();
  bench_aggregate(quick);
  bench_mailbox();
  bench_scatter_gather();
  if (!quick) {
    bench_graph_mutation();
    bench_csr_rebuild();
    bench_single_update();
  }
  // Leave the process-global dispatch back at the default.
  set_kernel_mode(KernelMode::kAuto);
  return 0;
}
