// Fig. 8: median batch latency with update/propagate phase split across the
// six strategies — DGL-emulated vertex-wise on CPU (DNC) and simulated
// accelerator (DNG), DGL-emulated layer-wise recompute on CPU (DRC) and
// simulated accelerator (DRG), the custom edge-list recompute (RC), and
// Ripple (RP) — on Arxiv and Products analogues, GC-S 3-layer, batch 10.
//
// Expected shape: DNC/DNG slowest (vertex-wise redundancy), accelerator
// variants give little or negative benefit (tiny kernels, launch+transfer
// overhead), DRC's update phase dominates (CSR rebuild per batch), RC is
// 40-60% faster than DRC, and Ripple is the fastest by a wide margin.
#include "bench_util.h"
#include "device/accelerator.h"

using namespace ripple;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  apply_kernel_flag(flags);
  const bool quick = flags.has("quick");
  const double scale = flags.get_double("scale", quick ? 0.05 : 0.10);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto num_batches =
      static_cast<std::size_t>(flags.get_int("batches", quick ? 3 : 5));
  const std::size_t batch_size =
      static_cast<std::size_t>(flags.get_int("batch-size", 10));
  const bool skip_dnc = flags.get_bool("skip-dnc", false);
  set_log_level(log_level::warn);

  bench::print_header(
      "Fig. 8: strategy comparison, GC-S 3-layer, batch size 10 "
      "(update + propagate phase split)");
  const AcceleratorModel accel;

  for (const std::string dataset : {"arxiv-s", "products-s"}) {
    const auto prepared = bench::prepare(
        dataset, scale, batch_size * num_batches + 16, seed);
    const auto& ds = prepared.dataset;
    const auto config = workload_config(Workload::gc_s, ds.spec.feat_dim,
                                        ds.spec.num_classes, 3, 64);
    const auto model = GnnModel::random(config, seed);

    std::printf("\n-- %s (n=%zu, m=%zu) --\n", dataset.c_str(),
                ds.graph.num_vertices(), ds.graph.num_edges());
    TextTable table({"Strategy", "Median batch (s)", "Update (s)",
                     "Propagate (s)"});

    std::vector<std::string> engines = {"drc", "rc", "ripple"};
    if (!skip_dnc) engines.insert(engines.begin(), "dnc");
    bench::RunMetrics dnc_run;
    bench::RunMetrics drc_run;
    for (const auto& key : engines) {
      auto engine = make_engine(key, model, ds.graph, ds.features);
      const auto run =
          bench::run_stream(*engine, prepared.stream, batch_size, num_batches);
      if (key == "dnc") dnc_run = run;
      if (key == "drc") drc_run = run;
      const char* label = key == "dnc" ? "DNC (vertex-wise, CPU)"
                          : key == "drc" ? "DRC (DGL-emu layer-wise, CPU)"
                          : key == "rc" ? "RC (edge-list layer-wise, CPU)"
                                        : "RP (Ripple incremental, CPU)";
      table.add_row({label, TextTable::fmt(run.median_latency_sec, 5),
                     TextTable::fmt(run.mean_update_sec, 5),
                     TextTable::fmt(run.mean_propagate_sec, 5)});
      // Simulated-accelerator variants derive their propagate time from the
      // CPU run + the device cost model (src/device/accelerator.h).
      if (key == "dnc" || key == "drc") {
        BatchResult pseudo;
        pseudo.propagation_tree_size =
            static_cast<std::size_t>(run.mean_tree_size);
        pseudo.propagate_sec = run.mean_propagate_sec;
        const double accel_prop =
            key == "dnc" ? model_vertexwise_accel_sec(accel, pseudo, config)
                         : model_layerwise_accel_sec(accel, pseudo, config);
        table.add_row({key == "dnc" ? "DNG (vertex-wise, sim. GPU)"
                                    : "DRG (layer-wise, sim. GPU)",
                       TextTable::fmt(run.mean_update_sec + accel_prop, 5),
                       TextTable::fmt(run.mean_update_sec, 5),
                       TextTable::fmt(accel_prop, 5)});
      }
    }
    table.print();
  }
  std::printf(
      "\nExpected shape (paper): DNC slower than DRC; GPU variants within a\n"
      "few %% of CPU (occasionally slower); RC 40-60%% faster than DRC with\n"
      "a much cheaper update phase; Ripple fastest overall.\n");
  return 0;
}
