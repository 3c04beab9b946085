// Ablation benches for two design choices of the distributed runtime:
//   1. Partitioner quality: hash vs LDG+refine, measured by edge cut and
//      the distributed communication volume it induces.
//   2. Halo stub message combining (§5.1): stub mailboxes vs a hypothetical
//      per-edge send, estimated from message counts.
#include "dist_util.h"

using namespace ripple;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  apply_kernel_flag(flags);
  const bool quick = flags.has("quick");
  const double scale = flags.get_double("scale", quick ? 0.05 : 0.15);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  set_log_level(log_level::warn);
  const auto transport = TransportOptions::from_flags(flags);

  // ---- 1. Partitioner ablation ----
  bench::print_header("Ablation 1: hash vs LDG+refine partitioning");
  {
    const auto prepared =
        bench::prepare("papers-s", scale * 0.6, quick ? 200 : 1000, seed);
    const auto& ds = prepared.dataset;
    const auto config = workload_config(Workload::gc_s, ds.spec.feat_dim,
                                        ds.spec.num_classes, 3, 64);
    const auto model = GnnModel::random(config, seed);
    TextTable table({"Partitioner", "Edge cut", "Cut %", "Ripple bytes",
                     "Ripple up/s"});
    const std::size_t parts = quick ? 4 : 8;
    for (const bool use_ldg : {false, true}) {
      auto partition = use_ldg
                           ? bench::make_partition(ds.graph, parts)
                           : hash_partition(ds.graph.num_vertices(), parts);
      auto engine = make_dist_engine("ripple", model, ds.graph, ds.features,
                                     partition, nullptr, transport);
      const auto run = bench::run_dist_stream(*engine, prepared.stream, 100,
                                              quick ? 2 : 5);
      const double cut_pct = 100.0 *
                             static_cast<double>(partition.edge_cut(ds.graph)) /
                             static_cast<double>(ds.graph.num_edges());
      table.add_row(
          {use_ldg ? "LDG+refine (METIS sub.)" : "hash",
           TextTable::fmt_si(static_cast<double>(partition.edge_cut(ds.graph))),
           TextTable::fmt(cut_pct, 1),
           TextTable::fmt_si(static_cast<double>(run.wire_bytes)),
           TextTable::fmt_si(run.throughput_ups)});
    }
    table.print();
  }

  // ---- 2. Halo stub combining ----
  bench::print_header(
      "Ablation 2: halo stub mailboxes (one combined message per remote "
      "target per superstep)");
  {
    const auto prepared =
        bench::prepare("products-s", scale, quick ? 200 : 1000, seed);
    const auto& ds = prepared.dataset;
    const auto config = workload_config(Workload::gc_s, ds.spec.feat_dim,
                                        ds.spec.num_classes, 3, 64);
    const auto model = GnnModel::random(config, seed);
    const auto partition = bench::make_partition(ds.graph, quick ? 2 : 4);
    auto engine = make_dist_engine("ripple", model, ds.graph, ds.features,
                                   partition, nullptr, transport);
    const auto run = bench::run_dist_stream(*engine, prepared.stream, 100,
                                            quick ? 2 : 5);
    std::printf(
        "with stub combining: %zu messages, %zu bytes across %zu batches\n"
        "(without combining every cut-crossing edge of every changed vertex\n"
        "would carry its own message — strictly more traffic; the stub\n"
        "mailbox is the paper's §5.1 design)\n",
        run.wire_messages, run.wire_bytes, run.num_batches);
  }
  return 0;
}
