// Fig. 12: distributed scaling on the Papers analogue (the graph that does
// not fit one machine at paper scale).
//   (a) throughput + median latency, 8 partitions, GC-S and GC-M 3-layer,
//       batch sizes {10, 100, 1000}, RC vs Ripple;
//   (b) strong scaling of GC-S-3L across partition counts;
//   (c) compute vs communication split at batch size 1000.
//
// Expected shape: Ripple up to ~30x RC throughput; Ripple scales with
// partitions while RC does not (its communication dominates and barely
// shrinks); Ripple's comm time ~70x below RC's.
#include "dist_util.h"

using namespace ripple;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  apply_kernel_flag(flags);
  const bool quick = flags.has("quick");
  // --json: emit ONLY machine-readable rows for the scaling sweep (one per
  // partition count x engine, including the per-rank footprint) — the
  // format bench/record_bench.sh scrapes into the committed trajectory.
  const bool json = flags.has("json");
  const double scale = flags.get_double("scale", quick ? 0.03 : 0.25);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto batch_sizes =
      flags.get_int_list("batch-sizes", quick
                                            ? std::vector<std::int64_t>{10, 100}
                                            : std::vector<std::int64_t>{10, 100, 1000});
  auto part_counts = flags.get_int_list(
      "partitions", quick ? std::vector<std::int64_t>{4, 8}
                          : std::vector<std::int64_t>{4, 8, 16});
  set_log_level(log_level::warn);
  const auto transport = TransportOptions::from_flags(flags);
  const auto run_spec = bench::RunSpec::from_flags(flags);
  bench::apply_tcp_run_policy(run_spec, part_counts);

  if (!json) {
    bench::print_header("Fig. 12: distributed Ripple vs RC on Papers analogue");
  }
  const auto prepared = bench::prepare("papers-s", scale, quick ? 800 : 4000,
                                       seed);
  const auto& ds = prepared.dataset;
  if (!json) {
    std::printf("n=%zu m=%zu avg in-deg %.1f\n", ds.graph.num_vertices(),
                ds.graph.num_edges(), ds.graph.avg_in_degree());
  }

  // ---- (a) 8 partitions, GC-S / GC-M, throughput + latency ----
  const std::size_t parts_a = run_spec.is_tcp()
                                  ? run_spec.world_size()
                                  : (quick ? 4 : 8);
  const auto partition_a = bench::make_partition(ds.graph, parts_a);
  if (!json) {
    std::printf(
        "\n(a) %zu partitions (LDG+refine cut: %zu of %zu edges)\n", parts_a,
        partition_a.edge_cut(ds.graph), ds.graph.num_edges());
  }
  const std::vector<Workload> workloads_a =
      json ? std::vector<Workload>{}
           : std::vector<Workload>{Workload::gc_s, Workload::gc_m};
  for (const Workload workload : workloads_a) {
    const auto config =
        workload_config(workload, ds.spec.feat_dim, ds.spec.num_classes, 3, 64);
    const auto model = GnnModel::random(config, seed);
    TextTable table({"Batch", "RC up/s", "Ripple up/s", "Ripple/RC",
                     "RC med lat (s)", "Ripple med lat (s)"});
    for (const auto batch_size : batch_sizes) {
      const auto bs = static_cast<std::size_t>(batch_size);
      const std::size_t num_batches = bench::batches_for(bs, quick ? 200 : 2000);
      auto rc = make_dist_engine(
          "rc", model, ds.graph, ds.features, partition_a, nullptr,
          bench::make_transport(run_spec, parts_a, transport));
      const auto rc_run =
          bench::run_dist_stream(*rc, prepared.stream, bs, num_batches);
      auto rp = make_dist_engine(
          "ripple", model, ds.graph, ds.features, partition_a, nullptr,
          bench::make_transport(run_spec, parts_a, transport));
      const auto rp_run =
          bench::run_dist_stream(*rp, prepared.stream, bs, num_batches);
      table.add_row(
          {TextTable::fmt_int(batch_size),
           TextTable::fmt_si(rc_run.throughput_ups),
           TextTable::fmt_si(rp_run.throughput_ups),
           rc_run.throughput_ups > 0
               ? TextTable::fmt(rp_run.throughput_ups / rc_run.throughput_ups,
                                1) + "x"
               : "-",
           TextTable::fmt(rc_run.median_latency_sec, 4),
           TextTable::fmt(rp_run.median_latency_sec, 4)});
    }
    std::printf("\nworkload %s (3 layers)\n", workload_name(workload));
    table.print();
  }

  // ---- (b)+(c) strong scaling and compute/comm split, GC-S-3L, bs=1k ----
  const auto config =
      workload_config(Workload::gc_s, ds.spec.feat_dim, ds.spec.num_classes,
                      3, 64);
  const auto model = GnnModel::random(config, seed);
  const std::size_t bs_scaling =
      static_cast<std::size_t>(batch_sizes.back());
  if (!json) {
    std::printf(
        "\n(b)+(c) strong scaling, GC-S-3L, batch size %zu (%s comm)\n",
        bs_scaling, run_spec.is_tcp() ? "measured" : "modeled");
  }
  // Stall columns: the total over batches of the slowest rank's superstep
  // barrier waits.
  // "Balance" is the structural vertex-count balance of the partition;
  // "busy skew" is the worst rank's accumulated busy share over the ideal
  // (1.00 == perfectly even load) — the skew detector's trigger quantity.
  TextTable table({"Parts", "Edge cut", "Balance", "RC up/s", "Ripple up/s",
                   "RC comp (s)", "RC comm (s)", "RP comp (s)", "RP comm (s)",
                   "RC stall (s)", "RP stall (s)", "RC bytes", "RP bytes",
                   "Comm ratio", "RC rank mem", "RP rank mem",
                   "RC busy skew", "RP busy skew"});
  for (const auto parts : part_counts) {
    const auto partition =
        bench::make_partition(ds.graph, static_cast<std::size_t>(parts));
    const std::size_t num_batches = quick ? 2 : 4;
    auto rc = make_dist_engine(
        "rc", model, ds.graph, ds.features, partition, nullptr,
        bench::make_transport(run_spec, static_cast<std::size_t>(parts),
                              transport));
    const auto rc_run =
        bench::run_dist_stream(*rc, prepared.stream, bs_scaling, num_batches);
    auto rp = make_dist_engine(
        "ripple", model, ds.graph, ds.features, partition, nullptr,
        bench::make_transport(run_spec, static_cast<std::size_t>(parts),
                              transport));
    const auto rp_run =
        bench::run_dist_stream(*rp, prepared.stream, bs_scaling, num_batches);
    if (json) {
      for (const auto* run : {&rc_run, &rp_run}) {
        std::printf(
            "{\"bench\":\"fig12_dist\",\"dataset\":\"papers-s\","
            "\"engine\":\"%s\",\"parts\":%lld,"
            "\"edge_cut\":%zu,\"balance\":%.4f,\"batch_size\":%zu,"
            "\"num_batches\":%zu,"
            "\"throughput_ups\":%.6g,\"compute_sec\":%.6g,"
            "\"comm_sec\":%.6g,\"barrier_wait_sec\":%.6g,"
            "\"comm_measured\":%s,"
            "\"wire_bytes\":%zu,\"wire_messages\":%zu,"
            "\"retries\":%zu,\"timeouts\":%zu,\"heartbeats\":%zu,"
            "\"rank_memory_bytes\":%zu,\"busy_imbalance\":%.4f,"
            "\"busy_share_sec\":[",
            run->engine.c_str(), static_cast<long long>(parts), partition.edge_cut(ds.graph),
            partition.balance(), run->batch_size, run->num_batches,
            run->throughput_ups, run->compute_sec, run->comm_sec,
            run->barrier_wait_sec, run->comm_measured ? "true" : "false",
            run->wire_bytes, run->wire_messages, run->retries,
            run->timeouts, run->heartbeats, run->rank_memory_bytes,
            run->busy_imbalance());
        for (std::size_t p = 0; p < run->busy_sec.size(); ++p) {
          std::printf("%s%.6g", p == 0 ? "" : ",", run->busy_sec[p]);
        }
        std::printf("]}\n");
      }
      std::fflush(stdout);
      continue;
    }
    table.add_row(
        {TextTable::fmt_int(parts),
         TextTable::fmt_si(static_cast<double>(partition.edge_cut(ds.graph))),
         TextTable::fmt(partition.balance(), 2),
         TextTable::fmt_si(rc_run.throughput_ups),
         TextTable::fmt_si(rp_run.throughput_ups),
         TextTable::fmt(rc_run.compute_sec, 3),
         TextTable::fmt(rc_run.comm_sec, 3),
         TextTable::fmt(rp_run.compute_sec, 3),
         TextTable::fmt(rp_run.comm_sec, 3),
         TextTable::fmt(rc_run.barrier_wait_sec, 3),
         TextTable::fmt(rp_run.barrier_wait_sec, 3),
         TextTable::fmt_si(static_cast<double>(rc_run.wire_bytes)),
         TextTable::fmt_si(static_cast<double>(rp_run.wire_bytes)),
         rp_run.wire_bytes > 0
             ? TextTable::fmt(static_cast<double>(rc_run.wire_bytes) /
                                  static_cast<double>(rp_run.wire_bytes),
                              1) + "x"
             : "-",
         TextTable::fmt_si(static_cast<double>(rc_run.rank_memory_bytes)),
         TextTable::fmt_si(static_cast<double>(rp_run.rank_memory_bytes)),
         TextTable::fmt(rc_run.busy_imbalance(), 2),
         TextTable::fmt(rp_run.busy_imbalance(), 2)});
  }
  if (json) return 0;
  table.print();
  std::printf(
      "\nExpected shape (paper): Ripple up to ~30x RC throughput at bs=1000;\n"
      "Ripple throughput grows with partitions (8x from 4->16 at full\n"
      "scale) while RC stays flat; RC communication dwarfs Ripple's (~70x);\n"
      "per-rank memory SHRINKS as partitions are added (owned rows + halo,\n"
      "not a whole-graph replica).\n");
  return 0;
}
