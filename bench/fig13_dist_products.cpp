// Fig. 13: distributed GC-S-3L on the Products analogue — a graph that
// *does* fit a single machine, to show distribution overheads.
//   (a) throughput + latency on 8 partitions across batch sizes;
//   (b) compute/comm split across 2/4/8 partitions at batch size 1000.
//
// Expected shape: Ripple beats RC but distributed scaling is modest for a
// graph this size, and single-machine Ripple remains competitive — the
// paper's conclusion that graphs that fit one machine should stay there.
#include "dist_util.h"

using namespace ripple;

#if !RIPPLE_HAS_DIST
int main() {
  std::printf("fig13: the distributed runtime (src/dist) is not built yet; "
              "see ROADMAP.md open items.\n");
  return 0;
}
#else
int main(int argc, char** argv) {
  Flags flags(argc, argv);
  apply_kernel_flag(flags);
  const bool quick = flags.has("quick");
  const double scale = flags.get_double("scale", quick ? 0.04 : 0.30);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const auto batch_sizes =
      flags.get_int_list("batch-sizes", quick
                                            ? std::vector<std::int64_t>{10, 100}
                                            : std::vector<std::int64_t>{10, 100, 1000});
  auto part_counts = flags.get_int_list(
      "partitions", quick ? std::vector<std::int64_t>{2, 4}
                          : std::vector<std::int64_t>{2, 4, 8});
  set_log_level(log_level::warn);
  set_transport_options(TransportOptions::from_flags(flags));
  const auto run_spec = bench::RunSpec::from_flags(flags);
  bench::apply_tcp_run_policy(run_spec, part_counts);

  bench::print_header(
      "Fig. 13: distributed GC-S-3L on Products analogue");
  const auto prepared =
      bench::prepare("products-s", scale, quick ? 600 : 3000, seed);
  const auto& ds = prepared.dataset;
  std::printf("n=%zu m=%zu avg in-deg %.1f\n", ds.graph.num_vertices(),
              ds.graph.num_edges(), ds.graph.avg_in_degree());
  const auto config = workload_config(
      Workload::gc_s, ds.spec.feat_dim, ds.spec.num_classes, 3, 64);
  const auto model = GnnModel::random(config, seed);

  // ---- (a) 8 partitions ----
  const std::size_t parts_a =
      static_cast<std::size_t>(part_counts.back());
  const auto partition_a = bench::make_partition(ds.graph, parts_a);
  std::printf("\n(a) %zu partitions\n", parts_a);
  TextTable table_a({"Batch", "RC up/s", "Ripple up/s",
                     "RC med lat (s)", "Ripple med lat (s)"});
  for (const auto batch_size : batch_sizes) {
    const auto bs = static_cast<std::size_t>(batch_size);
    const std::size_t num_batches = bench::batches_for(bs, quick ? 150 : 1500);
    auto rc = make_dist_engine(
        "rc", model, ds.graph, ds.features, partition_a, nullptr,
        bench::make_transport(run_spec, parts_a));
    const auto rc_run =
        bench::run_dist_stream(*rc, prepared.stream, bs, num_batches);
    auto rp = make_dist_engine(
        "ripple", model, ds.graph, ds.features, partition_a, nullptr,
        bench::make_transport(run_spec, parts_a));
    const auto rp_run =
        bench::run_dist_stream(*rp, prepared.stream, bs, num_batches);
    table_a.add_row({TextTable::fmt_int(batch_size),
                     TextTable::fmt_si(rc_run.throughput_ups),
                     TextTable::fmt_si(rp_run.throughput_ups),
                     TextTable::fmt(rc_run.median_latency_sec, 4),
                     TextTable::fmt(rp_run.median_latency_sec, 4)});
  }
  table_a.print();

  // ---- (b) compute/comm scaling at the largest batch size ----
  const auto bs_scaling = static_cast<std::size_t>(batch_sizes.back());
  std::printf("\n(b) compute/comm split, batch size %zu (%s comm)\n",
              bs_scaling, run_spec.is_tcp() ? "measured" : "modeled");
  // "stall" = the slowest rank's superstep barrier waits.
  TextTable table_b({"Parts", "RC comp (s)", "RC comm (s)", "RC stall (s)",
                     "RP comp (s)", "RP comm (s)", "RP stall (s)",
                     "RC total", "RP total"});
  for (const auto parts : part_counts) {
    const auto partition =
        bench::make_partition(ds.graph, static_cast<std::size_t>(parts));
    const std::size_t num_batches = quick ? 2 : 3;
    auto rc = make_dist_engine(
        "rc", model, ds.graph, ds.features, partition, nullptr,
        bench::make_transport(run_spec, static_cast<std::size_t>(parts)));
    const auto rc_run =
        bench::run_dist_stream(*rc, prepared.stream, bs_scaling, num_batches);
    auto rp = make_dist_engine(
        "ripple", model, ds.graph, ds.features, partition, nullptr,
        bench::make_transport(run_spec, static_cast<std::size_t>(parts)));
    const auto rp_run =
        bench::run_dist_stream(*rp, prepared.stream, bs_scaling, num_batches);
    table_b.add_row(
        {TextTable::fmt_int(parts),
         TextTable::fmt(rc_run.compute_sec, 3),
         TextTable::fmt(rc_run.comm_sec, 3),
         TextTable::fmt(rc_run.barrier_wait_sec, 3),
         TextTable::fmt(rp_run.compute_sec, 3),
         TextTable::fmt(rp_run.comm_sec, 3),
         TextTable::fmt(rp_run.barrier_wait_sec, 3),
         TextTable::fmt(rc_run.compute_sec + rc_run.comm_sec, 3),
         TextTable::fmt(rp_run.compute_sec + rp_run.comm_sec, 3)});
  }
  table_b.print();
  std::printf(
      "\nExpected shape (paper): Ripple > RC throughout; gains from more\n"
      "partitions are modest for a graph this size (~190 up/s at 8 parts vs\n"
      "~110 at 2 at full scale) — if it fits one machine, keep it there.\n");
  return 0;
}
#endif  // RIPPLE_HAS_DIST
