// Table 3: graph datasets used in experiments — paper statistics beside the
// statistics of the synthetic analogues this repo generates.
#include "bench_util.h"
#include "graph/stats.h"

using namespace ripple;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  apply_kernel_flag(flags);
  const double scale = flags.get_double("scale", flags.has("quick") ? 0.1 : 0.5);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  set_log_level(log_level::warn);

  bench::print_header("Table 3: dataset statistics (paper vs generated analogue)");
  std::printf("scale=%.2f of machine-sized defaults\n\n", scale);
  TextTable table({"Dataset", "Paper |V|", "Paper |E|", "Feats", "Classes",
                   "Paper InDeg", "Gen |V|", "Gen |E|", "Gen InDeg",
                   "Gen MaxIn", "Gen p99In"});
  for (const auto& spec : dataset_registry()) {
    const auto ds = build_dataset(spec.name, scale, seed);
    const auto stats = compute_stats(ds.graph);
    table.add_row({spec.name + " (" + spec.paper_name + ")",
                   TextTable::fmt_si(static_cast<double>(spec.paper_vertices)),
                   TextTable::fmt_si(static_cast<double>(spec.paper_edges)),
                   TextTable::fmt_int(static_cast<long long>(spec.feat_dim)),
                   TextTable::fmt_int(static_cast<long long>(spec.num_classes)),
                   TextTable::fmt(spec.paper_avg_in_degree, 1),
                   TextTable::fmt_si(static_cast<double>(stats.num_vertices)),
                   TextTable::fmt_si(static_cast<double>(stats.num_edges)),
                   TextTable::fmt(stats.avg_in_degree, 1),
                   TextTable::fmt_int(static_cast<long long>(stats.max_in_degree)),
                   TextTable::fmt(stats.in_degree_p99, 0)});
  }
  table.print();
  std::printf(
      "\nDegree structure (avg in-degree ratio arxiv:papers:products:reddit)\n"
      "follows the paper's ordering; absolute sizes are scaled to this\n"
      "machine — see DESIGN.md substitutions.\n");
  return 0;
}
