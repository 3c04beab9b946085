// Distributed streaming inference on a graph "too big for one machine" —
// the paper's Papers scenario (§5), scaled to this host. Shows the
// partition → bootstrap → stream → gather flow of the distributed API and
// reports the communication advantage of Ripple over recompute.
//
// Run (simulated cluster, modeled seconds — default):
//   ./distributed_inference [--partitions=4] [--updates=1200]
//
// Run (real TCP ranks, measured seconds — one process per partition):
//   ./distributed_inference --transport=tcp --rank=0 \
//       --peers=127.0.0.1:7001,127.0.0.1:7002 &
//   ./distributed_inference --transport=tcp --rank=1 \
//       --peers=127.0.0.1:7001,127.0.0.1:7002
// The partition count equals the peer count; every rank computes its owned
// partition's rows from bytes that really crossed the sockets, and rank 0
// prints the tables.
#include <cstdio>

#include "common/flags.h"
#include "tensor/kernels.h"
#include "common/log.h"
#include "graph/datasets.h"
#include "stream/generator.h"

#if __has_include("dist/dist_engine.h")
#define RIPPLE_HAS_DIST 1
#include "dist/dist_engine.h"
#include "dist/tcp_transport.h"
#else
#define RIPPLE_HAS_DIST 0
#endif

using namespace ripple;

#if !RIPPLE_HAS_DIST
int main() {
  std::printf("distributed_inference: the distributed runtime (src/dist) is "
              "not built yet; see ROADMAP.md open items.\n");
  return 0;
}
#else
int main(int argc, char** argv) {
  Flags flags(argc, argv);
  apply_kernel_flag(flags);
  const std::string transport_kind =
      flags.get_choice("transport", {"sim", "tcp"}, "sim");
  const bool use_tcp = transport_kind == "tcp";
  TcpConfig tcp_config;
  if (use_tcp) tcp_config = TcpConfig::from_flags(flags);
  const auto num_parts =
      use_tcp ? tcp_config.peers.size()
              : static_cast<std::size_t>(flags.get_int("partitions", 4));
  const auto updates = static_cast<std::size_t>(flags.get_int("updates", 1200));
  set_log_level(log_level::warn);
  set_transport_options(TransportOptions::from_flags(flags));
  const bool narrate = !use_tcp || tcp_config.rank == 0;
  if (!narrate) std::freopen("/dev/null", "w", stdout);

  std::printf("building papers-s analogue...\n");
  auto ds = build_dataset("papers-s", 0.08, 7);
  StreamConfig stream_config;
  stream_config.num_updates = updates;
  stream_config.feat_dim = ds.spec.feat_dim;
  stream_config.seed = 8;
  const auto stream = generate_stream(ds.graph, stream_config);
  std::printf("snapshot: %zu vertices, %zu edges\n", ds.graph.num_vertices(),
              ds.graph.num_edges());

  // Partition with the LDG+refine pipeline (METIS stand-in). Deterministic,
  // so every tcp rank derives the identical partition from the same seed.
  auto partition = ldg_partition(ds.graph, num_parts);
  refine_partition(ds.graph, partition, 2);
  std::printf("partitioned into %zu parts: balance %.3f, edge cut %zu/%zu\n",
              num_parts, partition.balance(), partition.edge_cut(ds.graph),
              ds.graph.num_edges());

  const auto config = workload_config(Workload::gc_s, ds.spec.feat_dim,
                                      ds.spec.num_classes, 3, 64);
  const auto model = GnnModel::random(config, 9);

  for (const char* key : {"rc", "ripple"}) {
    std::unique_ptr<Transport> transport =
        use_tcp ? std::unique_ptr<Transport>(std::make_unique<TcpTransport>(
                      num_parts, default_transport_options(), tcp_config))
                : std::make_unique<SimTransport>(num_parts,
                                                 default_transport_options());
    auto engine = make_dist_engine(key, model, ds.graph, ds.features,
                                   partition, nullptr, std::move(transport));
    double compute = 0;
    double comm = 0;
    double stall = 0;
    std::size_t bytes = 0;
    std::size_t batches = 0;
    bool measured = false;
    for (const auto& batch : make_batches(stream, 100)) {
      const auto result = engine->apply_batch(batch);
      compute += result.compute_sec;
      comm += result.comm_sec;
      stall += result.barrier_wait_max();
      bytes += result.wire_bytes;
      measured = result.comm_measured;
      if (++batches >= 6) break;
    }
    std::printf(
        "%-10s  compute %.3fs  %s comm %.3fs  barrier %.3fs  "
        "wire %.2f MiB  throughput %.0f up/s\n",
        engine->name(), compute, measured ? "measured" : "modeled", comm,
        stall, static_cast<double>(bytes) / (1024.0 * 1024.0),
        static_cast<double>(batches * 100) / (compute + comm));
  }
  std::printf(
      "\nRipple ships only deltas of changed vertices across the cut; RC\n"
      "pulls full embeddings of every in-neighbor of every affected vertex\n"
      "— the source of the paper's ~70x communication gap (Fig. 12c).\n");
  return 0;
}
#endif  // RIPPLE_HAS_DIST
