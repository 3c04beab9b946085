// Shared harness for the distributed benches (Figs. 12, 13, the ablation,
// recovery and drift benches) and the dist perfbench workload.
#pragma once

#include <cstdio>

#include "bench_util.h"
#include "dist/dist_engine.h"
#include "dist/tcp_transport.h"
#include "partition/partition.h"

namespace ripple::bench {

// Builds the LDG+refine partition used by all distributed benches (the
// METIS substitution; see src/partition/partition.h).
inline Partition make_partition(const DynamicGraph& graph,
                                std::size_t num_parts) {
  auto partition = ldg_partition(graph, num_parts);
  refine_partition(graph, partition, 2);
  return partition;
}

// Run-shape selection shared by the dist benches: --transport=sim
// (default, modeled cost) or --transport=tcp (real sockets, measured
// seconds; needs --rank and --peers).
struct RunSpec {
  std::string kind = "sim";
  TcpConfig tcp;  // valid only when kind == "tcp"

  bool is_tcp() const { return kind == "tcp"; }
  std::size_t world_size() const { return tcp.peers.size(); }

  static RunSpec from_flags(const Flags& flags) {
    RunSpec spec;
    spec.kind = flags.get_choice("transport", {"sim", "tcp"}, "sim");
    if (spec.is_tcp()) spec.tcp = TcpConfig::from_flags(flags);
    return spec;
  }
};

// Bench-side tcp run policy: one rank per partition (the world size pins
// the partition sweep to a single entry) and only the leader narrates —
// every rank runs the identical sweep, so non-leaders mute stdout.
inline void apply_tcp_run_policy(const RunSpec& spec,
                                 std::vector<std::int64_t>& part_counts) {
  if (!spec.is_tcp()) return;
  part_counts = {static_cast<std::int64_t>(spec.world_size())};
  if (spec.tcp.rank != 0) {
    std::freopen("/dev/null", "w", stdout);
  }
}

inline std::unique_ptr<Transport> make_transport(
    const RunSpec& spec, std::size_t num_parts,
    const TransportOptions& options) {
  if (spec.is_tcp()) {
    RIPPLE_CHECK_MSG(num_parts == spec.world_size(),
                     "--transport=tcp runs one rank per partition: "
                         << spec.world_size() << " peers vs " << num_parts
                         << " partitions");
    return std::make_unique<TcpTransport>(num_parts, options, spec.tcp);
  }
  return std::make_unique<SimTransport>(num_parts, options);
}

struct DistRunMetrics {
  std::string engine;
  std::size_t batch_size = 0;
  std::size_t num_batches = 0;
  double throughput_ups = 0;       // vs total (compute + comm) time
  double median_latency_sec = 0;
  double compute_sec = 0;          // totals across the run
  double comm_sec = 0;
  // Stall accounting: the total over batches of the slowest rank's
  // superstep barrier waits.
  double barrier_wait_sec = 0;
  // True when the run's seconds are measured wall clock (tcp transport)
  // rather than the cost model's output — never average the two kinds.
  bool comm_measured = false;
  std::size_t wire_bytes = 0;
  std::size_t wire_messages = 0;
  // Robustness counters (docs/fault_tolerance.md): reconnect attempts,
  // deadline expiries, and idle-liveness heartbeat frames across the run.
  // All zero on sim and on a healthy, busy tcp cluster — a nonzero value
  // in a recorded row is the wire telling you the run was not clean.
  std::size_t retries = 0;
  std::size_t timeouts = 0;
  std::size_t heartbeats = 0;
  // ONE rank's resident row state after the run (owned rows + halo +
  // mailbox shards + row map; see DistEngineBase::memory_bytes) — the
  // per-rank footprint that must SHRINK as partitions are added.
  std::size_t rank_memory_bytes = 0;
  // Per-rank busy seconds accumulated across the run
  // (DistBatchResult::busy_share_sec) — the skew detector's evidence and
  // fig12's per-rank busy-share column.
  std::vector<double> busy_sec;

  // Worst rank's busy share over the ideal share (1.0 == balanced); the
  // load-skew figure next to the structural Partition::balance().
  double busy_imbalance() const {
    if (busy_sec.empty()) return 1.0;
    double total = 0;
    double worst = 0;
    for (const double v : busy_sec) {
      total += v;
      worst = std::max(worst, v);
    }
    const double mean = total / static_cast<double>(busy_sec.size());
    return mean > 0 ? worst / mean : 1.0;
  }
};

inline DistRunMetrics run_dist_stream(DistEngineBase& engine,
                                      std::span<const GraphUpdate> stream,
                                      std::size_t batch_size,
                                      std::size_t max_batches = 0) {
  DistRunMetrics metrics;
  metrics.engine = engine.name();
  metrics.batch_size = batch_size;
  std::vector<double> latencies;
  for (const auto& batch : make_batches(stream, batch_size)) {
    const DistBatchResult result = engine.apply_batch(batch);
    latencies.push_back(result.total_sec());
    metrics.compute_sec += result.compute_sec;
    metrics.comm_sec += result.comm_sec;
    metrics.barrier_wait_sec += result.barrier_wait_max();
    metrics.comm_measured = result.comm_measured;
    metrics.wire_bytes += result.wire_bytes;
    metrics.wire_messages += result.wire_messages;
    metrics.retries += result.retries;
    metrics.timeouts += result.timeouts;
    metrics.heartbeats += result.heartbeats;
    if (metrics.busy_sec.size() < result.num_parts) {
      metrics.busy_sec.resize(result.num_parts, 0.0);
    }
    for (std::size_t p = 0; p < result.num_parts; ++p) {
      metrics.busy_sec[p] += result.busy_share_sec(p);
    }
    ++metrics.num_batches;
    if (max_batches != 0 && metrics.num_batches >= max_batches) break;
  }
  const double total = metrics.compute_sec + metrics.comm_sec;
  const double updates = static_cast<double>(metrics.num_batches) *
                         static_cast<double>(batch_size);
  metrics.throughput_ups = total > 0 ? updates / total : 0;
  metrics.median_latency_sec = latencies.empty() ? 0 : median(latencies);
  metrics.rank_memory_bytes = engine.memory_bytes();
  return metrics;
}

}  // namespace ripple::bench
