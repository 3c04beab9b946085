// Shared BSP cost-accounting helpers for the distributed engines. Both
// engines must model parallel machines the same way, or the RC-vs-Ripple
// comparisons in the dist benches measure accounting skew instead of
// protocol differences — so the conventions live here once.
//
// Two timing modes, selected by Transport::measures_time():
//   * kModeled (SimTransport) — the phase cost is the MODELED parallel
//     cluster time: the slowest partition's endpoint under the BSP max
//     rule, with the whole cluster simulated inside one process.
//   * kMeasured (TcpTransport) — the phase cost is this rank's MEASURED
//     wall-clock seconds. Execution is identical (same dispatch, same
//     bodies, bit-identical embeddings); only what the stopwatches report
//     changes, so benches can put real seconds next to modeled ones
//     (DistBatchResult::comm_measured tells them apart).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/scheduler.h"
#include "common/timer.h"
#include "dist/transport.h"
#include "stream/update.h"

namespace ripple {

enum class BspTiming {
  kModeled,   // slowest-partition endpoint (simulated cluster)
  kMeasured,  // this rank's wall clock (real transport)
};

inline BspTiming bsp_timing_of(const Transport& transport) {
  return transport.measures_time() ? BspTiming::kMeasured
                                   : BspTiming::kModeled;
}

// Runs a compute phase whose per-partition work decomposes into
// independent tasks (mailbox shard drains, recompute blocks, one seed pass
// per partition) and returns its cost. All partitions' tasks run through
// the stealing scheduler at once — on a multi-core host a hot partition's
// tasks really do spread over idle workers; without a pool they run inline
// — and each task's wall seconds are measured.
//
// Modeled accounting: in the simulated cluster every partition is a machine
// with W = scheduler width workers stealing across ITS OWN tasks, so
// partition p's endpoint is the W-worker makespan lower bound over its
// measured task times, max(Σ_s t_{p,s} / W, max_s t_{p,s}); the returned
// phase cost is the slowest endpoint (BSP max rule). With W = 1, or with
// one task per partition, the endpoint is the partition's serial sum.
// Measured accounting returns the region's wall clock instead — the real
// transport runs real machines, so no modeling is needed. See
// src/dist/README.md.
//
// wait_out (optional, modeled only): per-partition barrier-stall
// accumulator. Under the BSP max rule every machine waits at the phase
// barrier for the slowest one, so partition p stalls (phase max − its own
// endpoint) — accumulated here so benches can report how much of a batch
// was barrier wait. Measured runs skip it: a real rank's stall is observed
// at the transport barrier instead (Transport::superstep_wait_sec).
//
// Constraint: body must NOT open a nested scheduler region. The stealing
// runtime's help-first discipline would let the nesting task execute whole
// OTHER tasks of this phase inside its own stopwatch, double-counting their
// seconds and cross-billing them to the wrong partition's endpoint.
struct PartTask {
  std::uint32_t part;  // owning partition (endpoint the task bills to)
  std::size_t cost;    // LPT seeding hint (pending slots / degree sum)
};

template <typename Body>
double timed_over_part_tasks(WorkStealingScheduler& scheduler,
                             std::size_t num_parts,
                             const std::vector<PartTask>& tasks,
                             const Body& body,
                             BspTiming timing = BspTiming::kModeled,
                             std::vector<double>* wait_out = nullptr) {
  const StopWatch phase_watch;
  std::vector<std::size_t> costs(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) costs[i] = tasks[i].cost;
  std::vector<double> task_sec(tasks.size(), 0.0);
  scheduler.run(tasks.size(), costs, [&](std::size_t i) {
    StopWatch watch;
    body(i);
    task_sec[i] = watch.elapsed_sec();  // single writer per index
  });
  if (timing == BspTiming::kMeasured) return phase_watch.elapsed_sec();
  const double width = static_cast<double>(scheduler.width());
  std::vector<double> sum(num_parts, 0.0);
  std::vector<double> longest(num_parts, 0.0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    sum[tasks[i].part] += task_sec[i];
    longest[tasks[i].part] = std::max(longest[tasks[i].part], task_sec[i]);
  }
  std::vector<double> endpoint(num_parts, 0.0);
  double slowest = 0.0;
  for (std::size_t p = 0; p < num_parts; ++p) {
    endpoint[p] = std::max(sum[p] / width, longest[p]);
    slowest = std::max(slowest, endpoint[p]);
  }
  if (wait_out != nullptr) {
    for (std::size_t p = 0; p < num_parts; ++p) {
      (*wait_out)[p] += slowest - endpoint[p];
    }
  }
  return slowest;
}

// Serial mini-phase helper: the engines time a per-partition serial loop
// (sender sorts, exchange destination scans) partition-by-partition and
// bill the max endpoint when modeling, or the loop's real wall clock when
// measuring. `per_part` receives each partition's measured seconds.
// wait_out: same modeled barrier-stall accumulator as timed_over_part_tasks.
inline double serial_phase_cost(const std::vector<double>& per_part,
                                double wall_sec, BspTiming timing,
                                std::vector<double>* wait_out = nullptr) {
  if (timing == BspTiming::kMeasured) return wall_sec;
  const double worst = *std::max_element(per_part.begin(), per_part.end());
  if (wait_out != nullptr) {
    for (std::size_t p = 0; p < per_part.size(); ++p) {
      (*wait_out)[p] += worst - per_part[p];
    }
  }
  return worst;
}

// Ingress routing: the leader (partition 0) ships the batch to every other
// rank, one combined message per partition. Only the endpoint hosting the
// leader transmits (owner routing); with one partition nothing touches the
// wire.
inline void route_batch(Transport& transport, UpdateBatch batch) {
  if (transport.num_parts() <= 1 || batch.empty()) return;
  if (!transport.hosts(0)) return;
  std::size_t batch_bytes = 0;
  for (const GraphUpdate& update : batch) batch_bytes += update.wire_bytes();
  for (std::size_t p = 1; p < transport.num_parts(); ++p) {
    transport.send_opaque(0, p, batch_bytes);
  }
}

}  // namespace ripple
