// Common interface for all streaming inference engines: the Ripple core and
// the three baselines (vertex-wise DNC, DGL-emulated layer-wise DRC, and the
// custom layer-wise recompute RC).
//
// An engine owns a private copy of the graph and its embedding store; it is
// bootstrapped once with layer-wise full inference and then consumes update
// batches, keeping H^0..H^L exact after every batch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/scheduler.h"
#include "gnn/model.h"
#include "graph/dynamic_graph.h"
#include "stream/update.h"

namespace ripple {

class ThreadPool;

// Per-batch outcome and phase timings (Fig. 8's update/propagate split and
// Fig. 11's propagation-tree size both come from here).
struct BatchResult {
  std::size_t batch_size = 0;
  std::size_t propagation_tree_size = 0;  // Σ over hops of |affected set|
  std::size_t affected_final = 0;         // |affected set| at hop L
  // Every vertex whose H^L row this batch may have rewritten, once each
  // (affected_final == final_rows.size()). RippleEngine lists them in
  // ascending id; other engines may use any order, and StreamingServer
  // sorts only a list that is not ascending. A superset of the rows that
  // actually changed is allowed; omitting one is not: StreamingServer
  // re-derives served labels from these rows only.
  std::vector<VertexId> final_rows;
  double update_sec = 0;     // topology/feature application
  double propagate_sec = 0;  // embedding propagation
  // Shard-parallel execution stats (filled by engines whose propagation
  // phases run over the thread pool; zero means the engine does not report
  // them — sequential engines leave the defaults).
  std::size_t num_shards = 0;    // mailbox shards per hop
  std::size_t num_threads = 0;   // pool width the batch ran with
  double apply_phase_sec = 0;    // Σ hops: mailbox drain + blocked GEMMs
  double compute_phase_sec = 0;  // Σ hops: Δh scatter into next-hop mailbox
  // Work-stealing scheduler stats for this batch (common/scheduler.h); a
  // no-pool Ripple engine reports width 1. All-zero when the engine has no
  // parallel propagation core (it has no per-participant accounting).
  SchedulerStats sched;
  double total_sec() const { return update_sec + propagate_sec; }
};

class InferenceEngine {
 public:
  virtual ~InferenceEngine() = default;

  virtual const char* name() const = 0;

  // Applies one batch of updates and brings all embeddings up to date.
  virtual BatchResult apply_batch(UpdateBatch batch) = 0;

  virtual const EmbeddingStore& embeddings() const = 0;
  virtual const DynamicGraph& graph() const = 0;
  virtual const GnnModel& model() const = 0;

  // Resident bytes of engine-private state (embeddings + caches), for the
  // paper's memory-overhead comparison (§7.3).
  virtual std::size_t memory_bytes() const = 0;
};

// Factory keys used by benches: "ripple", "rc", "drc", "dnc".
std::unique_ptr<InferenceEngine> make_engine(const std::string& key,
                                             const GnnModel& model,
                                             const DynamicGraph& snapshot,
                                             const Matrix& features,
                                             ThreadPool* pool = nullptr);

}  // namespace ripple
