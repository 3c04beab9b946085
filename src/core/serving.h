// Trigger-based serving facade (§2.2): wraps an inference engine behind the
// interface a streaming application actually wants — submit updates, get
// notified when predicted labels flip, look labels up at any time.
//
// The paper's target applications (fraud alerts, congestion prediction) are
// trigger-based: they must learn about prediction changes immediately after
// the updates that caused them. StreamingServer batches submitted updates
// (fixed size or AdaptiveBatcher-driven), applies them through the engine,
// diffs the predicted labels of vertices in the final-hop affected region,
// and invokes the registered callback for every flip, in ascending vertex
// order.
//
// Engine-side contract: the diff reads only BatchResult::final_rows, the
// vertices whose H^L row the batch may have rewritten. An engine (or a
// decorator around one) that rewrites a row without listing it there
// leaves that row's served label stale. In exchange a flush costs
// O(|hop-L set| · classes) plus a sort of the hop-L set, independent of
// the graph size; only vertices a batch adds are baselined separately.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "infer/engine.h"
#include "stream/adaptive_batcher.h"

namespace ripple {

// Health of a StreamingServer. A serving process must not die because ONE
// engine apply failed (a torn wire frame, a lost peer, a failed internal
// invariant): kDegraded turns the failure into a typed, queryable status —
// updates are rejected, lookups serve the last committed label snapshot —
// while an operator (or the recovery driver, docs/fault_tolerance.md)
// restores or replaces the engine.
enum class ServeStatus : std::uint8_t { kOk, kDegraded };

const char* serve_status_name(ServeStatus status);

class StreamingServer {
 public:
  struct Options {
    std::size_t batch_size = 100;   // fixed batching (adaptive off)
    bool adaptive = false;          // use AdaptiveBatcher instead
    // adaptive_options.flush_after_sec doubles as the trickle guard in
    // BOTH modes: a partial batch older than this flushes on the next
    // submit() or poll(), so a stream slower than the batch threshold
    // cannot starve in pending_ forever. Set it <= 0 to disable the guard
    // (pure size-based batching, the pre-fix behavior).
    AdaptiveBatcher::Options adaptive_options = {};
    // Monotonic clock in seconds; tests inject a fake. Null uses
    // std::chrono::steady_clock.
    std::function<double()> clock;
  };

  // (vertex, old label, new label), fired after the causing batch applies.
  using LabelChangeCallback =
      std::function<void(VertexId, std::uint32_t, std::uint32_t)>;

  StreamingServer(std::unique_ptr<InferenceEngine> engine, Options options);

  void set_label_callback(LabelChangeCallback callback) {
    callback_ = std::move(callback);
  }

  // Enqueue one update; flushes automatically when the batch is full OR
  // when the oldest pending update is past flush_after_sec. Returns the
  // number of updates applied (0 if still buffering). On a degraded server
  // the update is REJECTED (stats().updates_rejected counts it) and 0 is
  // returned — check status() to tell rejection from buffering.
  std::size_t submit(GraphUpdate update);

  // Idle-stream upkeep: flushes a partial batch whose oldest update is past
  // flush_after_sec (drive it from a timer when the stream can go quiet —
  // submit() alone can never clear the LAST trickle of a stream). Returns
  // the number of updates applied.
  std::size_t poll();

  // Apply whatever is pending immediately.
  std::size_t flush();

  // Request-based lookup. Healthy: the current exact prediction; a vertex
  // outside the graph raises check_error. Degraded: the engine's state is
  // suspect, so the lookup is shed onto the last COMMITTED label snapshot
  // (the labels_ diff base — updated only after a batch fully applied, so
  // it never reflects a half-applied batch).
  std::uint32_t label(VertexId v) const;

  // kDegraded after an engine apply threw (TransportError, check_error):
  // the failure became this typed status instead of process death. The
  // poisoned batch's updates are dropped and counted rejected; recovery
  // replays them from the stream via checkpoint restore, not from here.
  ServeStatus status() const { return status_; }
  // The failure message that degraded the server; empty while kOk.
  const std::string& fault() const { return fault_; }

  const InferenceEngine& engine() const { return *engine_; }

  struct Stats {
    std::size_t updates_processed = 0;
    std::size_t batches_processed = 0;
    std::size_t label_changes = 0;
    // Updates refused by a degraded server plus those of the batch whose
    // apply failed (they never committed).
    std::size_t updates_rejected = 0;
    double total_sec = 0;
    // Propagation-core execution stats, aggregated from BatchResult: shard
    // and thread counts of the most recent batch plus cumulative per-phase
    // parallel timings (zero for engines without a parallel propagate).
    std::size_t num_shards = 0;
    std::size_t num_threads = 0;
    double apply_phase_sec = 0;
    double compute_phase_sec = 0;
    // Work-stealing scheduler stats accumulated over all batches (width 1
    // for a no-pool engine); see common/scheduler.h.
    SchedulerStats sched;
  };
  const Stats& stats() const { return stats_; }

 private:
  void refresh_labels_and_notify(std::vector<VertexId> final_rows);
  double now_sec() const;
  bool age_flush_due() const;

  std::unique_ptr<InferenceEngine> engine_;
  Options options_;
  AdaptiveBatcher batcher_;
  std::vector<GraphUpdate> pending_;
  double first_pending_sec_ = 0;  // now_sec() when pending_ became non-empty
  std::vector<std::uint32_t> labels_;
  LabelChangeCallback callback_;
  Stats stats_;
  ServeStatus status_ = ServeStatus::kOk;
  std::string fault_;
};

}  // namespace ripple
