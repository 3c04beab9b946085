#include "core/serving.h"

#include <algorithm>
#include <chrono>

#include "common/timer.h"

namespace ripple {

const char* serve_status_name(ServeStatus status) {
  return status == ServeStatus::kOk ? "ok" : "degraded";
}

StreamingServer::StreamingServer(std::unique_ptr<InferenceEngine> engine,
                                 Options options)
    : engine_(std::move(engine)), options_(options),
      batcher_(options.adaptive_options) {
  RIPPLE_CHECK(engine_ != nullptr);
  RIPPLE_CHECK(options_.batch_size >= 1);
  const std::size_t n = engine_->graph().num_vertices();
  labels_.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    labels_[v] = engine_->embeddings().predicted_label(v);
  }
}

double StreamingServer::now_sec() const {
  if (options_.clock) return options_.clock();
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool StreamingServer::age_flush_due() const {
  // flush_after_sec <= 0 disables the trickle guard entirely (it must not
  // degenerate into flush-on-every-submit).
  if (pending_.empty() || options_.adaptive_options.flush_after_sec <= 0) {
    return false;
  }
  const double age = now_sec() - first_pending_sec_;
  // The batcher owns the deadline in adaptive mode; fixed mode applies the
  // same trickle guard directly (its size threshold lives elsewhere).
  if (options_.adaptive) {
    return batcher_.should_flush(age, pending_.size());
  }
  return age >= options_.adaptive_options.flush_after_sec;
}

std::size_t StreamingServer::submit(GraphUpdate update) {
  if (status_ == ServeStatus::kDegraded) {
    ++stats_.updates_rejected;
    return 0;
  }
  if (pending_.empty()) first_pending_sec_ = now_sec();
  pending_.push_back(std::move(update));
  const std::size_t threshold =
      options_.adaptive ? batcher_.next_batch_size() : options_.batch_size;
  if (pending_.size() >= threshold || age_flush_due()) return flush();
  return 0;
}

std::size_t StreamingServer::poll() {
  return age_flush_due() ? flush() : 0;
}

std::uint32_t StreamingServer::label(VertexId v) const {
  if (status_ == ServeStatus::kDegraded) {
    // Shed onto the last committed snapshot; a vertex first seen by the
    // poisoned batch has no committed label yet.
    return v < labels_.size() ? labels_[v] : 0;
  }
  RIPPLE_CHECK_MSG(v < engine_->graph().num_vertices(),
                   "label lookup for vertex " << v << " of a "
                       << engine_->graph().num_vertices()
                       << "-vertex graph");
  return engine_->embeddings().predicted_label(v);
}

std::size_t StreamingServer::flush() {
  if (status_ == ServeStatus::kDegraded || pending_.empty()) return 0;
  StopWatch watch;
  BatchResult result;
  try {
    result = engine_->apply_batch(pending_);
  } catch (const check_error& failure) {
    // An apply that threw is unrecoverable AT THIS LAYER: the engine's
    // state may hold half a batch and must not serve or accept more work.
    // Degrade instead of dying — lookups fall back to the last committed
    // snapshot, updates are rejected — and leave recovery (checkpoint
    // restore + stream replay, docs/fault_tolerance.md) to the driver.
    status_ = ServeStatus::kDegraded;
    fault_ = failure.what();
    stats_.updates_rejected += pending_.size();
    pending_.clear();
    return 0;
  }
  const double latency = watch.elapsed_sec();
  if (options_.adaptive) {
    batcher_.record(pending_.size(), latency);
  }
  stats_.updates_processed += pending_.size();
  ++stats_.batches_processed;
  stats_.total_sec += result.total_sec();
  const std::size_t applied = pending_.size();
  pending_.clear();
  refresh_labels_and_notify(std::move(result.final_rows));
  return applied;
}

void StreamingServer::refresh_labels_and_notify(
    std::vector<VertexId> final_rows) {
  const std::size_t n = engine_->graph().num_vertices();
  // A batch may GROW the graph. Vertices first seen now have no previous
  // prediction to diff against: baseline them to their current label
  // without firing the callback — appearing is not a flip.
  const std::size_t known = labels_.size();
  if (n > known) {
    labels_.resize(n);
    for (VertexId v = known; v < n; ++v) {
      labels_[v] = engine_->embeddings().predicted_label(v);
    }
  }
  // Only the rows the engine reported can have changed (the final_rows
  // contract in infer/engine.h); callbacks fire in ascending vertex order.
  // RippleEngine reports its rows ascending already, so the sort is for
  // engines that do not.
  if (!std::is_sorted(final_rows.begin(), final_rows.end())) {
    std::sort(final_rows.begin(), final_rows.end());
  }
  for (const VertexId v : final_rows) {
    RIPPLE_CHECK_MSG(v < n, "engine reported final row "
                                << v << " of a " << n << "-vertex graph");
    if (v >= known) continue;  // baselined above
    const std::uint32_t fresh = engine_->embeddings().predicted_label(v);
    if (fresh != labels_[v]) {
      ++stats_.label_changes;
      if (callback_) callback_(v, labels_[v], fresh);
      labels_[v] = fresh;
    }
  }
}

}  // namespace ripple
