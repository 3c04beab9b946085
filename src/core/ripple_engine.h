// RippleEngine: the paper's incremental, strictly look-forward streaming
// GNN inference engine (§4.3).
//
// State beyond the baselines' (graph + H^0..H^L):
//  * aggregate caches  S^l[v] = Σ_{u∈N_in(v)} α(u,v)·h^{l-1}_u  (raw sums —
//    the mean aggregator divides by the live in-degree at apply time), and
//  * one mailbox per hop.
//
// update(batch) applies topology/feature changes at hop 0 and seeds
// mailboxes; propagate() walks hops 1..L. Per affected vertex the
// aggregation work is O(k') in the number of *changed* in-neighbors instead
// of the baselines' O(k) pull — the core claim of the paper (§4.3.3).
//
// Shard-parallel propagation core
// -------------------------------
// Each hop's mailbox is sharded by vertex hash (core/mailbox.h), and each
// hop runs as two phases on the work-stealing runtime: one task per
// shard / sender block, LPT-seeded by pending-slot counts and stolen on
// imbalance (common/scheduler.h). Without a pool every task runs inline.
//
//  * Apply phase — shard-parallel. Each worker drains whole shards: it
//    folds the shard's accumulated Δagg into the aggregate cache, gathers
//    the shard's affected rows into a dense block, re-evaluates the layer
//    Update function with ONE blocked GEMM (GnnLayer::update_matrix)
//    instead of per-vertex GEMVs, and scatters the results back into H^l.
//    Every vertex lives in exactly one shard, so workers write disjoint
//    rows and no synchronization is needed.
//
//  * Compute phase — two lock-free stages. (1) Bucket build: the canonical
//    sender list (the affected set in ascending id order) is split into
//    fixed contiguous blocks; workers scan each block's out-edges ONCE and
//    bucket (sender rank, target, α) tuples per (block, target shard).
//    (2) Owner-computes drain: the worker that owns target shard s is the
//    only writer of s; it drains s's buckets in block order — and within a
//    block in the ascending-rank order the build stage appended — so every
//    cell accumulates its Δh messages in global ascending-sender order.
//    No locks, no atomics, and the edge list is traversed exactly once
//    regardless of shard or thread count.
//
// Determinism guarantee: float accumulation order is fixed — each mailbox
// cell has a single writer and receives its messages in ascending
// sender-id order (contiguous blocks drained in order reconstruct the
// global sort, independent of how senders block or targets hash to
// shards). Embeddings are therefore bit-identical for ANY shard count
// and ANY thread count, including the sequential
// 1-shard/1-thread configuration — the scheduler only decides WHICH worker
// runs a task, never what it computes or in what within-task order
// (property-tested in tests/core/test_ripple_properties.cpp).
// Per-phase timings, shard and thread counts are reported through
// BatchResult.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/scheduler.h"
#include "core/hop_kernel.h"
#include "core/mailbox.h"
#include "infer/engine.h"

namespace ripple {

struct RippleOptions {
  // Ablation knob (off by default, faithful to the paper: "Ripple does not
  // perform pruning or selective updates"). When on, a vertex whose new
  // embedding equals its old one (within tolerance) sends no messages.
  bool prune_unchanged = false;
  float prune_tolerance = 0.0f;

  // Mailbox shards per hop. 0 = auto: 1 without a thread pool, else
  // max(8, pool size) so the apply/compute phases have enough independent
  // work units to balance. Embeddings do not depend on this value (see the
  // determinism note above) — it only shapes parallel granularity.
  std::size_t num_shards = 0;
};

class RippleEngine : public InferenceEngine {
 public:
  RippleEngine(const GnnModel& model, DynamicGraph snapshot,
               const Matrix& features, ThreadPool* pool = nullptr,
               RippleOptions options = {});

  const char* name() const override { return "Ripple"; }
  BatchResult apply_batch(UpdateBatch batch) override;

  const EmbeddingStore& embeddings() const override { return store_; }
  const DynamicGraph& graph() const override { return graph_; }
  const GnnModel& model() const override { return model_; }
  std::size_t memory_bytes() const override;

  // The two primary operators (§4.3.2), exposed so the distributed runtime
  // and white-box tests can drive hops individually.
  void update(UpdateBatch batch);  // hop-0 apply + hop-1..L mailbox seeding
  BatchResult propagate();         // hops 1..L apply+compute phases

  // Resolved shard count (after the num_shards=0 auto rule).
  std::size_t num_shards() const { return num_shards_; }

  // Test hook: layer-l aggregate cache (l in [1, L]).
  const Matrix& aggregate_cache(std::size_t l) const {
    return agg_cache_[l - 1];
  }
  // Test hook: hop-l mailbox (l in [1, L]).
  const Mailbox& mailbox(std::size_t l) const { return mailboxes_[l - 1]; }
  Mailbox& mutable_mailbox(std::size_t l) { return mailboxes_[l - 1]; }

  // Number of incremental numerical ops performed since construction
  // (2·k' model of §4.3.3); used by the ablation/benefit analysis bench.
  std::uint64_t incremental_ops() const { return incremental_ops_; }

 private:
  void bootstrap(const Matrix& features);
  float edge_alpha(EdgeWeight weight) const;
  void seed_edge_messages(VertexId u, VertexId v, EdgeWeight weight,
                          bool is_add);
  void apply_feature_update(const GraphUpdate& update);
  // Apply-phase task: drain shard s of hop l; returns its incremental-op
  // count. `order` is the canonical (sorted) affected set; delta rows are
  // written at each vertex's rank in it.
  std::uint64_t apply_one_shard(std::size_t l, std::size_t s,
                                const std::vector<VertexId>& order);
  // Compute-phase stage-1 task of hop l: scan sender block b (a contiguous
  // rank range of `order`) and bucket its messages per (block, target
  // shard); returns the block's message count.
  std::uint64_t bucket_sender_block(std::size_t l, std::size_t b,
                                    const std::vector<VertexId>& order);
  // Compute-phase stage-2 task of hop l: drain target shard t of the
  // hop-(l+1) mailbox in block order.
  void drain_target_shard(std::size_t l, std::size_t t);

  GnnModel model_;
  DynamicGraph graph_;
  EmbeddingStore store_;
  std::vector<Matrix> agg_cache_;   // [l-1] -> n x layer_in_dim(l-1) sums
  std::vector<Mailbox> mailboxes_;  // [l-1] -> hop-l mailbox
  ThreadPool* pool_;
  // Work-stealing runtime for the propagation phases: one task per shard /
  // sender block, LPT-seeded by pending-slot counts, so a power-law hot
  // shard no longer gates the phase. Without a pool it runs every phase
  // inline. Reset per batch so BatchResult reports per-batch stats.
  std::unique_ptr<WorkStealingScheduler> stealer_;
  RippleOptions options_;
  std::size_t num_shards_ = 1;
  std::uint64_t incremental_ops_ = 0;
  // Per-shard gather/compute blocks reused across hops (each shard's apply
  // task owns exactly one scratch set, so parallel workers never share).
  std::vector<HopShardScratch> scratch_;  // one per shard
  Matrix delta_block_;                    // rank-major Δh rows for one hop
  std::vector<std::uint8_t> send_flags_;  // rank-major (pruning ablation)

  // Compute-phase message buckets, flat-indexed [block * num_shards_ +
  // target_shard]; cleared (capacity retained) every hop.
  struct ScatterMsg {
    std::uint32_t rank;  // sender's rank in the canonical order
    VertexId target;
    float alpha;
  };
  std::vector<std::vector<ScatterMsg>> msg_buckets_;
  std::vector<std::vector<VertexId>> self_buckets_;
};

}  // namespace ripple
