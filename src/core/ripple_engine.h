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
// Each hop's mailbox is sharded into contiguous vertex-id ranges
// (core/mailbox.h), and each hop runs as two phases on the work-stealing
// runtime: one task per shard / sender block, LPT-seeded by pending-slot
// counts and stolen on imbalance (common/scheduler.h). Without a pool every
// task runs inline.
//
//  * Apply phase — shard-parallel. Each worker drains whole shards: it
//    folds the shard's accumulated Δagg into the aggregate cache, gathers
//    the shard's affected rows into a dense block, re-evaluates the layer
//    Update function with ONE blocked GEMM (GnnLayer::update_matrix)
//    instead of per-vertex GEMVs, and scatters the results back into H^l.
//    Every vertex lives in exactly one shard, so workers write disjoint
//    rows and no synchronization is needed; a shard's rows are one id
//    range, so each worker's walks over the cache and H^l stay local.
//
//  * Compute phase — the Δh scatter into the hop-(l+1) mailbox, in one of
//    two directions chosen per hop (Beamer et al.'s direction-optimizing
//    traversal). The switch compares the senders' out-edge count
//    M = Σ out_degree(u), O(|senders|) to sum, against |E|: a hop whose
//    M exceeds kPullFraction · |E| (ripple_engine.cpp, with the sweep that
//    set it) pulls, every other hop pushes. Both directions end in one
//    lock-free task per target shard.
//    - Push (sparse hops). (1) Bucket build: the canonical sender list
//      (the affected set in ascending id order) is split into fixed
//      contiguous blocks; workers scan each block's out-edges ONCE and
//      bucket (sender rank, target, α) tuples per (block, target shard).
//      (2) Owner-computes drain: the worker that owns target shard s is the
//      only writer of s; it drains s's buckets in block order — and within
//      a block in the ascending-rank order the build stage appended — so
//      every cell accumulates its Δh messages in global ascending-sender
//      order.
//    - Pull (dense hops, where most cells of the graph receive messages
//      and a per-message mailbox read-modify-write dominates). The senders'
//      ranks go serially into a dense row → rank array (O(senders)). Then
//      the owner of target shard s walks its id range in ascending order;
//      per target it walks the in-list, keeps the in-neighbors that have a
//      rank, creates the cell at the first one, and adds their α·Δh rows
//      with KernelOps::axpy_rows, which holds the cell in registers. A
//      target with no sender in-neighbor gets no cell.
//    Pull is bit-identical to push because DynamicGraph keeps every in-list
//    sorted by source id (graph/dynamic_graph.h): the in-neighbors that are
//    senders appear in ascending id — the canonical rank order — which is
//    exactly the order push delivers, and axpy_rows keeps vec_axpy's
//    per-term rounding chain. In both directions the target-shard task also
//    sets the self marks of shard s: every mailbox shares num_shards and
//    shard_of, so they are hop l's shard-s vertices. No locks, and the
//    edge lists are traversed a fixed number of times regardless of shard
//    or thread count.
//
// Determinism guarantee: float accumulation order is fixed — each mailbox
// cell has a single writer and receives its messages in ascending
// sender-id order (contiguous blocks drained in order, or an id-sorted
// in-list, reconstruct the global sort, independent of how senders block
// or targets fall into shards, and of the direction). Embeddings are
// therefore bit-identical for ANY shard count and ANY thread count,
// including the sequential 1-shard/1-thread configuration — the scheduler
// only decides WHICH worker runs a task, never what it computes or in what
// within-task order (property-tested in
// tests/core/test_ripple_properties.cpp).
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
  // Mailbox shards per hop, each an equal-width range of vertex ids (the
  // rows of core/mailbox.h). 0 = auto: 1 without a thread pool, else
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
  // (2·k' model of §4.3.3); the end-to-end benchmark reports it.
  std::uint64_t incremental_ops() const { return incremental_ops_; }

 private:
  void bootstrap(const Matrix& features);
  void seed_edge_messages(VertexId u, VertexId v, EdgeWeight weight,
                          bool is_add);
  void apply_feature_update(const GraphUpdate& update);
  // Apply-phase task: drain shard s of hop l; returns its incremental-op
  // count. `order` is the canonical (sorted) affected set; delta rows are
  // written at each vertex's rank in it.
  std::uint64_t apply_one_shard(std::size_t l, std::size_t s,
                                const std::vector<VertexId>& order);
  // Compute phase of hop l: scatters the hop's Δh rows (delta_block_, one
  // per rank of `order`) into the hop-(l+1) mailbox, pushing or pulling;
  // returns the message count (one per sender out-edge).
  std::uint64_t scatter(std::size_t l, const std::vector<VertexId>& order);
  // Push stage-1 task: scan sender block b (a contiguous rank range of
  // `order`) and bucket its messages per (block, target shard).
  void bucket_sender_block(std::size_t l, std::size_t b,
                           const std::vector<VertexId>& order);
  // Push stage-2 task: drain target shard t of the hop-(l+1) mailbox in
  // block order.
  void drain_target_shard(std::size_t l, std::size_t t);
  // Pull task: gather every target in shard t's row range that has a
  // sender in-neighbor from those senders' Δh rows, ascending target id.
  void pull_target_shard(std::size_t l, std::size_t t);
  // Sets the hop-(l+1) self marks of shard t (self-term layers only); the
  // push drain and the pull task end with it.
  void mark_self_targets(std::size_t l, std::size_t t);

  GnnModel model_;
  DynamicGraph graph_;
  EmbeddingStore store_;
  std::vector<Matrix> agg_cache_;   // [l-1] -> n x layer_in_dim(l-1) sums
  std::vector<Mailbox> mailboxes_;  // [l-1] -> hop-l mailbox
  // Work-stealing runtime for the bootstrap GEMMs and the propagation
  // phases: one task per shard / sender block, LPT-seeded by pending-slot
  // counts, so a power-law hot shard no longer gates the phase. Without a
  // pool it runs every region inline. Reset per batch so BatchResult
  // reports per-batch stats.
  std::unique_ptr<WorkStealingScheduler> stealer_;
  RippleOptions options_;
  std::size_t num_shards_ = 1;
  std::uint64_t incremental_ops_ = 0;
  // Per-shard gather/compute blocks reused across hops (each shard's apply
  // task owns exactly one scratch set, so parallel workers never share).
  std::vector<HopShardScratch> scratch_;  // one per shard
  Matrix delta_block_;                    // rank-major Δh rows for one hop

  // Push-scatter message buckets, flat-indexed [block * num_shards_ +
  // target_shard]; cleared (capacity retained) every hop.
  struct ScatterMsg {
    std::uint32_t rank;  // sender's rank in the canonical order
    VertexId target;
    float alpha;
  };
  std::vector<std::vector<ScatterMsg>> msg_buckets_;

  // Pull-scatter state, indexed by vertex id and at rest between hops: a
  // sender's rank in the canonical order (kNoRank for non-senders).
  static constexpr std::uint32_t kNoRank = UINT32_MAX;
  std::vector<std::uint32_t> rank_of_;
};

}  // namespace ripple
