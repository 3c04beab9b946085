#include "core/ripple_engine.h"

#include <algorithm>
#include <atomic>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/hop_kernel.h"
#include "infer/layerwise.h"
#include "stream/update_apply.h"
#include "tensor/kernels.h"

namespace ripple {

RippleEngine::RippleEngine(const GnnModel& model, DynamicGraph snapshot,
                           const Matrix& features, ThreadPool* pool,
                           RippleOptions options)
    : model_(model), graph_(std::move(snapshot)),
      store_(model.config(), graph_.num_vertices()),
      stealer_(std::make_unique<WorkStealingScheduler>(pool)),
      options_(options) {
  RIPPLE_CHECK_MSG(is_linear(model_.config().aggregator),
                   "Ripple requires a linear aggregation function (sum, "
                   "mean, weighted_sum); got "
                       << aggregator_name(model_.config().aggregator));
  RIPPLE_CHECK(features.rows() == graph_.num_vertices());
  num_shards_ = options_.num_shards != 0
                    ? options_.num_shards
                    : (pool != nullptr
                           ? std::max<std::size_t>(8, pool->size())
                           : 1);
  const std::size_t num_layers = model_.num_layers();
  agg_cache_.reserve(num_layers);
  mailboxes_.reserve(num_layers);
  for (std::size_t l = 0; l < num_layers; ++l) {
    const std::size_t dim = model_.config().layer_in_dim(l);
    agg_cache_.emplace_back(graph_.num_vertices(), dim);
    mailboxes_.emplace_back(dim, graph_.num_vertices(), num_shards_);
  }
  scratch_.resize(num_shards_);
  msg_buckets_.resize(num_shards_ * num_shards_);
  rank_of_.assign(graph_.num_vertices(), kNoRank);
  bootstrap(features);
}

void RippleEngine::bootstrap(const Matrix& features) {
  store_.features() = features;
  bootstrap_with_caches(model_, graph_, store_, agg_cache_, stealer_.get());
}

void RippleEngine::seed_edge_messages(VertexId u, VertexId v,
                                      EdgeWeight weight, bool is_add) {
  // An edge (u, v) contributes α·h^{l-1}_u to S^l_v at EVERY layer l. At
  // seeding time all embeddings still hold their pre-batch values, which is
  // exactly the contribution present in (deletion) or absent from
  // (addition) the sink's caches. If u's h^{l-1} changes later this batch,
  // u's hop-(l-1) compute phase sends the correction over the live topology.
  const float alpha = edge_coefficient(model_.config().aggregator, weight);
  for (std::size_t l = 1; l <= model_.num_layers(); ++l) {
    const auto h_u = store_.layer(l - 1).row(u);
    if (is_add) {
      mailboxes_[l - 1].accumulate(v, alpha, h_u, {});
    } else {
      mailboxes_[l - 1].accumulate(v, alpha, {}, h_u);
    }
    incremental_ops_ += 1;
  }
}

void RippleEngine::apply_feature_update(const GraphUpdate& update) {
  const VertexId u = update.u;
  const AggregatorKind agg = model_.config().aggregator;
  // Send α·(x_new − x_old) to out-neighbors' hop-1 mailboxes, then commit.
  const auto old_row = store_.features().row(u);
  for (const Neighbor& nb : graph_.out_neighbors(u)) {
    mailboxes_[0].accumulate(nb.vertex, edge_coefficient(agg, nb.weight),
                             update.new_features, old_row);
    incremental_ops_ += 1;
  }
  if (model_.layer(0).uses_self()) {
    mailboxes_[0].mark_self_changed(u);
  }
  vec_copy(update.new_features, store_.features().row(u));
}

void RippleEngine::update(UpdateBatch batch) {
  apply_updates_seeding(
      graph_, batch, store_.features().cols(),
      [this](VertexId u, VertexId v, EdgeWeight weight, bool is_add) {
        seed_edge_messages(u, v, weight, is_add);
      },
      [this](const GraphUpdate& update) { apply_feature_update(update); });
}

std::uint64_t RippleEngine::apply_one_shard(std::size_t l, std::size_t s,
                                            const std::vector<VertexId>& order) {
  Mailbox& mailbox = mailboxes_[l - 1];
  const bool is_last = l == model_.num_layers();

  const Mailbox::Shard& shard = mailbox.shard(s);
  if (shard.size() == 0) return 0;
  // Record Δh at each vertex's canonical rank for the compute phase.
  const RankDeltaSink sink(order, delta_block_);
  return apply_hop_shard(model_, l, graph_, shard, mailbox.dim(),
                         agg_cache_[l - 1], store_.layer(l - 1),
                         store_.layer(l), scratch_[s],
                         is_last ? nullptr : &sink, stealer_.get());
}

namespace {

// First rank of sender block b when `size` senders split into `blocks`
// contiguous blocks.
std::size_t block_begin(std::size_t b, std::size_t size, std::size_t blocks) {
  return b * size / blocks;
}

// Direction switch: a hop pulls when its senders' out-edges M exceed
// kPullFraction · |E|. Set from a recorded per-hop push/pull sweep
// (single-threaded, 4-core Xeon; table in CHANGES.md). The pull walks every
// in-edge of the graph, a cost nearly fixed per hop, while the push grows
// with M. Pull wins from M/|E| ~ 12% on products-s, papers-s and reddit-s
// (in-degree 25, 14.5 and 96), but on arxiv-s (in-degree 6.9) push stays
// faster up to ~40% (by 1.14x at 27%) and the two are even near 49%. 0.15
// keeps every measured products-s and reddit-s hop on its faster or an
// even side, serve-arxiv's hops (M/|E| ~ 0.2%) on push and both
// bulk-products hops (70% and 99.5%) on pull. It leaves papers-s hops at
// 12-15% on the slower push (by 1.28x at 13%) and arxiv-s hops between 15%
// and ~45% on the slower pull.
constexpr double kPullFraction = 0.15;

// In-neighbor hits gathered per axpy_rows call of the pull scatter; a hub
// target takes several calls, each continuing the same rounding chain.
constexpr std::size_t kPullChunk = 64;

}  // namespace

void RippleEngine::bucket_sender_block(std::size_t l, std::size_t b,
                                       const std::vector<VertexId>& order) {
  const Mailbox& next = mailboxes_[l];
  const AggregatorKind agg = model_.config().aggregator;
  // Each block is a contiguous rank range of the canonical sender list; the
  // buckets it fills are appended in ascending-rank order, so draining
  // blocks in index order reconstructs the global ascending-sender order.
  const std::size_t rank_hi = block_begin(b + 1, order.size(), num_shards_);
  for (std::size_t r = block_begin(b, order.size(), num_shards_); r < rank_hi;
       ++r) {
    for (const Neighbor& nb : graph_.out_neighbors(order[r])) {
      const std::size_t t = next.shard_of(nb.vertex);
      msg_buckets_[b * num_shards_ + t].push_back(
          {static_cast<std::uint32_t>(r), nb.vertex,
           edge_coefficient(agg, nb.weight)});
    }
  }
}

void RippleEngine::mark_self_targets(std::size_t l, std::size_t t) {
  // Every mailbox shares num_shards_ and shard_of, so the senders of hop l's
  // shard t are exactly hop-(l+1) shard t's self marks.
  if (!model_.layer(l).uses_self()) return;
  Mailbox& next = mailboxes_[l];
  for (const VertexId v : mailboxes_[l - 1].shard(t).vertices) {
    next.mark_self_changed(v);
  }
}

void RippleEngine::drain_target_shard(std::size_t l, std::size_t t) {
  Mailbox& next = mailboxes_[l];
  // Owner-computes: this call is the only writer of target shard t. Blocks
  // drained in index order + ascending-rank append order within each bucket
  // = global ascending-sender order per cell, independent of shard, thread,
  // and scheduler choice.
  for (std::size_t b = 0; b < num_shards_; ++b) {
    std::vector<ScatterMsg>& msgs = msg_buckets_[b * num_shards_ + t];
    for (const ScatterMsg& m : msgs) {
      next.accumulate(m.target, m.alpha, delta_block_.row(m.rank), {});
    }
    msgs.clear();
  }
  mark_self_targets(l, t);
}

void RippleEngine::pull_target_shard(std::size_t l, std::size_t t) {
  Mailbox& next = mailboxes_[l];
  const KernelOps& ops = kernels();
  const std::size_t dim = delta_block_.cols();
  const AggregatorKind agg = model_.config().aggregator;
  std::uint32_t rows[kPullChunk];
  float alphas[kPullChunk];
  // Owner-computes like the push drain: the targets of shard t are its row
  // range (rows are vertex ids here), walked in ascending id; each in-list
  // is walked in ascending source id — the ascending-sender order the push
  // scatter delivers, so both directions are bit-identical. A target's cell
  // is created at its first sender, so a target without one gets none.
  const auto [first, last] = next.row_range(t);
  for (VertexId v = first; v < last; ++v) {
    float* cell = nullptr;
    std::size_t count = 0;
    const auto flush = [&] {
      if (cell == nullptr) cell = next.touched_delta(v).data();
      ops.axpy_rows(cell, dim, delta_block_.data(), dim, rows, alphas, count);
      count = 0;
    };
    for (const Neighbor& nb : graph_.in_neighbors(v)) {
      const std::uint32_t rank = rank_of_[nb.vertex];
      if (rank == kNoRank) continue;
      rows[count] = rank;
      alphas[count] = edge_coefficient(agg, nb.weight);
      if (++count == kPullChunk) flush();
    }
    if (count != 0) flush();
  }
  mark_self_targets(l, t);
}

std::uint64_t RippleEngine::scatter(std::size_t l,
                                    const std::vector<VertexId>& order) {
  // One message per out-edge of a sender, in either direction.
  std::uint64_t messages = 0;
  for (const VertexId v : order) messages += graph_.out_degree(v);

  if (static_cast<double>(messages) >
      kPullFraction * static_cast<double>(graph_.num_edges())) {
    // Dense hop — pull. The senders' ranks go into rank_of_ (O(senders),
    // serial); then one task per target shard gathers its row range's
    // in-neighbor Δh rows.
    for (std::size_t r = 0; r < order.size(); ++r) {
      rank_of_[order[r]] = static_cast<std::uint32_t>(r);
    }
    stealer_->run(num_shards_, {},
                  [&](std::size_t t) { pull_target_shard(l, t); });
    for (const VertexId v : order) rank_of_[v] = kNoRank;
    return messages;
  }

  // Sparse hop — push. Stage 1: one task per sender block, costed by its
  // sender count, buckets the block's messages per target shard.
  std::vector<std::size_t> block_costs(num_shards_);
  for (std::size_t b = 0; b < num_shards_; ++b) {
    block_costs[b] = block_begin(b + 1, order.size(), num_shards_) -
                     block_begin(b, order.size(), num_shards_);
  }
  stealer_->run(num_shards_, block_costs,
                [&](std::size_t b) { bucket_sender_block(l, b, order); });
  // Stage 2: one task per target shard, costed by its pending messages and
  // self marks (known exactly now that stage 1 filled the buckets).
  const bool uses_self = model_.layer(l).uses_self();
  std::vector<std::size_t> drain_costs(num_shards_, 0);
  for (std::size_t t = 0; t < num_shards_; ++t) {
    if (uses_self) drain_costs[t] = mailboxes_[l - 1].shard(t).size();
    for (std::size_t b = 0; b < num_shards_; ++b) {
      drain_costs[t] += msg_buckets_[b * num_shards_ + t].size();
    }
  }
  stealer_->run(num_shards_, drain_costs,
                [&](std::size_t t) { drain_target_shard(l, t); });
  return messages;
}

BatchResult RippleEngine::propagate() {
  BatchResult result;
  result.num_shards = num_shards_;
  // Pool workers (the stealer's width less the caller), or 1 without a pool.
  result.num_threads = std::max<std::size_t>(1, stealer_->width() - 1);
  // Per-batch stats: this also drops the bootstrap GEMMs' regions.
  stealer_->reset_stats();
  const std::size_t num_layers = model_.num_layers();
  for (std::size_t l = 1; l <= num_layers; ++l) {
    Mailbox& mailbox = mailboxes_[l - 1];
    result.propagation_tree_size += mailbox.size();
    if (l == num_layers) result.affected_final = mailbox.size();
    if (mailbox.empty()) continue;
    const bool is_last = l == num_layers;

    // Canonical sender enumeration: the affected set in ascending id order.
    // The last hop emits no messages, so it skips the sort entirely.
    const std::vector<VertexId> order =
        is_last ? std::vector<VertexId>{} : mailbox.sorted_vertices();
    if (!is_last) {
      // no_fill: the apply phase's RankDeltaSink writes every row (each
      // mailbox vertex drains exactly once) before the scatter reads any.
      delta_block_.resize_no_fill(order.size(),
                                  model_.config().layer_out_dim(l - 1));
    }

    // ---- apply phase: shard-parallel drain + blocked Update GEMMs ----
    // One task per shard, costed by its pending-slot count: the hot shard
    // of a power-law batch is seeded first (LPT) and its GEMM row blocks
    // are stealable, so it no longer gates the phase.
    StopWatch apply_watch;
    std::atomic<std::uint64_t> apply_ops{0};
    stealer_->run(num_shards_, mailbox.shard_sizes(), [&](std::size_t s) {
      apply_ops.fetch_add(apply_one_shard(l, s, order),
                          std::memory_order_relaxed);
    });
    incremental_ops_ += apply_ops.load(std::memory_order_relaxed);
    result.apply_phase_sec += apply_watch.elapsed_sec();

    // ---- compute phase: Δh scatter into the hop-(l+1) mailbox ----
    if (!is_last) {
      StopWatch scatter_watch;
      incremental_ops_ += scatter(l, order);
      result.compute_phase_sec += scatter_watch.elapsed_sec();
    } else {
      // The hop-L mailbox is exactly the set of H^L rows the apply phase
      // rewrote. Each shard's drain left its slots in ascending vertex id
      // (scratch_[s].slots), and the shards are ascending row ranges, so
      // concatenating the drain orders lists every row once, ascending.
      result.final_rows.reserve(mailbox.size());
      for (std::size_t s = 0; s < num_shards_; ++s) {
        const Mailbox::Shard& shard = mailbox.shard(s);
        if (shard.size() == 0) continue;  // not drained: stale slots
        for (const std::uint32_t slot : scratch_[s].slots) {
          result.final_rows.push_back(shard.vertices[slot]);
        }
      }
    }
    mailbox.clear();
  }
  result.sched = stealer_->stats();
  return result;
}

BatchResult RippleEngine::apply_batch(UpdateBatch batch) {
  StopWatch update_watch;
  update(batch);
  const double update_sec = update_watch.elapsed_sec();

  StopWatch propagate_watch;
  BatchResult result = propagate();
  result.propagate_sec = propagate_watch.elapsed_sec();
  result.update_sec = update_sec;
  result.batch_size = batch.size();
  return result;
}

std::size_t RippleEngine::memory_bytes() const {
  std::size_t total = store_.bytes() + graph_.bytes();
  for (const auto& cache : agg_cache_) total += cache.bytes();
  for (const auto& mailbox : mailboxes_) total += mailbox.bytes();
  total += rank_of_.capacity() * sizeof(std::uint32_t);
  return total;
}

}  // namespace ripple
