#include "core/ripple_engine.h"

#include <algorithm>
#include <atomic>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/hop_kernel.h"
#include "infer/layerwise.h"
#include "stream/update_apply.h"

namespace ripple {

RippleEngine::RippleEngine(const GnnModel& model, DynamicGraph snapshot,
                           const Matrix& features, ThreadPool* pool,
                           RippleOptions options)
    : model_(model), graph_(std::move(snapshot)),
      store_(model.config(), graph_.num_vertices()), pool_(pool),
      stealer_(std::make_unique<WorkStealingScheduler>(pool)),
      options_(options) {
  RIPPLE_CHECK_MSG(is_linear(model_.config().aggregator),
                   "Ripple requires a linear aggregation function (sum, "
                   "mean, weighted_sum); got "
                       << aggregator_name(model_.config().aggregator));
  RIPPLE_CHECK(features.rows() == graph_.num_vertices());
  num_shards_ = options_.num_shards != 0
                    ? options_.num_shards
                    : (pool_ != nullptr
                           ? std::max<std::size_t>(8, pool_->size())
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
  self_buckets_.resize(num_shards_ * num_shards_);
  bootstrap(features);
}

float RippleEngine::edge_alpha(EdgeWeight weight) const {
  return model_.config().aggregator == AggregatorKind::weighted_sum
             ? weight
             : 1.0f;
}

void RippleEngine::bootstrap(const Matrix& features) {
  store_.features() = features;
  bootstrap_with_caches(model_, graph_, store_, agg_cache_, pool_);
}

void RippleEngine::seed_edge_messages(VertexId u, VertexId v,
                                      EdgeWeight weight, bool is_add) {
  // An edge (u, v) contributes α·h^{l-1}_u to S^l_v at EVERY layer l. At
  // seeding time all embeddings still hold their pre-batch values, which is
  // exactly the contribution present in (deletion) or absent from
  // (addition) the sink's caches. If u's h^{l-1} changes later this batch,
  // u's hop-(l-1) compute phase sends the correction over the live topology.
  const float alpha = edge_alpha(weight);
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
  RIPPLE_CHECK_MSG(update.new_features.size() == store_.features().cols(),
                   "feature width mismatch");
  const VertexId u = update.u;
  // Send α·(x_new − x_old) to out-neighbors' hop-1 mailboxes, then commit.
  const auto old_row = store_.features().row(u);
  for (const Neighbor& nb : graph_.out_neighbors(u)) {
    mailboxes_[0].accumulate(nb.vertex, edge_alpha(nb.weight),
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
      graph_, batch,
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

std::uint64_t RippleEngine::bucket_sender_block(
    std::size_t l, std::size_t b, const std::vector<VertexId>& order) {
  const Mailbox& next = mailboxes_[l];
  const bool uses_self = model_.layer(l).uses_self();
  const std::size_t num_blocks = num_shards_;
  std::uint64_t messages = 0;
  // Each block is a contiguous rank range of the canonical sender list; the
  // buckets it fills are appended in ascending-rank order, so draining
  // blocks in index order reconstructs the global ascending-sender order.
  const std::size_t rank_lo = b * order.size() / num_blocks;
  const std::size_t rank_hi = (b + 1) * order.size() / num_blocks;
  for (std::size_t r = rank_lo; r < rank_hi; ++r) {
    const VertexId v = order[r];
    for (const Neighbor& nb : graph_.out_neighbors(v)) {
      const std::size_t t = next.shard_of(nb.vertex);
      msg_buckets_[b * num_shards_ + t].push_back(
          {static_cast<std::uint32_t>(r), nb.vertex,
           edge_alpha(nb.weight)});
      ++messages;
    }
    if (uses_self) {
      self_buckets_[b * num_shards_ + next.shard_of(v)].push_back(v);
    }
  }
  return messages;
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
    std::vector<VertexId>& selfs = self_buckets_[b * num_shards_ + t];
    for (const VertexId v : selfs) next.mark_self_changed(v);
    selfs.clear();
  }
}

BatchResult RippleEngine::propagate() {
  BatchResult result;
  result.num_shards = num_shards_;
  result.num_threads = pool_ != nullptr ? pool_->size() : 1;
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

    // ---- compute phase: bucket Δh messages, then owner-computes drain ----
    if (!is_last) {
      StopWatch scatter_watch;
      std::atomic<std::uint64_t> messages{0};
      // Stage 1: one task per sender block, costed by its sender count.
      std::vector<std::size_t> block_costs(num_shards_);
      for (std::size_t b = 0; b < num_shards_; ++b) {
        block_costs[b] = (b + 1) * order.size() / num_shards_ -
                         b * order.size() / num_shards_;
      }
      stealer_->run(num_shards_, block_costs, [&](std::size_t b) {
        messages.fetch_add(bucket_sender_block(l, b, order),
                           std::memory_order_relaxed);
      });
      // Stage 2: one task per target shard, costed by its pending messages
      // (known exactly now that stage 1 filled the buckets).
      std::vector<std::size_t> drain_costs(num_shards_, 0);
      for (std::size_t t = 0; t < num_shards_; ++t) {
        for (std::size_t b = 0; b < num_shards_; ++b) {
          drain_costs[t] += msg_buckets_[b * num_shards_ + t].size() +
                            self_buckets_[b * num_shards_ + t].size();
        }
      }
      stealer_->run(num_shards_, drain_costs,
                    [&](std::size_t t) { drain_target_shard(l, t); });
      incremental_ops_ += messages.load(std::memory_order_relaxed);
      result.compute_phase_sec += scatter_watch.elapsed_sec();
    } else {
      // The hop-L mailbox is exactly the set of H^L rows the apply phase
      // rewrote; shards partition it, so the concatenation has no repeats.
      result.final_rows.reserve(mailbox.size());
      for (std::size_t s = 0; s < num_shards_; ++s) {
        const std::vector<VertexId>& rows = mailbox.shard(s).vertices;
        result.final_rows.insert(result.final_rows.end(), rows.begin(),
                                 rows.end());
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
  return total;
}

}  // namespace ripple
