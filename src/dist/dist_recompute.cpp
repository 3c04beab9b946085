#include "dist/dist_recompute.h"

#include <algorithm>
#include <utility>

#include "common/timer.h"
#include "infer/affected.h"
#include "infer/layerwise.h"
#include "stream/update_apply.h"
#include "tensor/ops.h"

namespace ripple {

DistRecomputeEngine::DistRecomputeEngine(const GnnModel& model,
                                         DynamicGraph snapshot,
                                         const Matrix& features,
                                         Partition partition, ThreadPool* pool,
                                         std::unique_ptr<Transport> transport)
    : DistEngineBase("rc", model, std::move(snapshot), features,
                     std::move(partition), pool, std::move(transport)) {
  const std::size_t num_parts = partition_.num_parts();
  pull_index_.resize(num_parts);

  // Transient full bootstrap over the replicated topology, then scatter
  // each hosted partition's owned rows; the full tables are freed when the
  // constructor returns, so steady-state residency is per-rank.
  EmbeddingStore full(model_.config(), graph_.num_vertices());
  full.features() = features;
  layerwise_full_inference(model_, graph_, full, stealer_.get());
  states_.resize(num_parts);
  for (const std::uint32_t p : hosted_) {
    states_[p] = EmbeddingStore(model_.config(), row_map_.part_size(p));
  }
  std::vector<const Matrix*> full_layout;
  for (std::size_t l = 0; l <= model_.num_layers(); ++l) {
    full_layout.push_back(&full.layer(l));
  }
  scatter_owned(full_layout);
}

std::vector<Matrix*> DistRecomputeEngine::owned_layout(std::size_t part) {
  std::vector<Matrix*> layout;
  for (std::size_t l = 0; l <= model_.num_layers(); ++l) {
    layout.push_back(&states_[part].layer(l));
  }
  return layout;
}

DistBatchResult DistRecomputeEngine::apply_batch(UpdateBatch batch) {
  DistBatchResult result;
  open_batch(batch.size(), result);
  const std::size_t num_parts = partition_.num_parts();

  // ---- superstep U: ingress routing + replica update application ----
  // Every endpoint applies the batch to its topology replica through the
  // shared guards (stream/update_apply.h); feature rows commit only into
  // the hosting owner's H^0.
  superstep([&] {
    route_batch(batch);
    const StopWatch update_watch;
    apply_updates_seeding(
        graph_, batch, model_.config().feat_dim,
        [](VertexId, VertexId, EdgeWeight, bool) {},
        [&](const GraphUpdate& update) {
          const std::uint32_t pu = owner(update.u);
          if (hosts(pu)) {
            vec_copy(update.new_features,
                     states_[pu].features().row(local(update.u)));
          }
        });
    result.compute_sec += update_watch.elapsed_sec();
  });

  const bool uses_self = model_.layer(0).uses_self();
  const auto affected = compute_affected_sets(graph_, batch,
                                              model_.num_layers(), uses_self);

  // ---- hops: halo pull + owned recompute, one superstep per layer ----
  for (std::size_t l = 0; l < model_.num_layers(); ++l) {
    // Plan: one scan of the whole replicated affected set, which every
    // machine runs, so it bills its wall seconds. It derives the halo
    // pulls — every remote in-neighbor of an owned affected vertex is
    // shipped once per requesting partition this hop; the OWNER pushes its
    // committed row (both sides derive the identical pull set from the
    // replicated topology, so no request round-trip exists) — and each
    // hosted partition's owned affected vertices. One stealable recompute
    // task per block of those, costed by Σ in-degree: the pull work
    // InkStream observes is concentrated on a few high-degree vertices. A
    // hot partition's endpoint is the W-worker makespan bound over its
    // blocks (DistEngineBase::compute).
    const StopWatch plan_watch;
    pulled_.clear();
    pulls_.clear();
    std::vector<std::vector<VertexId>> owned(num_parts);
    for (const VertexId v : affected[l]) {
      const std::uint32_t p = owner(v);
      if (hosts(p)) owned[p].push_back(v);
      for (const Neighbor& nb : graph_.in_neighbors(v)) {
        const std::uint32_t pu = owner(nb.vertex);
        if (pu == p || !hosts(pu)) continue;
        const std::uint64_t key =
            static_cast<std::uint64_t>(nb.vertex) * num_parts + p;
        if (pulled_.insert(key).second) pulls_.push_back({nb.vertex, p});
      }
    }
    constexpr std::size_t kBlock = 64;
    struct Block {
      std::uint32_t part;
      std::size_t lo, hi;
    };
    std::vector<Block> blocks;
    std::vector<PartTask> tasks;
    for (const std::uint32_t p : hosted_) {
      for (std::size_t lo = 0; lo < owned[p].size(); lo += kBlock) {
        const std::size_t hi = std::min(owned[p].size(), lo + kBlock);
        std::size_t cost = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          cost += graph_.in_degree(owned[p][i]) + 1;
        }
        blocks.push_back({p, lo, hi});
        tasks.push_back({p, cost});
      }
    }
    if (block_scratch_.size() < blocks.size()) {
      block_scratch_.resize(blocks.size());
    }
    result.compute_sec += plan_watch.elapsed_sec();

    superstep([&] {
      for (const auto& [u, p] : pulls_) {
        const std::uint32_t pu = owner(u);
        transport_->send(pu, p, u, states_[pu].layer(l).row(local(u)));
      }
    });
    check_hop_inbox(model_.config().embedding_dim(l));
    // Index the received rows by sender for the aggregation resolver.
    for (const std::uint32_t p : hosted_) {
      pull_index_[p].clear();
      const Transport::Inbox& inbox = transport_->inbox(p);
      for (const Transport::Message& m : inbox.messages) {
        pull_index_[p][m.sender] = inbox.payload_of(m).data();
      }
    }

    // Owned recompute: the same recompute_vertex step single-machine RC
    // runs, over rows resolved from owned storage or the pulled payloads;
    // rows are independent, so neither the partition split nor the
    // scheduler can change the bits.
    const auto recompute_row = [&](std::size_t p, VertexId v,
                                   std::vector<float>& x_scratch) {
      EmbeddingStore& st = states_[p];
      const auto& pulls = pull_index_[p];
      const auto row_of = [&](VertexId u) -> const float* {
        if (owner(u) == p) {
          return st.layer(l).row(local(u)).data();
        }
        const auto it = pulls.find(u);
        RIPPLE_CHECK_MSG(it != pulls.end(),
                         "missing pulled row for vertex " << u);
        return it->second;
      };
      const std::uint32_t r = local(v);
      recompute_vertex(model_, l, graph_.in_neighbors(v), row_of,
                       st.layer(l).row(r), x_scratch, st.layer(l + 1).row(r));
    };
    compute(tasks, [&](std::size_t i) {
      const Block& block = blocks[i];
      std::vector<float>& x_scratch = block_scratch_[i];
      x_scratch.assign(model_.config().layer_in_dim(l), 0.0f);
      for (std::size_t j = block.lo; j < block.hi; ++j) {
        recompute_row(block.part, owned[block.part][j], x_scratch);
      }
    });
  }
  result.propagation_tree_size = propagation_tree_size(affected);
  result.affected_final = affected.back().size();
  close_batch();
  return result;
}

std::size_t DistRecomputeEngine::memory_bytes() const {
  // One rank's row state: the LARGEST hosted partition's footprint (per
  // the DistEngineBase contract) plus the shared row map. The replicated
  // topology is deliberately excluded — see src/dist/README.md.
  std::size_t worst = 0;
  for (const std::uint32_t p : hosted_) {
    worst = std::max(worst, states_[p].bytes());
  }
  return worst + row_map_.bytes();
}

}  // namespace ripple
