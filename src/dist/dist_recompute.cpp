#include "dist/dist_recompute.h"

#include <algorithm>
#include <utility>

#include "common/timer.h"
#include "dist/bsp.h"
#include "infer/affected.h"
#include "infer/layerwise.h"
#include "stream/update.h"
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
  layerwise_full_inference(model_, graph_, full, pool_);
  states_.resize(num_parts);
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (hosts(p)) {
      states_[p] = EmbeddingStore(model_.config(), row_map_.part_size(p));
    }
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
  const BatchAccount account = open_batch(batch.size(), result);
  const BspTiming timing = account.timing;
  std::vector<double>* const wait = account.wait;
  const std::size_t num_parts = partition_.num_parts();

  // ---- superstep U: ingress routing + replica update application ----
  // Every endpoint applies the batch to its topology replica; feature rows
  // commit only into the hosting owner's H^0 (the same guards
  // infer/recompute.cpp's apply_updates_to_graph uses).
  transport_->begin_superstep();
  route_batch(*transport_, batch);
  StopWatch update_watch;
  for (const GraphUpdate& update : batch) {
    switch (update.kind) {
      case UpdateKind::edge_add:
        graph_.add_edge(update.u, update.v, update.weight);
        break;
      case UpdateKind::edge_del:
        graph_.remove_edge(update.u, update.v);
        break;
      case UpdateKind::vertex_feature: {
        RIPPLE_CHECK_MSG(
            update.new_features.size() == model_.config().feat_dim,
            "feature width mismatch");
        const std::uint32_t pu = owner(update.u);
        if (hosts(pu)) {
          vec_copy(update.new_features,
                   states_[pu].features().row(local(update.u)));
        }
        break;
      }
    }
  }
  result.compute_sec += update_watch.elapsed_sec();
  result.comm_sec += transport_->end_superstep();
  add_transport_waits(result);

  const bool uses_self = model_.layer(0).uses_self();
  const auto affected = compute_affected_sets(graph_, batch,
                                              model_.num_layers(), uses_self);

  // ---- hops: halo pull + owned recompute, one superstep per layer ----
  for (std::size_t l = 0; l < model_.num_layers(); ++l) {
    // Halo pulls: every remote in-neighbor of an owned affected vertex is
    // shipped once per requesting partition this hop — the OWNER pushes its
    // committed row (both sides derive the identical pull set from the
    // replicated topology, so no request round-trip exists).
    transport_->begin_superstep();
    pulled_.clear();
    for (const VertexId v : affected[l]) {
      const std::uint32_t p = owner(v);
      for (const Neighbor& nb : graph_.in_neighbors(v)) {
        const std::uint32_t pu = owner(nb.vertex);
        if (pu == p) continue;
        const std::uint64_t key =
            static_cast<std::uint64_t>(nb.vertex) * num_parts + p;
        if (!pulled_.insert(key).second) continue;
        if (!hosts(pu)) continue;
        transport_->send(pu, p, nb.vertex,
                         states_[pu].layer(l).row(local(nb.vertex)));
      }
    }
    result.comm_sec += transport_->end_superstep();
    add_transport_waits(result);

    // Index the received rows by sender for the aggregation resolver.
    // Width validation here, serial and BEFORE the pooled recompute phase
    // (an exception escaping a worker task would terminate the process):
    // a truncated frame is wire damage, typed kCorrupt.
    const std::size_t pull_width = model_.config().embedding_dim(l);
    for (std::size_t p = 0; p < num_parts; ++p) {
      if (!hosts(p)) continue;
      pull_index_[p].clear();
      const Transport::Inbox& inbox = transport_->inbox(p);
      for (const Transport::Message& m : inbox.messages) {
        if (inbox.payload_of(m).size() != pull_width) {
          throw TransportError(
              TransportErrorKind::kCorrupt,
              "pull row frame width mismatch: expected " +
                  std::to_string(pull_width) + " floats, got " +
                  std::to_string(inbox.payload_of(m).size()));
        }
        pull_index_[p][m.sender] = inbox.payload_of(m).data();
      }
    }

    // Owned recompute: identical per-row float work to single-machine RC
    // (the resolver variant replays aggregate_neighbors' op sequence); rows
    // are independent, so neither the partition split nor the scheduler
    // can change the bits.
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
      aggregate_neighbors_resolved(model_.config().aggregator,
                                   graph_.in_neighbors(v), row_of,
                                   std::span<float>(x_scratch));
      const std::uint32_t r = local(v);
      model_.layer(l).update_row(st.layer(l).row(r), x_scratch,
                                 st.layer(l + 1).row(r));
      model_.apply_activation_row(l, st.layer(l + 1).row(r));
    };
    // One stealable task per block of a hosted partition's owned affected
    // vertices, costed by Σ in-degree — the pull work InkStream observes
    // is concentrated on a few high-degree vertices. A hot partition's
    // endpoint is the W-worker makespan bound over its blocks
    // (dist/bsp.h). Every machine plans its blocks by scanning the whole
    // replicated affected set, so the planning bills its wall seconds.
    const StopWatch plan_watch;
    std::vector<std::vector<VertexId>> owned(num_parts);
    for (const VertexId v : affected[l]) {
      const std::uint32_t p = owner(v);
      if (hosts(p)) owned[p].push_back(v);
    }
    constexpr std::size_t kBlock = 64;
    struct Block {
      std::uint32_t part;
      std::size_t lo, hi;
    };
    std::vector<Block> blocks;
    std::vector<PartTask> tasks;
    for (std::size_t p = 0; p < num_parts; ++p) {
      for (std::size_t lo = 0; lo < owned[p].size(); lo += kBlock) {
        const std::size_t hi = std::min(owned[p].size(), lo + kBlock);
        std::size_t cost = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          cost += graph_.in_degree(owned[p][i]) + 1;
        }
        blocks.push_back({static_cast<std::uint32_t>(p), lo, hi});
        tasks.push_back({static_cast<std::uint32_t>(p), cost});
      }
    }
    if (block_scratch_.size() < blocks.size()) {
      block_scratch_.resize(blocks.size());
    }
    result.compute_sec += plan_watch.elapsed_sec();
    result.compute_sec += timed_over_part_tasks(
        *stealer_, num_parts, tasks,
        [&](std::size_t i) {
          const Block& block = blocks[i];
          std::vector<float>& x_scratch = block_scratch_[i];
          x_scratch.assign(model_.config().layer_in_dim(l), 0.0f);
          for (std::size_t j = block.lo; j < block.hi; ++j) {
            recompute_row(block.part, owned[block.part][j], x_scratch);
          }
        },
        timing, wait);
  }
  result.propagation_tree_size = propagation_tree_size(affected);
  result.affected_final = affected.back().size();
  close_batch(account, result);
  return result;
}

std::size_t DistRecomputeEngine::memory_bytes() const {
  // One rank's row state: the LARGEST hosted partition's footprint (per
  // the DistEngineBase contract) plus the shared row map. The replicated
  // topology is deliberately excluded — see src/dist/README.md.
  std::size_t worst = 0;
  for (std::size_t p = 0; p < states_.size(); ++p) {
    if (!transport_->hosts(p)) continue;
    worst = std::max(worst, states_[p].bytes());
  }
  return worst + row_map_.bytes();
}

}  // namespace ripple
