#include "dist/dist_recompute.h"

#include <algorithm>
#include <utility>

#include "common/thread_pool.h"
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
                                         std::unique_ptr<Transport> transport,
                                         SchedulerMode scheduler,
                                         ExecMode mode)
    : DistEngineBase("rc", model, std::move(snapshot), features,
                     std::move(partition), pool, std::move(transport),
                     scheduler, mode) {
  const std::size_t num_parts = partition_.num_parts();
  x_scratch_.resize(num_parts);
  pull_index_.resize(num_parts);
  async_.resize(num_parts);

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
  result.batch_size = batch.size();
  result.num_parts = partition_.num_parts();
  const std::size_t wire_bytes_before = transport_->wire_bytes();
  const std::size_t wire_messages_before = transport_->wire_messages();
  const std::size_t retries_before = transport_->retries();
  const std::size_t timeouts_before = transport_->timeouts();
  const std::size_t heartbeats_before = transport_->heartbeats();
  const auto fill_robustness = [&](DistBatchResult& r) {
    r.retries = transport_->retries() - retries_before;
    r.timeouts = transport_->timeouts() - timeouts_before;
    r.heartbeats = transport_->heartbeats() - heartbeats_before;
  };
  const std::size_t num_parts = partition_.num_parts();
  // Modeled timing bills the slowest simulated partition; a measuring
  // transport (tcp) switches every phase to this rank's real wall clock.
  const BspTiming timing = bsp_timing_of(*transport_);
  result.comm_measured = transport_->measures_time();
  if (stealer_ != nullptr) stealer_->reset_stats();
  ++batches_applied_;
  result.barrier_wait_sec.assign(num_parts, 0.0);
  result.idle_sec.assign(num_parts, 0.0);
  // Modeled runs attribute each compute phase's per-partition barrier stall
  // (dist/bsp.h wait_out); measured runs read the transport's own superstep
  // wait instead (tcp fills only the local rank's slot).
  std::vector<double>* const wait =
      timing == BspTiming::kModeled ? &result.barrier_wait_sec : nullptr;
  const auto add_transport_waits = [&] {
    for (std::size_t p = 0; p < num_parts; ++p) {
      if (!hosts(p)) continue;
      result.barrier_wait_sec[p] += transport_->superstep_wait_sec(p);
    }
  };

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
  add_transport_waits();

  const bool uses_self = model_.layer(0).uses_self();
  const auto affected = compute_affected_sets(graph_, batch,
                                              model_.num_layers(), uses_self);

  if (mode_ == ExecMode::kAsync) {
    // Barrier-free epoch: the per-layer pull supersteps collapse into one
    // dependency-driven epoch (docs/async.md).
    run_async_epoch(affected, result);
    result.propagation_tree_size = propagation_tree_size(affected);
    result.affected_final = affected.back().size();
    result.wire_bytes = transport_->wire_bytes() - wire_bytes_before;
    result.wire_messages = transport_->wire_messages() - wire_messages_before;
    fill_robustness(result);
    if (stealer_ != nullptr) result.sched = stealer_->stats();
    return result;
  }

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
    add_transport_waits();

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
    if (stealer_ != nullptr) {
      // One stealable task per block of a hosted partition's owned affected
      // vertices, costed by Σ in-degree — the pull work InkStream observes
      // is concentrated on a few high-degree vertices. A hot partition's
      // endpoint is the W-worker makespan bound over its blocks
      // (dist/bsp.h).
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
    } else {
      result.compute_sec += timed_over_parts(
          pool_, num_parts,
          [&](std::size_t p) {
            if (!hosts(p)) return;
            auto& x_scratch = x_scratch_[p];
            x_scratch.assign(model_.config().layer_in_dim(l), 0.0f);
            for (const VertexId v : affected[l]) {
              if (owner(v) != p) continue;
              recompute_row(p, v, x_scratch);
            }
          },
          timing, wait);
    }
  }
  result.propagation_tree_size = propagation_tree_size(affected);
  result.affected_final = affected.back().size();
  result.wire_bytes = transport_->wire_bytes() - wire_bytes_before;
  result.wire_messages = transport_->wire_messages() - wire_messages_before;
  fill_robustness(result);
  if (stealer_ != nullptr) result.sched = stealer_->stats();
  return result;
}

// ---- async epoch (--mode=async) ------------------------------------------

void DistRecomputeEngine::init_epoch_deps(
    const std::vector<std::vector<VertexId>>& affected) {
  const std::size_t num_parts = partition_.num_parts();
  const std::size_t num_layers = model_.num_layers();
  // Per-vertex hop bitmask instead of hash sets: membership tests run per
  // edge on the arrival/credit hot path, inside the measured busy window.
  RIPPLE_CHECK_MSG(num_layers <= 32, "async affected mask is 32 hops wide");
  affected_mask_.assign(graph_.num_vertices(), 0);
  for (std::size_t l = 0; l < num_layers; ++l) {
    for (const VertexId v : affected[l]) {
      affected_mask_[v] |= std::uint32_t{1} << l;
    }
  }
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (!hosts(p)) continue;
    AsyncPartState& as = async_[p];
    as.cells.reset(num_layers, graph_.num_vertices());
    as.pulls.assign(num_layers, {});
    as.sends_after.assign(num_layers, {});
    as.busy_sec = 0;
  }

  // Dependency counting + the pull plan, derived identically on every rank
  // from the replicated topology (affected-set membership is value-
  // independent). Cell (v, l) — v's hop-l recompute — may run once
  //   - every remote in-neighbor's layer-l row has arrived (one frame per
  //     (sender, requesting partition) pair per hop: the BSP pull set),
  //   - every LOCAL in-neighbor itself affected at hop l-1 has recomputed
  //     (its layer-l row is read in place), and
  //   - v's own layer-l row is final when v is affected at hop l-1. ONE
  //     merged dependency: update_row always reads the self row, and a
  //     self-loop edge reads the same row again, so it never counts twice.
  // A remote row that this batch never rewrites (hop 0, or its owner not
  // affected at hop l-1) ships at epoch start; the rest are deferred until
  // the owning cell commits (sends_after).
  for (std::size_t l = 0; l < num_layers; ++l) {
    pulled_.clear();
    for (const VertexId v : affected[l]) {
      const std::uint32_t p = owner(v);
      std::uint32_t deps = 0;
      for (const Neighbor& nb : graph_.in_neighbors(v)) {
        const VertexId u = nb.vertex;
        const std::uint32_t pu = owner(u);
        if (pu != p) {
          ++deps;  // remote rows always travel as counted frames
          const std::uint64_t key =
              static_cast<std::uint64_t>(u) * num_parts + p;
          if (pulled_.insert(key).second && hosts(pu)) {
            if (l == 0 || !is_affected(l - 1, u)) {
              transport_->send_row(
                  pu, p, u, static_cast<std::uint32_t>(l),
                  states_[pu].layer(l).row(local(u)));
              detectors_[pu].on_send();
            } else {
              async_[pu].sends_after[l - 1][u].push_back(
                  static_cast<std::uint32_t>(p));
            }
          }
        } else if (l >= 1 && u != v && is_affected(l - 1, u)) {
          ++deps;  // local upstream cell commits u's layer-l row in place
        }
      }
      if (l >= 1 && is_affected(l - 1, v)) {
        ++deps;  // self row (merged with any self-loop edge)
      }
      if (hosts(p)) async_[p].cells.add(l, v, deps);
    }
  }
}

void DistRecomputeEngine::process_remote_row(std::size_t q,
                                             Transport::AsyncFrame& f) {
  AsyncPartState& as = async_[q];
  const std::size_t l = f.hop;
  RIPPLE_CHECK_MSG(l < model_.num_layers(),
                   "async pull row with out-of-range hop " << l);
  const VertexId u = f.sender;
  // Wire-input validation, typed kCorrupt (a truncated frame, not a bug):
  // the layers above recover by restoring from checkpoint.
  const std::size_t expect = model_.config().embedding_dim(l);
  if (f.row.size() != expect) {
    throw TransportError(TransportErrorKind::kCorrupt,
                         "async pull row width mismatch: expected " +
                             std::to_string(expect) + " floats, got " +
                             std::to_string(f.row.size()));
  }
  const bool inserted = as.pulls[l].emplace(u, std::move(f.row)).second;
  if (!inserted) {
    throw TransportError(TransportErrorKind::kProtocol,
                         "duplicate async pull row in one epoch");
  }
  // Credit every owned hop-l cell waiting on u's row. The same out-edge
  // sweep that sized the dependency counts runs here in reverse, so frame
  // and credit flow can never disagree.
  for (const Neighbor& nb : graph_.out_neighbors(u)) {
    const VertexId w = nb.vertex;
    if (owner(w) != q) continue;
    if (is_affected(l, w)) as.cells.credit(l, w);
  }
}

void DistRecomputeEngine::recompute_cell(std::size_t p, std::size_t l,
                                         VertexId v,
                                         std::vector<float>& x_scratch) {
  // Identical per-row float work to the BSP hop (and to single-machine RC):
  // the resolver replays aggregate_neighbors' op sequence, remote rows come
  // from this epoch's received pulls instead of a per-hop index.
  EmbeddingStore& st = states_[p];
  const auto& pulls = async_[p].pulls[l];
  const auto row_of = [&](VertexId u) -> const float* {
    if (owner(u) == p) {
      return st.layer(l).row(local(u)).data();
    }
    const auto it = pulls.find(u);
    RIPPLE_CHECK_MSG(it != pulls.end(),
                     "missing async pulled row for vertex " << u);
    return it->second.data();
  };
  aggregate_neighbors_resolved(model_.config().aggregator,
                               graph_.in_neighbors(v), row_of,
                               std::span<float>(x_scratch));
  const std::uint32_t r = local(v);
  model_.layer(l).update_row(st.layer(l).row(r), x_scratch,
                             st.layer(l + 1).row(r));
  model_.apply_activation_row(l, st.layer(l + 1).row(r));
}

void DistRecomputeEngine::finish_cells(std::size_t q, std::size_t l,
                                       const std::vector<VertexId>& wave) {
  AsyncPartState& as = async_[q];
  TerminationDetector& det = detectors_[q];
  if (l + 1 >= model_.num_layers()) return;  // last hop: nothing downstream
  for (const VertexId v : wave) {
    // Deferred pulls of v's freshly committed layer-(l+1) row, one frame
    // per waiting partition, hop-tagged for the consumer's pull table.
    if (auto it = as.sends_after[l].find(v); it != as.sends_after[l].end()) {
      const auto row = states_[q].layer(l + 1).row(local(v));
      for (const std::uint32_t dst : it->second) {
        transport_->send_row(q, dst, v, static_cast<std::uint32_t>(l + 1),
                             row);
        det.on_send();
      }
    }
    // Local downstream cells: v's layer-(l+1) row is now readable in place.
    // v == w is skipped — a self-loop edge merged into the single self
    // dependency below, mirroring init_epoch_deps.
    for (const Neighbor& nb : graph_.out_neighbors(v)) {
      const VertexId w = nb.vertex;
      if (w == v || owner(w) != q) continue;
      if (is_affected(l + 1, w)) as.cells.credit(l + 1, w);
    }
    if (is_affected(l + 1, v)) as.cells.credit(l + 1, v);
  }
}

bool DistRecomputeEngine::rank_step(std::size_t q) {
  AsyncPartState& as = async_[q];
  TerminationDetector& det = detectors_[q];
  bool progress = false;

  // Consume whatever arrived. Only a lone-hosted endpoint (tcp) may block
  // in the poll, and only when it has nothing else to do; the hosts-all sim
  // round-robin must keep every partition stepping.
  const int timeout_ms =
      (transport_->measures_time() && as.cells.idle() && !det.terminated())
          ? 1
          : 0;
  frames_.clear();
  transport_->poll_async(q, frames_, timeout_ms);
  const StopWatch busy_watch;
  for (Transport::AsyncFrame& f : frames_) {
    if (f.is_token) {
      // Token traffic is NOT progress: a circulating token with an unmet
      // deficit must not reset the epoch driver's stall detector (a lost
      // row has to surface as kTimeout, not an infinite spin).
      det.receive_token(f.token);
    } else {
      progress = true;
      det.on_receive();
      process_remote_row(q, f);
    }
  }

  // Cascade ready waves lowest hop first — applying hop l only readies hop
  // l+1 cells, so one ascending sweep drains everything reachable.
  const std::size_t num_layers = model_.num_layers();
  if (!as.cells.idle()) {
    progress = true;
    if (stealer_ != nullptr) {
      // Serial refill between waves does the bookkeeping (deferred row
      // sends, downstream credits) and hands the next ready wave's blocks
      // to the stealing scheduler; rows are independent, so neither block
      // shape nor steal order can change the bits.
      constexpr std::size_t kBlock = 64;
      std::size_t cur_hop = 0;
      std::vector<VertexId> wave;
      std::vector<std::pair<std::size_t, std::size_t>> blocks;
      bool have_wave = false;
      stealer_->drain_until_quiet(
          [&]() -> std::size_t {
            if (have_wave) finish_cells(q, cur_hop, wave);
            const std::size_t l = as.cells.lowest_ready();
            if (l >= num_layers) return 0;
            cur_hop = l;
            wave = as.cells.take_ready(l);
            have_wave = true;
            blocks.clear();
            for (std::size_t lo = 0; lo < wave.size(); lo += kBlock) {
              blocks.push_back({lo, std::min(wave.size(), lo + kBlock)});
            }
            if (block_scratch_.size() < blocks.size()) {
              block_scratch_.resize(blocks.size());
            }
            return blocks.size();
          },
          [&](std::size_t i) {
            std::vector<float>& x_scratch = block_scratch_[i];
            x_scratch.assign(model_.config().layer_in_dim(cur_hop), 0.0f);
            for (std::size_t j = blocks[i].first; j < blocks[i].second; ++j) {
              recompute_cell(q, cur_hop, wave[j], x_scratch);
            }
          });
    } else {
      for (std::size_t l = 0; l < num_layers; ++l) {
        if (!as.cells.level_ready(l)) continue;
        const std::vector<VertexId> wave = as.cells.take_ready(l);
        auto& x_scratch = x_scratch_[q];
        x_scratch.assign(model_.config().layer_in_dim(l), 0.0f);
        for (const VertexId v : wave) recompute_cell(q, l, v, x_scratch);
        finish_cells(q, l, wave);
      }
    }
  }
  as.busy_sec += busy_watch.elapsed_sec();

  // Termination: pass the token on (or, at rank 0, evaluate it) whenever
  // the local worklists are drained. Forwarding is control traffic, not
  // progress, for the same stall-detector reason as token receipt above.
  if (auto token = det.try_forward(as.cells.idle())) {
    transport_->send_token(q, det.next_rank(), *token);
  }
  return progress;
}

void DistRecomputeEngine::run_async_epoch(
    const std::vector<std::vector<VertexId>>& affected,
    DistBatchResult& result) {
  const std::size_t num_parts = partition_.num_parts();
  const std::size_t tokens_before = transport_->token_messages();
  const StopWatch epoch_watch;

  // Detectors reset FIRST: init's epoch-start pushes of already-final rows
  // are counted row traffic like any other frame.
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (hosts(p)) detectors_[p].begin_epoch();
  }
  transport_->begin_epoch();
  init_epoch_deps(affected);

  drive_async_epoch(*transport_, detectors_, num_parts,
                    [this](std::size_t p) { return rank_step(p); });
  transport_->end_epoch();

  // Termination must coincide with structural quiescence.
  std::vector<double> busy(num_parts, 0.0);
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (!hosts(p)) continue;
    AsyncPartState& as = async_[p];
    RIPPLE_CHECK_MSG(as.cells.remaining() == 0,
                     "async epoch terminated with unapplied cells");
    busy[p] = as.busy_sec;
    as.pulls.clear();
    as.sends_after.clear();
  }
  result.token_messages = transport_->token_messages() - tokens_before;
  finish_epoch_timing(*transport_, busy, epoch_watch.elapsed_sec(), result);
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
