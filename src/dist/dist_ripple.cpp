#include "dist/dist_ripple.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "dist/bsp.h"
#include "stream/update_apply.h"

namespace ripple {

namespace {
// Shards per partition-local mailbox: a small fixed fan-out keeps the
// sharded drain path exercised without per-partition tuning (embeddings do
// not depend on this value — see the determinism note in core/mailbox.h).
constexpr std::size_t kShardsPerPart = 4;
}  // namespace

DistRippleEngine::DistRippleEngine(const GnnModel& model,
                                   DynamicGraph snapshot,
                                   const Matrix& features, Partition partition,
                                   ThreadPool* pool,
                                   std::unique_ptr<Transport> transport,
                                   SchedulerMode scheduler, ExecMode mode)
    : DistEngineBase("ripple", model, std::move(snapshot), features,
                     std::move(partition), pool, std::move(transport),
                     scheduler, mode) {
  RIPPLE_CHECK_MSG(is_linear(model_.config().aggregator),
                   "Ripple requires a linear aggregation function; got "
                       << aggregator_name(model_.config().aggregator));
  const std::size_t num_parts = partition_.num_parts();
  const std::size_t num_layers = model_.num_layers();
  const ModelConfig& config = model_.config();

  // Transient full bootstrap over the replicated topology, then scatter:
  // each hosted partition keeps only its owned rows (plus halo copies of
  // the remote boundary rows it will read); the full tables are freed when
  // this constructor returns, so steady-state residency is per-rank.
  EmbeddingStore full(config, graph_.num_vertices());
  full.features() = features;
  std::vector<Matrix> full_cache;
  bootstrap_with_caches(model_, graph_, full, full_cache, pool_);

  std::vector<std::size_t> halo_widths(num_layers);
  for (std::size_t l = 0; l < num_layers; ++l) {
    halo_widths[l] = config.embedding_dim(l);
  }
  states_.resize(num_parts);
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (!hosts(p)) continue;
    RankState& st = states_[p];
    const std::size_t rows = row_map_.part_size(p);
    st.store = EmbeddingStore(config, rows);
    st.agg_cache.reserve(num_layers);
    st.boxes.reserve(num_layers);
    for (std::size_t l = 0; l < num_layers; ++l) {
      st.agg_cache.emplace_back(rows, config.layer_in_dim(l));
      st.boxes.emplace_back(config.layer_in_dim(l), kShardsPerPart);
    }
    st.halo = HaloCache(halo_widths);
  }
  std::vector<const Matrix*> full_layout;
  for (std::size_t l = 0; l <= num_layers; ++l) {
    full_layout.push_back(&full.layer(l));
  }
  for (const Matrix& cache : full_cache) full_layout.push_back(&cache);
  scatter_owned(full_layout);
  // Bootstrap halo: every remote vertex with an edge into p's owned set.
  const HaloIndex halo_index = build_halo_index(graph_, partition_);
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (!hosts(p)) continue;
    for (const VertexId u : halo_index.halo_in[p]) {
      states_[p].halo.ensure(u);
      for (std::size_t l = 0; l < num_layers; ++l) {
        vec_copy(full.layer(l).row(u), states_[p].halo.row(u, l));
      }
    }
  }

  // One scratch per (partition, shard): with the stealing scheduler a
  // partition's shard drains run concurrently, so they cannot share.
  scratch_.resize(num_parts * kShardsPerPart);
  senders_.resize(num_parts);
  delta_.resize(num_parts);
  inbox_delta_.resize(num_parts);
  merge_.resize(num_parts);
  remote_mask_.resize(num_parts);
  async_.resize(num_parts);
}

std::vector<Matrix*> DistRippleEngine::owned_layout(std::size_t part) {
  RankState& st = states_[part];
  std::vector<Matrix*> layout;
  for (std::size_t l = 0; l <= model_.num_layers(); ++l) {
    layout.push_back(&st.store.layer(l));
  }
  for (Matrix& cache : st.agg_cache) layout.push_back(&cache);
  return layout;
}

void DistRippleEngine::fill_halo(std::size_t part, VertexId u,
                                 std::span<const float> row) {
  HaloCache& halo = states_[part].halo;
  halo.ensure(u);
  split_row(row, model_.num_layers(),
            [&](std::size_t l) { return halo.row(u, l); });
}

float DistRippleEngine::edge_alpha(EdgeWeight weight) const {
  return model_.config().aggregator == AggregatorKind::weighted_sum
             ? weight
             : 1.0f;
}

void DistRippleEngine::record_edge_op(VertexId u, VertexId v,
                                      EdgeWeight weight, bool is_add) {
  const std::uint32_t pu = owner(u);
  const std::uint32_t pv = owner(v);
  UOp op;
  op.kind = is_add ? UpdateKind::edge_add : UpdateKind::edge_del;
  op.u = u;
  op.v = v;
  op.alpha = edge_alpha(weight);
  op.is_add = is_add;
  if (pu != pv && is_add) {
    // Halo fill — only when this add puts u into pv's halo for the first
    // time. While any u→pv edge exists, pv's cached copy of u's rows stays
    // fresh for free: the exchange ships u's committed rows to pv whenever
    // u changes. Deletions therefore never fill, and repeated adds toward
    // the same partition dedupe naturally.
    bool haloed = false;
    for (const Neighbor& nb : graph_.out_neighbors(u)) {
      if (nb.vertex != v && owner(nb.vertex) == pv) {
        haloed = true;
        break;
      }
    }
    op.fill_expected = !haloed;
    if (op.fill_expected && hosts(pu)) {
      // One message carrying the owner's H^0..H^{L-1} rows concatenated —
      // row_wire_bytes-shaped, like every other row transfer.
      wire_frame_.clear();
      pack_row(pu, u, model_.num_layers(), wire_frame_);
      transport_->send(pu, pv, u, wire_frame_);
    }
  } else if (pu != pv) {
    // Eager invalidation: when the LAST cut edge u→pv disappears, pv's
    // cached rows of u stop being refreshed and must go. Decided here at
    // walk position (post-removal scan); the replay erases AFTER seeding
    // the nullify message, which still reads the cached rows.
    bool haloed = false;
    for (const Neighbor& nb : graph_.out_neighbors(u)) {
      if (owner(nb.vertex) == pv) {
        haloed = true;
        break;
      }
    }
    op.erase_after = !haloed;
  } else if (hosts(pu)) {
    // Same-partition edge: snapshot u's H^0 at walk position — a later
    // feature commit in this batch would overwrite the owned row before
    // the replay reaches this op. Layers ≥ 1 are static during superstep U
    // and are read live at replay.
    const auto x = states_[pu].store.features().row(local(u));
    op.x_src.assign(x.begin(), x.end());
  }
  uops_.push_back(std::move(op));
}

void DistRippleEngine::record_feature_op(const GraphUpdate& update) {
  RIPPLE_CHECK_MSG(update.new_features.size() == model_.config().feat_dim,
                   "feature width mismatch");
  const VertexId u = update.u;
  const std::uint32_t pu = owner(u);
  UOp op;
  op.kind = UpdateKind::vertex_feature;
  op.u = u;
  op.x_new = &update.new_features;
  op.self_mark = model_.layer(0).uses_self();
  for (const Neighbor& nb : graph_.out_neighbors(u)) {
    op.sinks.push_back({nb.vertex, edge_alpha(nb.weight)});
  }
  if (hosts(pu)) {
    auto owned_row = states_[pu].store.features().row(local(u));
    op.x_old.assign(owned_row.begin(), owned_row.end());
    // One combined (x_new, x_old) message per remote partition owning at
    // least one sink; its receipt both seeds the remote cells and
    // write-through-refreshes u's halo H^0 row there.
    wire_frame_.clear();
    wire_frame_.insert(wire_frame_.end(), update.new_features.begin(),
                       update.new_features.end());
    wire_frame_.insert(wire_frame_.end(), op.x_old.begin(), op.x_old.end());
    for_each_remote_owner(u, pu, [&](std::size_t q) {
      transport_->send(pu, q, u, wire_frame_);
    });
    // Commit the new H^0 at walk position: later walk reads of u's
    // features must see it, exactly like the single-machine engine.
    vec_copy(update.new_features, owned_row);
  }
  uops_.push_back(std::move(op));
}

void DistRippleEngine::replay_uops() {
  const std::size_t num_parts = partition_.num_parts();
  const std::size_t num_layers = model_.num_layers();
  const std::size_t feat_dim = model_.config().feat_dim;
  std::size_t fill_width = 0;
  for (std::size_t l = 0; l < num_layers; ++l) {
    fill_width += model_.config().embedding_dim(l);
  }
  // Every frame is claimed by exactly one replayed op, in walk order per
  // (source, destination) pair (dist_engine.h InboxCursors).
  InboxCursors cursors(*transport_);

  for (const UOp& op : uops_) {
    if (op.kind == UpdateKind::vertex_feature) {
      const std::uint32_t pu = owner(op.u);
      // Hosted owner seeds its own sinks from the unrounded local rows.
      if (hosts(pu)) {
        for (const auto& [sink, alpha] : op.sinks) {
          if (owner(sink) != pu) continue;
          mailbox(pu, 1).accumulate(sink, alpha, *op.x_new, op.x_old);
        }
        if (op.self_mark) mailbox(pu, 1).mark_self_changed(op.u);
      }
      // Hosted remote sink owners consume the (x_new, x_old) message, seed
      // their cells in recorded walk order, and refresh u's halo H^0 row
      // with the received bits.
      for (std::size_t q = 0; q < num_parts; ++q) {
        if (q == pu || !hosts(q)) continue;
        bool owns_sink = false;
        for (const auto& [sink, alpha] : op.sinks) {
          (void)alpha;
          if (owner(sink) == q) {
            owns_sink = true;
            break;
          }
        }
        if (!owns_sink) continue;
        const auto payload = cursors.pop(q, pu, op.u, 2 * feat_dim);
        const auto x_new = payload.subspan(0, feat_dim);
        const auto x_old = payload.subspan(feat_dim, feat_dim);
        for (const auto& [sink, alpha] : op.sinks) {
          if (owner(sink) != q) continue;
          mailbox(q, 1).accumulate(sink, alpha, x_new, x_old);
        }
        states_[q].halo.ensure(op.u);
        vec_copy(x_new, states_[q].halo.row(op.u, 0));
      }
      continue;
    }

    // Edge op: seed the nullify/insert messages at the sink's owner.
    const std::uint32_t pu = owner(op.u);
    const std::uint32_t pv = owner(op.v);
    if (!hosts(pv)) continue;
    RankState& st = states_[pv];
    if (pu != pv && op.fill_expected) {
      fill_halo(pv, op.u, cursors.pop(pv, pu, op.u, fill_width));
    }
    for (std::size_t l = 1; l <= num_layers; ++l) {
      std::span<const float> h_u;
      if (pu != pv) {
        // Replay runs in batch order, so the halo rows reflect exactly the
        // walk-position values (fills and feature refreshes land before
        // the ops that read them).
        h_u = st.halo.row(op.u, l - 1);
      } else if (l == 1) {
        h_u = op.x_src;
      } else {
        h_u = std::span<const float>(
            states_[pu].store.layer(l - 1).row(local(op.u)));
      }
      if (op.is_add) {
        mailbox(pv, l).accumulate(op.v, op.alpha, h_u, {});
      } else {
        mailbox(pv, l).accumulate(op.v, op.alpha, {}, h_u);
      }
    }
    if (op.erase_after) st.halo.erase(op.u);
  }

  cursors.expect_drained();
}

DistBatchResult DistRippleEngine::apply_batch(UpdateBatch batch) {
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
  const std::size_t num_layers = model_.num_layers();
  // Modeled timing bills the slowest simulated partition; a measuring
  // transport (tcp) switches every phase to this rank's real wall clock.
  const BspTiming timing = bsp_timing_of(*transport_);
  result.comm_measured = transport_->measures_time();
  if (stealer_ != nullptr) stealer_->reset_stats();
  ++batches_applied_;
  result.barrier_wait_sec.assign(num_parts, 0.0);
  result.idle_sec.assign(num_parts, 0.0);
  // Modeled runs accumulate per-partition compute-phase stalls through the
  // bsp.h helpers; a measuring transport reports its own rank's barrier
  // stall via superstep_wait_sec instead (other slots stay 0).
  std::vector<double>* const wait =
      timing == BspTiming::kModeled ? &result.barrier_wait_sec : nullptr;
  const auto add_transport_waits = [&] {
    for (std::size_t p = 0; p < num_parts; ++p) {
      result.barrier_wait_sec[p] += transport_->superstep_wait_sec(p);
    }
  };

  // ---- superstep U: routing + fills/feature rows + hop-0 seeding ----
  // Pass 1 walks the batch (every replica applies it to its topology copy)
  // recording ops and transmitting for hosted source partitions; after the
  // barrier, pass 2 replays the record in batch order against the inbox, so
  // each mailbox cell accumulates its seeds in exactly the single-machine
  // order on every backend.
  transport_->begin_superstep();
  route_batch(*transport_, batch);
  StopWatch pass1_watch;
  uops_.clear();
  apply_updates_seeding(
      graph_, batch,
      [this](VertexId u, VertexId v, EdgeWeight weight, bool is_add) {
        record_edge_op(u, v, weight, is_add);
      },
      [this](const GraphUpdate& update) { record_feature_op(update); });
  result.compute_sec += pass1_watch.elapsed_sec();
  result.comm_sec += transport_->end_superstep();
  add_transport_waits();
  StopWatch pass2_watch;
  replay_uops();
  result.compute_sec += pass2_watch.elapsed_sec();

  if (mode_ == ExecMode::kAsync) {
    // ---- barrier-free epoch: replaces the per-hop supersteps below ----
    run_async_epoch(result);
    result.wire_bytes = transport_->wire_bytes() - wire_bytes_before;
    result.wire_messages = transport_->wire_messages() - wire_messages_before;
    fill_robustness(result);
    if (stealer_ != nullptr) result.sched = stealer_->stats();
    return result;
  }

  // ---- hops 1..L: apply / exchange / seed supersteps ----
  // Every hop runs its supersteps even when this endpoint has no pending
  // cells: remote mailboxes may still produce rows for it, and the barrier
  // structure must be identical on every rank. Empty phases cost nothing
  // (an empty superstep models 0.0 seconds).
  for (std::size_t l = 1; l <= num_layers; ++l) {
    std::size_t hop_cells = 0;
    for (std::size_t p = 0; p < num_parts; ++p) {
      if (!hosts(p)) continue;
      hop_cells += mailbox(p, l).size();
    }
    result.propagation_tree_size += hop_cells;
    if (l == num_layers) result.affected_final = hop_cells;
    const bool is_last = l == num_layers;
    const std::size_t delta_dim = model_.config().layer_out_dim(l - 1);

    // Apply: every hosted partition drains its own mailbox with the shared
    // hop kernel, addressing its owned rows through the local row map; Δh
    // lands at each vertex's rank in the partition's sorted sender list.
    // Owner-computes: partitions write disjoint rows, and within a
    // partition shards hold disjoint vertices — so the drains are
    // independent tasks no matter which worker runs them.
    // No nested GEMM stealing here (scheduler = nullptr): each drain is a
    // per-task-billed body under timed_over_part_tasks, and a nested region
    // would let the help-first loop execute OTHER partitions' drains inside
    // this task's stopwatch, cross-billing their seconds into the wrong
    // endpoint. Intra-partition parallelism is already modeled by the
    // W-worker makespan bound.
    const auto drain_shard = [&](std::size_t p, std::size_t s) {
      RankState& st = states_[p];
      Mailbox& box = st.boxes[l - 1];
      const Mailbox::Shard& shard = box.shard(s);
      if (shard.size() == 0) return;
      const RankDeltaSink sink(senders_[p], delta_[p]);
      apply_hop_shard(model_, l, graph_, shard, box.dim(),
                      st.agg_cache[l - 1], st.store.layer(l - 1),
                      st.store.layer(l), scratch_[p * kShardsPerPart + s],
                      is_last ? nullptr : &sink, nullptr,
                      row_map_.local_rows());
    };
    if (stealer_ != nullptr) {
      // Per-partition prologue (sender sort + delta sizing): its own
      // max-endpoint mini-phase, every machine sorting its own senders.
      const StopWatch prologue_watch;
      std::vector<double> prologue_sec(num_parts, 0.0);
      for (std::size_t p = 0; p < num_parts; ++p) {
        if (!hosts(p)) {
          senders_[p].clear();
          continue;
        }
        StopWatch watch;
        Mailbox& box = mailbox(p, l);
        senders_[p] =
            is_last ? std::vector<VertexId>{} : box.sorted_vertices();
        if (!is_last) {
          // no_fill: the shard drains' RankDeltaSink writes every row
          // before the exchange reads any.
          delta_[p].resize_no_fill(senders_[p].size(), delta_dim);
        }
        prologue_sec[p] = watch.elapsed_sec();
      }
      result.compute_sec += serial_phase_cost(
          prologue_sec, prologue_watch.elapsed_sec(), timing, wait);
      // One stealable task per (hosted partition, shard), LPT-seeded by
      // pending slots; a partition's endpoint is the W-worker makespan
      // bound over its shard drains (dist/bsp.h), so a hot partition stops
      // gating the superstep.
      std::vector<PartTask> tasks;
      tasks.reserve(num_parts * kShardsPerPart);
      for (std::size_t p = 0; p < num_parts; ++p) {
        if (!hosts(p)) continue;
        for (std::size_t s = 0; s < kShardsPerPart; ++s) {
          tasks.push_back({static_cast<std::uint32_t>(p),
                           mailbox(p, l).shard(s).size()});
        }
      }
      result.compute_sec += timed_over_part_tasks(
          *stealer_, num_parts, tasks,
          [&](std::size_t i) {
            drain_shard(tasks[i].part, i % kShardsPerPart);
          },
          timing, wait);
    } else {
      result.compute_sec += timed_over_parts(
          pool_, num_parts,
          [&](std::size_t p) {
            if (!hosts(p)) {
              senders_[p].clear();
              return;
            }
            Mailbox& box = mailbox(p, l);
            // The last hop emits no messages: skip sender sort and deltas.
            senders_[p] =
                is_last ? std::vector<VertexId>{} : box.sorted_vertices();
            if (!is_last) {
              // no_fill: the shard drains' RankDeltaSink writes every row
              // before the exchange reads any.
              delta_[p].resize_no_fill(senders_[p].size(), delta_dim);
            }
            for (std::size_t s = 0; s < box.num_shards(); ++s) {
              drain_shard(p, s);
            }
          },
          timing, wait);
    }

    if (!is_last) {
      // Exchange: each changed vertex's COMMITTED new H^l row goes ONCE to
      // every remote partition owning at least one of its out-neighbors —
      // same width as the delta, but carrying the state the receiver needs
      // to keep its halo coherent. Serial. Only the destination scan is
      // billed as compute; the inbox copies and the bytes themselves are
      // the transport's job (the cost model already charges the transfer —
      // timing the send too would double-count it).
      transport_->begin_superstep();
      const StopWatch scan_watch;
      std::vector<double> scan_sec(num_parts, 0.0);
      std::vector<std::pair<std::uint32_t, std::uint32_t>> sends;
      for (std::size_t p = 0; p < num_parts; ++p) {
        if (!hosts(p)) continue;
        StopWatch watch;
        sends.clear();
        for (std::size_t r = 0; r < senders_[p].size(); ++r) {
          for_each_remote_owner(
              senders_[p][r], static_cast<std::uint32_t>(p),
              [&](std::size_t q) {
                sends.push_back({static_cast<std::uint32_t>(r),
                                 static_cast<std::uint32_t>(q)});
              });
        }
        scan_sec[p] = watch.elapsed_sec();
        for (const auto& [r, q] : sends) {
          const VertexId u = senders_[p][r];
          transport_->send(p, q, u, states_[p].store.layer(l).row(local(u)));
        }
      }
      result.compute_sec +=
          serial_phase_cost(scan_sec, scan_watch.elapsed_sec(), timing, wait);
      result.comm_sec += transport_->end_superstep();
      add_transport_waits();

      // Seed: each hosted partition derives Δh for every received row
      // against its cached copy (bit-equal to the sender's subtraction at
      // f32 wire precision), writes the received bits through into the
      // halo, then merges local and derived deltas in ascending global
      // sender id order and re-expands them over its locally-owned
      // out-edges — reproducing the exact single-machine accumulation
      // order per cell.
      const bool uses_self = model_.layer(l).uses_self();
      // Wire-input validation, serial and BEFORE the pooled seed phase (an
      // exception escaping a worker task would terminate the process): a
      // width that disagrees with the hop's row shape means the frame was
      // corrupted in flight, not a programming bug — typed kCorrupt so the
      // layers above can recover from checkpoint.
      for (std::size_t q = 0; q < num_parts; ++q) {
        if (!hosts(q)) continue;
        const Transport::Inbox& inbox = transport_->inbox(q);
        for (const Transport::Message& m : inbox.messages) {
          if (inbox.payload_of(m).size() != delta_dim) {
            throw TransportError(
                TransportErrorKind::kCorrupt,
                "hop row frame width mismatch: expected " +
                    std::to_string(delta_dim) + " floats, got " +
                    std::to_string(inbox.payload_of(m).size()));
          }
        }
      }
      const auto seed_part = [&](std::size_t q) {
        if (!hosts(q)) return;
        RankState& st = states_[q];
        const Transport::Inbox& inbox = transport_->inbox(q);
        // no_fill: every row is written by the derivation loop below.
        inbox_delta_[q].resize_no_fill(inbox.messages.size(), delta_dim);
        std::vector<MergeEntry>& merged = merge_[q];
        merged.clear();
        for (std::size_t r = 0; r < senders_[q].size(); ++r) {
          merged.push_back({senders_[q][r], delta_[q].row(r).data()});
        }
        for (std::size_t i = 0; i < inbox.messages.size(); ++i) {
          const Transport::Message& m = inbox.messages[i];
          const auto payload = inbox.payload_of(m);
          // Coherence invariant: while a cut edge m.sender→q exists, every
          // change of the sender ships here — so the cached row holds the
          // sender's previous committed row, and row − cache is its Δh.
          auto cached = st.halo.row(m.sender, l);
          auto delta_row = inbox_delta_[q].row(i);
          for (std::size_t j = 0; j < delta_row.size(); ++j) {
            delta_row[j] = payload[j] - cached[j];
          }
          vec_copy(payload, cached);
          merged.push_back({m.sender, delta_row.data()});
        }
        std::sort(merged.begin(), merged.end(),
                  [](const MergeEntry& a, const MergeEntry& b) {
                    return a.sender < b.sender;
                  });
        Mailbox& next = mailbox(q, l + 1);
        for (const MergeEntry& entry : merged) {
          const std::span<const float> delta(entry.delta, delta_dim);
          for (const Neighbor& nb : graph_.out_neighbors(entry.sender)) {
            if (owner(nb.vertex) != q) continue;
            next.accumulate(nb.vertex, edge_alpha(nb.weight), delta, {});
          }
          if (uses_self && owner(entry.sender) == q) {
            next.mark_self_changed(entry.sender);
          }
        }
      };
      result.compute_sec +=
          timed_over_parts(pool_, num_parts, seed_part, timing, wait);
    }
    for (std::size_t p = 0; p < num_parts; ++p) {
      if (hosts(p)) mailbox(p, l).clear();
    }
  }

  result.wire_bytes = transport_->wire_bytes() - wire_bytes_before;
  result.wire_messages = transport_->wire_messages() - wire_messages_before;
  fill_robustness(result);
  if (stealer_ != nullptr) result.sched = stealer_->stats();
  return result;
}

// ---- async epoch (--mode=async) ------------------------------------------

void DistRippleEngine::init_epoch_frontier(DistBatchResult& result) {
  const std::size_t num_parts = partition_.num_parts();
  const std::size_t num_layers = model_.num_layers();
  frontier_.assign(num_layers + 1, {});
  contrib_.assign(num_layers + 1, {});
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (!hosts(p)) continue;
    AsyncPartState& as = async_[p];
    as.cells.reset(num_layers + 1, graph_.num_vertices());
    as.delta.assign(num_layers + 1, {});
    as.busy_sec = 0;
  }

  // Seeds from the superstep-U record: an edge op seeds its sink at every
  // hop; a feature op seeds its walk-position sinks (and its own self
  // channel) at hop 1. Presence only — the values already sit in the
  // replayed mailboxes.
  for (const UOp& op : uops_) {
    if (op.kind == UpdateKind::vertex_feature) {
      for (const auto& [sink, alpha] : op.sinks) {
        (void)alpha;
        frontier_[1].insert(sink);
      }
      if (op.self_mark) frontier_[1].insert(op.u);
    } else {
      for (std::size_t l = 1; l <= num_layers; ++l) frontier_[l].insert(op.v);
    }
  }
  // Expansion over the post-batch topology: every hop-l cell re-expands
  // over its out-edges whether or not its Δ is numerically zero (exactly
  // the BSP seed phase's rule), plus itself when layer l has a self term.
  // This is why the frontier is value-independent — and why every rank
  // derives the SAME sets from its topology replica with no communication.
  std::vector<VertexId> sorted;
  for (std::size_t l = 1; l < num_layers; ++l) {
    sorted.assign(frontier_[l].begin(), frontier_[l].end());
    std::sort(sorted.begin(), sorted.end());
    const bool uses_self = model_.layer(l).uses_self();
    for (const VertexId u : sorted) {
      for (const Neighbor& nb : graph_.out_neighbors(u)) {
        frontier_[l + 1].insert(nb.vertex);
      }
      if (uses_self) frontier_[l + 1].insert(u);
    }
  }

  // Contributor lists for hosted cells: sweeping F(l-1) in ascending sender
  // order makes every cell's list ascending for free — the exact merged
  // order the BSP seed phase would have accumulated in.
  for (std::size_t l = 2; l <= num_layers; ++l) {
    sorted.assign(frontier_[l - 1].begin(), frontier_[l - 1].end());
    std::sort(sorted.begin(), sorted.end());
    for (const VertexId u : sorted) {
      for (const Neighbor& nb : graph_.out_neighbors(u)) {
        if (!hosts(owner(nb.vertex))) continue;
        contrib_[l][nb.vertex].push_back({u, edge_alpha(nb.weight)});
      }
    }
  }

  // Register every hosted owned cell with its outstanding-contributor
  // count. Hop-1 cells depend only on superstep U and are ready at once.
  for (std::size_t l = 1; l <= num_layers; ++l) {
    const bool self_dep = l >= 2 && model_.layer(l - 1).uses_self();
    std::size_t hosted_cells = 0;
    for (const VertexId v : frontier_[l]) {
      const std::uint32_t pv = owner(v);
      if (!hosts(pv)) continue;
      ++hosted_cells;
      std::uint32_t deps = 0;
      if (l >= 2) {
        if (auto it = contrib_[l].find(v); it != contrib_[l].end()) {
          deps = static_cast<std::uint32_t>(it->second.size());
        }
        if (self_dep && frontier_[l - 1].count(v) != 0) ++deps;
      }
      async_[pv].cells.add(l, v, deps);
    }
    result.propagation_tree_size += hosted_cells;
    if (l == num_layers) result.affected_final = hosted_cells;
  }
}

void DistRippleEngine::process_remote_row(std::size_t q,
                                          const Transport::AsyncFrame& f) {
  RankState& st = states_[q];
  AsyncPartState& as = async_[q];
  const std::size_t l = f.hop;
  RIPPLE_CHECK_MSG(l >= 1 && l < model_.num_layers(),
                   "async row with out-of-range hop " << l);
  const VertexId u = f.sender;
  // Same derivation as the BSP seed phase: while a cut edge u→q exists the
  // cached halo row holds u's previous committed H^l, so payload − cache is
  // u's Δh with exactly the bits the sender's local subtraction produced.
  auto cached = st.halo.row(u, l);
  // Wire-input validation, typed kCorrupt (a truncated frame, not a bug):
  // the layers above recover by restoring from checkpoint.
  if (f.row.size() != cached.size()) {
    throw TransportError(TransportErrorKind::kCorrupt,
                         "async row frame width mismatch: expected " +
                             std::to_string(cached.size()) + " floats, got " +
                             std::to_string(f.row.size()));
  }
  std::vector<float> delta_row(cached.size());
  for (std::size_t j = 0; j < delta_row.size(); ++j) {
    delta_row[j] = f.row[j] - cached[j];
  }
  // Versioned write-through: stamps grow strictly in (batch, hop), so even
  // a reordered delivery could never let a stale row clobber a fresher one.
  // Under the protocol each (u, layer) arrives at most once per epoch, so a
  // stale or duplicate write means the wire delivered a frame the protocol
  // never sent — typed kProtocol, recoverable by checkpoint restore.
  const bool fresh = st.halo.write_through(u, l, f.row, epoch_version(l));
  if (!fresh) {
    throw TransportError(TransportErrorKind::kProtocol,
                         "async row arrived version-stale (duplicated or "
                         "replayed frame)");
  }
  const bool inserted = as.delta[l].emplace(u, std::move(delta_row)).second;
  if (!inserted) {
    throw TransportError(TransportErrorKind::kProtocol,
                         "duplicate async row in one epoch");
  }
  for (const Neighbor& nb : graph_.out_neighbors(u)) {
    if (owner(nb.vertex) == q) as.cells.credit(l + 1, nb.vertex);
  }
}

void DistRippleEngine::build_wave_box(std::size_t q, std::size_t l,
                                      const std::vector<VertexId>& wave) {
  AsyncPartState& as = async_[q];
  const std::size_t in_dim = model_.config().layer_in_dim(l - 1);
  const bool is_last = l == model_.num_layers();
  const bool self_dep = l >= 2 && model_.layer(l - 1).uses_self();
  wave_box_ = Mailbox(in_dim, stealer_ != nullptr ? kShardsPerPart : 1);
  const Mailbox& seeds = mailbox(q, l);
  for (const VertexId v : wave) {
    // Reproduce the BSP cell bit-for-bit: superstep-U seed bits first (a
    // bit COPY — adding them to a zero cell could flip a negative zero),
    // then every contributor's Δ in ascending global sender order.
    const Mailbox::Shard& sh = seeds.shard(seeds.shard_of(v));
    if (auto it = sh.index.find(v); it != sh.index.end()) {
      const std::uint32_t slot = it->second;
      wave_box_.adopt(
          v,
          std::span<const float>(sh.deltas.data() + slot * in_dim, in_dim),
          sh.touched[slot] != 0, sh.self[slot] != 0);
    }
    if (l >= 2) {
      if (auto it = contrib_[l].find(v); it != contrib_[l].end()) {
        for (const auto& [u, alpha] : it->second) {
          wave_box_.accumulate(v, alpha,
                               std::span<const float>(as.delta[l - 1].at(u)),
                               {});
        }
      }
      if (self_dep && frontier_[l - 1].count(v) != 0) {
        wave_box_.mark_self_changed(v);
      }
    }
  }
  wave_senders_ = wave_box_.sorted_vertices();
  if (!is_last) {
    // no_fill: the shard drains' RankDeltaSink writes every row before
    // finish_wave reads any.
    wave_delta_.resize_no_fill(wave_senders_.size(),
                               model_.config().layer_out_dim(l - 1));
  }
}

void DistRippleEngine::drain_wave_shard(std::size_t q, std::size_t l,
                                        std::size_t s) {
  RankState& st = states_[q];
  const Mailbox::Shard& shard = wave_box_.shard(s);
  if (shard.size() == 0) return;
  const bool is_last = l == model_.num_layers();
  const RankDeltaSink sink(wave_senders_, wave_delta_);
  apply_hop_shard(model_, l, graph_, shard, wave_box_.dim(),
                  st.agg_cache[l - 1], st.store.layer(l - 1),
                  st.store.layer(l), scratch_[q * kShardsPerPart + s],
                  is_last ? nullptr : &sink, nullptr,
                  row_map_.local_rows());
}

void DistRippleEngine::finish_wave(std::size_t q, std::size_t l) {
  if (l == model_.num_layers()) return;  // last hop: nothing downstream
  RankState& st = states_[q];
  AsyncPartState& as = async_[q];
  TerminationDetector& det = detectors_[q];
  const bool uses_self = model_.layer(l).uses_self();
  for (std::size_t r = 0; r < wave_senders_.size(); ++r) {
    const VertexId v = wave_senders_[r];
    const auto drow = wave_delta_.row(r);
    const bool inserted =
        as.delta[l]
            .emplace(v, std::vector<float>(drow.begin(), drow.end()))
            .second;
    RIPPLE_CHECK_MSG(inserted, "async cell applied twice in one epoch");
    // Remote owners get v's COMMITTED new H^l row, hop-tagged — the §5.1
    // stub-combining rule, one frame per remote partition. Each send is a
    // counted row message for the termination detector.
    for_each_remote_owner(
        v, static_cast<std::uint32_t>(q), [&](std::size_t dst) {
          transport_->send_row(q, dst, v, static_cast<std::uint32_t>(l),
                               st.store.layer(l).row(local(v)));
          det.on_send();
        });
    for (const Neighbor& nb : graph_.out_neighbors(v)) {
      if (owner(nb.vertex) == q) as.cells.credit(l + 1, nb.vertex);
    }
    if (uses_self) as.cells.credit(l + 1, v);
  }
}

bool DistRippleEngine::rank_step(std::size_t q) {
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
  for (const Transport::AsyncFrame& f : frames_) {
    if (f.is_token) {
      // Token traffic is NOT progress: a circulating token with an unmet
      // deficit would otherwise reset the epoch driver's stall detector
      // forever, turning a lost row into an infinite spin instead of the
      // typed kTimeout it must surface as.
      det.receive_token(f.token);
    } else {
      progress = true;
      det.on_receive();
      process_remote_row(q, f);
    }
  }

  // Cascade ready waves lowest hop first — applying hop l only readies hop
  // l+1 cells, so one sweep drains everything currently reachable.
  const std::size_t num_layers = model_.num_layers();
  if (!as.cells.idle()) {
    progress = true;
    if (stealer_ != nullptr) {
      // Serial refill between waves does the post-wave bookkeeping (delta
      // store, row sends, credits) and hands the next ready wave's shard
      // drains to the stealing scheduler.
      std::size_t cur_hop = 0;
      stealer_->drain_until_quiet(
          [&]() -> std::size_t {
            if (cur_hop != 0) finish_wave(q, cur_hop);
            const std::size_t l = as.cells.lowest_ready();
            if (l > num_layers) return 0;
            cur_hop = l;
            build_wave_box(q, l, as.cells.take_ready(l));
            return wave_box_.num_shards();
          },
          [&](std::size_t s) { drain_wave_shard(q, cur_hop, s); });
    } else {
      for (std::size_t l = 1; l <= num_layers; ++l) {
        if (!as.cells.level_ready(l)) continue;
        build_wave_box(q, l, as.cells.take_ready(l));
        for (std::size_t s = 0; s < wave_box_.num_shards(); ++s) {
          drain_wave_shard(q, l, s);
        }
        finish_wave(q, l);
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

void DistRippleEngine::run_async_epoch(DistBatchResult& result) {
  const std::size_t num_parts = partition_.num_parts();
  const std::size_t num_layers = model_.num_layers();
  const std::size_t tokens_before = transport_->token_messages();
  const StopWatch epoch_watch;

  init_epoch_frontier(result);
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (hosts(p)) detectors_[p].begin_epoch();
  }
  transport_->begin_epoch();

  // Drive hosted partitions until every hosted detector agrees the epoch is
  // over. The sim transport hosts all partitions and steps them round-robin
  // in rank order (deterministic — delivery skew comes only from the
  // transport's seeded model); a real transport hosts exactly one.
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
    for (std::size_t l = 1; l <= num_layers; ++l) mailbox(p, l).clear();
    as.delta.clear();
  }
  result.token_messages = transport_->token_messages() - tokens_before;
  finish_epoch_timing(*transport_, busy, epoch_watch.elapsed_sec(), result);
}

DistEngineBase::HaloPatch DistRippleEngine::halo_patch(
    const MigrationPlan* plan) {
  const auto slots = static_cast<std::uint32_t>(model_.num_layers());
  HaloPatch patch;
  if (plan == nullptr) {
    // Restore refill: halo MEMBERSHIP is already exact — the constructor
    // derived it from the same topology + assignment a never-failed run
    // would hold — but the cached VALUES are constructor bootstrap. Every
    // owner ships H^0..H^{L-1} of its boundary vertices to the partitions
    // caching them (destination ascending, vertex ascending).
    const HaloIndex halo = build_halo_index(graph_, partition_);
    for (std::uint32_t p = 0; p < halo.halo_in.size(); ++p) {
      for (const VertexId v : halo.halo_in[p]) {
        patch.rows.push_back({owner(v), p, v, slots});
      }
    }
    patch.install = [this](const RowShipment& s, std::span<const float> row) {
      RIPPLE_CHECK_MSG(states_[s.dst].halo.contains(s.v),
                       "restore halo fill for vertex "
                           << s.v << " absent from the cache");
      fill_halo(s.dst, s.v, row);
    };
    return patch;
  }

  // Between-batches invariant: BSP clears every mailbox per hop and async
  // clears them at epoch end, so a correctly-placed migrate() never has
  // pending cells to ship. Assert instead of serializing them.
  for (std::size_t p = 0; p < partition_.num_parts(); ++p) {
    if (!hosts(p)) continue;
    for (std::size_t l = 1; l <= model_.num_layers(); ++l) {
      RIPPLE_CHECK_MSG(mailbox(p, l).size() == 0,
                       "migrate() must run between batches; partition "
                           << p << " has pending hop-" << l << " cells");
    }
  }
  std::unordered_map<VertexId, std::uint32_t> moved_to;
  for (const MigrationPlan::Move& move : plan->moves) {
    moved_to.emplace(move.vertex, move.to);
  }
  const auto owner_after = [&](VertexId v) -> std::uint32_t {
    const auto it = moved_to.find(v);
    return it != moved_to.end() ? it->second : owner(v);
  };
  // needed(r, u) under a map: u is remote to r and some edge u→w lands in
  // r's owned set — exactly the halo residency invariant, which the
  // fill/erase protocol keeps EXACT between batches. The patch therefore
  // asserts presence on every erase and absence on every fill.
  const auto needed = [&](std::uint32_t r, VertexId u, const auto& owner_of) {
    if (owner_of(u) == r) return false;
    for (const Neighbor& nb : graph_.out_neighbors(u)) {
      if (owner_of(nb.vertex) == r) return true;
    }
    return false;
  };
  const auto owner_before = [this](VertexId v) { return owner(v); };

  // Candidate (rank, vertex) pairs whose halo residency can change: a moved
  // vertex at any rank (its owner changed), and each in-neighbor of a moved
  // vertex at the move's two endpoints (one of its sink owners changed).
  // Every other pair keeps both conditions of needed() unchanged.
  std::vector<std::pair<std::uint32_t, VertexId>> cand;
  for (const MigrationPlan::Move& move : plan->moves) {
    for (std::uint32_t r = 0; r < partition_.num_parts(); ++r) {
      cand.push_back({r, move.vertex});
    }
    for (const Neighbor& nb : graph_.in_neighbors(move.vertex)) {
      cand.push_back({move.from, nb.vertex});
      cand.push_back({move.to, nb.vertex});
    }
  }
  std::sort(cand.begin(), cand.end());
  cand.erase(std::unique(cand.begin(), cand.end()), cand.end());

  // Decisions in canonical (rank, vertex) order. A fill comes from the
  // vertex's OLD owner — the endpoint that still holds its committed rows;
  // when that is the rank itself (it sheds a vertex it still needs a halo
  // copy of) the fill is a local self-copy instead of a shipped row.
  std::vector<RowShipment> self_fills;
  std::vector<std::pair<std::uint32_t, VertexId>> erases;
  for (const auto& [r, u] : cand) {
    const bool after = needed(r, u, owner_after);
    if (needed(r, u, owner_before) == after) continue;
    if (!after) {
      erases.push_back({r, u});
    } else if (owner(u) == r) {
      self_fills.push_back({r, r, u, slots});
    } else {
      patch.rows.push_back({owner(u), r, u, slots});
    }
  }
  // Self-copies read the shedding owner's rows by OLD local id, which the
  // re-home retires (and an inbound install may reuse the slot). Eager
  // erases drop entries whose last cut edge the move dissolved (including
  // the new owner's own cached copy of a vertex it now owns).
  patch.local = [this, self_fills = std::move(self_fills),
                 erases = std::move(erases)] {
    std::vector<float> row;
    for (const RowShipment& f : self_fills) {
      if (!hosts(f.dst)) continue;
      RIPPLE_CHECK_MSG(!states_[f.dst].halo.contains(f.v),
                       "halo fill for already-cached vertex " << f.v);
      row.clear();
      pack_row(f.dst, f.v, f.slots, row);
      fill_halo(f.dst, f.v, row);
    }
    for (const auto& [r, u] : erases) {
      if (!hosts(r)) continue;
      RIPPLE_CHECK_MSG(states_[r].halo.contains(u),
                       "halo erase for uncached vertex " << u);
      states_[r].halo.erase(u);
    }
  };
  patch.install = [this](const RowShipment& s, std::span<const float> row) {
    RIPPLE_CHECK_MSG(!states_[s.dst].halo.contains(s.v),
                     "halo fill for already-cached vertex " << s.v);
    fill_halo(s.dst, s.v, row);
  };
  return patch;
}

std::size_t DistRippleEngine::memory_bytes() const {
  // One rank's row state: the LARGEST hosted partition's footprint (per
  // the DistEngineBase contract) plus the shared row map. The replicated
  // topology is deliberately excluded — see src/dist/README.md. Mailboxes
  // are counted whole: each partition's boxes only ever hold cells for
  // vertices it owns (seeding guards on ownership), so no shard is
  // partially owned and summing Mailbox::bytes() cannot double-count.
  std::size_t worst = 0;
  for (std::size_t p = 0; p < states_.size(); ++p) {
    if (!transport_->hosts(p)) continue;
    const RankState& st = states_[p];
    std::size_t bytes = st.store.bytes() + st.halo.bytes();
    for (const Matrix& cache : st.agg_cache) bytes += cache.bytes();
    for (const Mailbox& box : st.boxes) bytes += box.bytes();
    worst = std::max(worst, bytes);
  }
  return worst + row_map_.bytes();
}

}  // namespace ripple
