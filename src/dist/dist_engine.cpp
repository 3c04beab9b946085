#include "dist/dist_engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/log.h"
#include "common/timer.h"
#include "dist/checkpoint.h"
#include "dist/dist_recompute.h"
#include "dist/dist_ripple.h"
#include "tensor/ops.h"

namespace ripple {

InboxCursors::InboxCursors(const Transport& transport)
    : transport_(transport) {
  const std::size_t num_parts = transport.num_parts();
  fifo_.resize(num_parts);
  next_.resize(num_parts);
  for (std::size_t p = 0; p < num_parts; ++p) {
    if (!transport.hosts(p)) continue;
    fifo_[p].resize(num_parts);
    next_[p].assign(num_parts, 0);
    const Transport::Inbox& inbox = transport.inbox(p);
    for (std::size_t i = 0; i < inbox.messages.size(); ++i) {
      fifo_[p][inbox.messages[i].src_part].push_back(
          static_cast<std::uint32_t>(i));
    }
  }
}

std::span<const float> InboxCursors::pop(std::size_t dst, std::size_t src,
                                         VertexId sender, std::size_t width) {
  const auto fail = [&](const std::string& what) {
    throw TransportError(TransportErrorKind::kCorrupt,
                         "row " + what + ": partition " + std::to_string(dst) +
                             " from " + std::to_string(src) +
                             " expected vertex " + std::to_string(sender));
  };
  const auto& queue = fifo_[dst][src];
  std::size_t& cursor = next_[dst][src];
  if (cursor == queue.size()) fail("underflow");
  const Transport::Inbox& inbox = transport_.inbox(dst);
  const Transport::Message& m = inbox.messages[queue[cursor++]];
  if (m.sender != sender) {
    fail("sender mismatch (got vertex " + std::to_string(m.sender) + ")");
  }
  if (m.len != width) {
    fail("width mismatch (got " + std::to_string(m.len) + " floats, not " +
         std::to_string(width) + ")");
  }
  return inbox.payload_of(m);
}

void InboxCursors::expect_drained() const {
  for (std::size_t p = 0; p < fifo_.size(); ++p) {
    for (std::size_t src = 0; src < fifo_[p].size(); ++src) {
      if (next_[p][src] != fifo_[p][src].size()) {
        throw TransportError(TransportErrorKind::kCorrupt,
                             "row leftovers: partition " + std::to_string(p) +
                                 " holds unclaimed frames from " +
                                 std::to_string(src));
      }
    }
  }
}

namespace {
// The one per-vertex row pack: appends the rows the first `slots` layout
// matrices hold at local row r.
void append_rows(const std::vector<Matrix*>& layout, std::uint32_t r,
                 std::size_t slots, std::vector<float>& out) {
  for (std::size_t i = 0; i < slots; ++i) {
    const auto row = std::as_const(*layout[i]).row(r);
    out.insert(out.end(), row.begin(), row.end());
  }
}

[[noreturn]] void reject_checkpoint(const std::string& path,
                                    const std::string& what) {
  throw TransportError(TransportErrorKind::kCorrupt,
                       "checkpoint " + path + ": " + what);
}
}  // namespace

DistEngineBase::DistEngineBase(const char* key, const GnnModel& model,
                               DynamicGraph snapshot, const Matrix& features,
                               Partition partition, ThreadPool* pool,
                               std::unique_ptr<Transport> transport)
    : model_(model), graph_(std::move(snapshot)),
      partition_(std::move(partition)),
      row_map_(partition_, graph_.num_vertices()),
      transport_(std::move(transport)),
      stealer_(std::make_unique<WorkStealingScheduler>(pool)), key_(key) {
  RIPPLE_CHECK(features.rows() == graph_.num_vertices());
  RIPPLE_CHECK_MSG(partition_.num_vertices() <= graph_.num_vertices(),
                   "partition covers more vertices than the snapshot");
  for (std::uint32_t p = 0; p < partition_.num_parts(); ++p) {
    if (hosts(p)) hosted_.push_back(p);
  }
}

void DistEngineBase::open_batch(std::size_t batch_size,
                                DistBatchResult& result) {
  result.batch_size = batch_size;
  result.num_parts = partition_.num_parts();
  result.comm_measured = transport_->measures_time();
  result.barrier_wait_sec.assign(partition_.num_parts(), 0.0);
  stealer_->reset_stats();
  open_.result = &result;
  open_.wire_bytes = transport_->wire_bytes();
  open_.wire_messages = transport_->wire_messages();
  open_.retries = transport_->retries();
  open_.timeouts = transport_->timeouts();
  open_.heartbeats = transport_->heartbeats();
}

void DistEngineBase::close_batch() {
  DistBatchResult& result = *open_.result;
  result.wire_bytes = transport_->wire_bytes() - open_.wire_bytes;
  result.wire_messages = transport_->wire_messages() - open_.wire_messages;
  result.retries = transport_->retries() - open_.retries;
  result.timeouts = transport_->timeouts() - open_.timeouts;
  result.heartbeats = transport_->heartbeats() - open_.heartbeats;
  result.sched = stealer_->stats();
  open_ = {};
}

void DistEngineBase::compute(const std::vector<PartTask>& tasks,
                             const std::function<void(std::size_t)>& body) {
  const StopWatch phase_watch;
  std::vector<std::size_t> costs(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) costs[i] = tasks[i].cost;
  std::vector<double> task_sec(tasks.size(), 0.0);
  stealer_->run(tasks.size(), costs, [&](std::size_t i) {
    StopWatch watch;
    body(i);
    task_sec[i] = watch.elapsed_sec();  // single writer per index
  });
  DistBatchResult& result = *open_.result;
  if (result.comm_measured) {
    result.compute_sec += phase_watch.elapsed_sec();
    return;
  }
  const std::size_t num_parts = partition_.num_parts();
  const double width = static_cast<double>(stealer_->width());
  std::vector<double> sum(num_parts, 0.0);
  std::vector<double> longest(num_parts, 0.0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    sum[tasks[i].part] += task_sec[i];
    longest[tasks[i].part] = std::max(longest[tasks[i].part], task_sec[i]);
  }
  std::vector<double> endpoint(num_parts, 0.0);
  double slowest = 0.0;
  for (std::size_t p = 0; p < num_parts; ++p) {
    endpoint[p] = std::max(sum[p] / width, longest[p]);
    slowest = std::max(slowest, endpoint[p]);
  }
  for (std::size_t p = 0; p < num_parts; ++p) {
    result.barrier_wait_sec[p] += slowest - endpoint[p];
  }
  result.compute_sec += slowest;
}

void DistEngineBase::superstep(const std::function<void()>& send) {
  transport_->begin_superstep();
  send();
  DistBatchResult& result = *open_.result;
  result.comm_sec += transport_->end_superstep();
  for (const std::uint32_t p : hosted_) {
    result.barrier_wait_sec[p] += transport_->superstep_wait_sec(p);
  }
}

void DistEngineBase::check_hop_inbox(std::size_t width) const {
  for (const std::uint32_t p : hosted_) {
    for (const Transport::Message& m : transport_->inbox(p).messages) {
      if (m.len != width) {
        throw TransportError(TransportErrorKind::kCorrupt,
                             "hop row frame width mismatch: expected " +
                                 std::to_string(width) + " floats, got " +
                                 std::to_string(m.len));
      }
    }
  }
}

void DistEngineBase::route_batch(UpdateBatch batch) {
  const std::size_t num_parts = partition_.num_parts();
  if (num_parts <= 1 || batch.empty() || !hosts(0)) return;
  std::size_t batch_bytes = 0;
  for (const GraphUpdate& update : batch) batch_bytes += update.wire_bytes();
  for (std::size_t p = 1; p < num_parts; ++p) {
    transport_->send_opaque(0, p, batch_bytes);
  }
}

void DistEngineBase::scatter_owned(const std::vector<const Matrix*>& full) {
  for (const std::uint32_t p : hosted_) {
    const std::vector<Matrix*> layout = owned_layout(p);
    RIPPLE_CHECK(layout.size() == full.size());
    const std::vector<VertexId>& owned = row_map_.owned(p);
    for (std::size_t i = 0; i < owned.size(); ++i) {
      for (std::size_t k = 0; k < layout.size(); ++k) {
        vec_copy(full[k]->row(owned[i]), layout[k]->row(i));
      }
    }
  }
}

std::vector<std::size_t> DistEngineBase::layout_widths() {
  if (hosted_.empty()) throw check_error("endpoint hosts no partition");
  std::vector<std::size_t> widths;
  for (const Matrix* m : owned_layout(hosted_[0])) widths.push_back(m->cols());
  return widths;
}

std::size_t DistEngineBase::owned_row_width() {
  std::size_t width = 0;
  for (const std::size_t w : layout_widths()) width += w;
  return width;
}

void DistEngineBase::pack_row(std::size_t part, VertexId v, std::size_t slots,
                              std::vector<float>& out) {
  append_rows(owned_layout(part), local(v), slots, out);
}

void DistEngineBase::ship_rows(
    const std::vector<RowShipment>& schedule,
    const std::function<void()>& before_install,
    const std::function<void(std::size_t, std::span<const float>)>&
        install) {
  const std::vector<std::size_t> widths = layout_widths();
  std::vector<std::vector<Matrix*>> layouts(partition_.num_parts());
  for (const std::uint32_t p : hosted_) layouts[p] = owned_layout(p);
  transport_->begin_superstep();
  std::vector<float> frame;
  for (const RowShipment& s : schedule) {
    if (!hosts(s.src)) continue;
    frame.clear();
    append_rows(layouts[s.src], local(s.v), s.slots, frame);
    transport_->send(s.src, s.dst, s.v, frame);
  }
  transport_->end_superstep();
  if (before_install) before_install();

  InboxCursors cursors(*transport_);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const RowShipment& s = schedule[i];
    if (!hosts(s.dst)) continue;
    std::size_t width = 0;
    for (std::size_t k = 0; k < s.slots; ++k) width += widths[k];
    install(i, cursors.pop(s.dst, s.src, s.v, width));
  }
  cursors.expect_drained();
}

EmbeddingStore DistEngineBase::gather_embeddings() {
  const std::size_t num_parts = partition_.num_parts();
  const auto slots = static_cast<std::uint32_t>(model_.num_layers() + 1);
  EmbeddingStore store;
  const auto store_row = [&](VertexId v, std::span<const float> row) {
    split_row(row, slots, [&](std::size_t l) { return store.layer(l).row(v); });
  };
  // Every non-leader partition ships each owned vertex's H^0..H^L rows to
  // the leader; every rank derives this schedule from the replicated map.
  std::vector<RowShipment> schedule;
  for (std::uint32_t p = 1; p < num_parts; ++p) {
    for (const VertexId v : row_map_.owned(p)) {
      if (v != kInvalidVertex) schedule.push_back({p, 0, v, slots});
    }
  }
  // The full table is allocated after the barrier, once the inbox has
  // grown: allocating it first measurably raises the leader's peak RSS.
  ship_rows(
      schedule,
      [&] { store = EmbeddingStore(model_.config(), graph_.num_vertices()); },
      [&](std::size_t i, std::span<const float> row) {
        store_row(schedule[i].v, row);
      });
  // Hosted partitions contribute their own rows directly (on the hosts-all
  // sim this rewrites the leader's received rows with identical bits).
  std::vector<float> row;
  for (const std::uint32_t p : hosted_) {
    const std::vector<Matrix*> layout = owned_layout(p);
    for (const VertexId v : row_map_.owned(p)) {
      if (v == kInvalidVertex) continue;  // slot retired by a migration
      row.clear();
      append_rows(layout, local(v), slots, row);
      store_row(v, row);
    }
  }
  return store;
}

std::size_t DistEngineBase::migrate(MigrationPlan plan) {
  plan.normalize(partition_);
  if (plan.empty()) return 0;
  for (const MigrationPlan::Move& move : plan.moves) {
    RIPPLE_CHECK_MSG(move.vertex < graph_.num_vertices(),
                     "migration of vertex " << move.vertex
                                            << " beyond the snapshot");
  }
  HaloPatch patch = halo_patch(&plan);
  // Canonical order: owned rows in plan order, then the halo rows. Every
  // endpoint derives the same schedule from its replicated topology + plan,
  // so senders and receivers agree on every frame without negotiation.
  const auto slots = static_cast<std::uint32_t>(layout_widths().size());
  std::vector<RowShipment> schedule;
  for (const MigrationPlan::Move& move : plan.moves) {
    schedule.push_back({move.from, move.to, move.vertex, slots});
  }
  schedule.insert(schedule.end(), patch.rows.begin(), patch.rows.end());
  ship_rows(
      schedule,
      [&] {
        if (patch.local) patch.local();
        // Re-home the row map (tombstone old slots, assign fresh ones at
        // the new owners) and resize each hosted layout matrix to the new
        // part size. resize_no_fill with unchanged column count keeps every
        // existing flat row in place — the stability contract extend()
        // relies on.
        row_map_.rehome(plan);
        for (const std::uint32_t p : hosted_) {
          for (Matrix* m : owned_layout(p)) {
            m->resize_no_fill(row_map_.part_size(p), m->cols());
          }
        }
      },
      [&](std::size_t i, std::span<const float> row) {
        const RowShipment& s = schedule[i];
        if (i >= plan.size()) return patch.install(s, row);
        const std::vector<Matrix*> layout = owned_layout(s.dst);
        const std::uint32_t r = local(s.v);  // fresh post-rehome slot
        split_row(row, layout.size(),
                  [&](std::size_t k) { return layout[k]->row(r); });
      });
  // Flip the replicated assignment LAST: everything above keyed off the old
  // table, and the next batch routes against the new one.
  partition_.apply(plan);
  return plan.size();
}

double DistEngineBase::write_checkpoint(const std::string& dir,
                                        std::uint64_t stream_cursor) {
  StopWatch watch;
  flush_checkpoint();
  CheckpointMeta meta;
  meta.engine_key = key_;
  meta.stream_cursor = stream_cursor;
  meta.num_parts = static_cast<std::uint32_t>(partition_.num_parts());
  meta.partition_version = partition_.version();
  meta.num_vertices = graph_.num_vertices();
  meta.row_width = static_cast<std::uint32_t>(owned_row_width());
  meta.part_of.resize(graph_.num_vertices());
  for (VertexId v = 0; v < meta.part_of.size(); ++v) {
    meta.part_of[v] = owner(v);
  }
  std::vector<CheckpointImage> images;
  std::vector<VertexId> vertices;
  for (const std::uint32_t p : hosted_) {
    meta.rank = p;
    vertices.clear();
    for (const VertexId v : row_map_.owned(p)) {
      if (v != kInvalidVertex) vertices.push_back(v);
    }
    // Canonical ascending-id order: slot order depends on migration
    // history, and the file must not (a restored replacement rank has no
    // such history).
    std::sort(vertices.begin(), vertices.end());
    CheckpointImage image = begin_checkpoint_image(dir, meta, vertices);
    const std::vector<Matrix*> layout = owned_layout(p);
    for (const VertexId v : vertices) {
      const std::uint32_t r = local(v);
      for (const Matrix* m : layout) image.append(m->row(r));
    }
    images.push_back(std::move(image));
  }
  // The task owns the images and touches no engine state, so the next
  // batch may run while it checksums, writes, fsyncs and renames.
  pending_checkpoint_ = std::async(
      std::launch::async, [images = std::move(images)]() mutable {
        StopWatch background;
        for (CheckpointImage& image : images) {
          commit_checkpoint_image(std::move(image));
        }
        return background.elapsed_sec();
      });
  return watch.elapsed_sec();
}

DistEngineBase::~DistEngineBase() {
  try {
    flush_checkpoint();
  } catch (const std::exception& e) {
    // No caller is left to rethrow to; the cursor stays incomplete, so
    // recovery falls back to the previous one.
    LOG_WARN("checkpoint commit failed during engine teardown: " << e.what());
  }
}

double DistEngineBase::flush_checkpoint() {
  return pending_checkpoint_.valid() ? pending_checkpoint_.get() : 0.0;
}

void DistEngineBase::restore_checkpoint(const std::string& dir,
                                        std::uint64_t stream_cursor) {
  flush_checkpoint();
  const std::size_t num_parts = partition_.num_parts();
  const std::size_t width = owned_row_width();
  for (const std::uint32_t p : hosted_) {
    const std::string path = checkpoint_path(dir, stream_cursor, p);
    const CheckpointData data = read_checkpoint_file(path);
    const CheckpointMeta& meta = data.meta;
    // A self-consistent file can still be the wrong one (another rank's,
    // another cursor's, another engine's): installing it would silently
    // corrupt this rank's rows, so every identity field must match.
    if (meta.engine_key != key_) {
      reject_checkpoint(path, "engine key " + meta.engine_key +
                                  ", expected " + key_);
    }
    if (meta.rank != p) {
      reject_checkpoint(path, "holds rank " + std::to_string(meta.rank) +
                                  ", expected " + std::to_string(p));
    }
    if (meta.stream_cursor != stream_cursor) {
      reject_checkpoint(path, "holds cursor " +
                                  std::to_string(meta.stream_cursor) +
                                  ", expected " +
                                  std::to_string(stream_cursor));
    }
    if (meta.num_parts != num_parts ||
        meta.num_vertices != graph_.num_vertices() ||
        meta.row_width != width) {
      reject_checkpoint(path, "part count, vertex count or row width "
                              "disagrees with the restoring engine");
    }
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
      if (meta.part_of[v] != owner(v)) {
        reject_checkpoint(path, "partition assignment disagrees at vertex " +
                                    std::to_string(v));
      }
    }
    std::size_t live = 0;
    for (const VertexId v : row_map_.owned(p)) live += v != kInvalidVertex;
    if (data.vertices.size() != live) {
      reject_checkpoint(path, "owned-row count mismatch");
    }
    const std::vector<Matrix*> layout = owned_layout(p);
    const std::span<const float> rows(data.rows);
    for (std::size_t i = 0; i < data.vertices.size(); ++i) {
      const std::uint32_t r = local(data.vertices[i]);
      split_row(rows.subspan(i * width, width), layout.size(),
                [&](std::size_t k) { return layout[k]->row(r); });
    }
  }
  // Exactly one refill superstep on every engine, so every rank leaves
  // restore at the same barrier index (rc's schedule is empty).
  const HaloPatch patch = halo_patch(nullptr);
  ship_rows(patch.rows, {}, [&](std::size_t i, std::span<const float> row) {
    patch.install(patch.rows[i], row);
  });
}

std::unique_ptr<DistEngineBase> make_dist_engine(
    const std::string& key, const GnnModel& model,
    const DynamicGraph& snapshot, const Matrix& features,
    const Partition& partition, ThreadPool* pool,
    const TransportOptions& options) {
  return make_dist_engine(
      key, model, snapshot, features, partition, pool,
      std::make_unique<SimTransport>(partition.num_parts(), options));
}

std::unique_ptr<DistEngineBase> make_dist_engine(
    const std::string& key, const GnnModel& model,
    const DynamicGraph& snapshot, const Matrix& features,
    const Partition& partition, ThreadPool* pool,
    std::unique_ptr<Transport> transport, SchedulerMode /*scheduler*/,
    ExecMode /*mode*/) {
  RIPPLE_CHECK(transport != nullptr);
  RIPPLE_CHECK_MSG(transport->num_parts() == partition.num_parts(),
                   "transport spans " << transport->num_parts()
                                      << " parts but the partition has "
                                      << partition.num_parts());
  if (key == "ripple") {
    return std::make_unique<DistRippleEngine>(
        model, snapshot, features, partition, pool, std::move(transport));
  }
  if (key == "rc") {
    return std::make_unique<DistRecomputeEngine>(
        model, snapshot, features, partition, pool, std::move(transport));
  }
  throw check_error("unknown dist engine '" + key + "' (ripple|rc)");
}

}  // namespace ripple
