// Distributed streaming inference runtime (§5): partition-owned engines
// over per-rank state.
//
// Ownership model (owner-computes, owned rows): the partition owning a
// vertex is the single writer of its embedding rows, aggregate-cache rows,
// and mailbox cells — and those rows exist ONLY at the owning rank, stored
// densely under a stable global→local row map (partition/LocalRowMap).
// Remote boundary rows a rank must read live in its halo cache
// (dist/halo_cache.h), kept coherent by the rows the protocol already
// ships. Topology stays replicated (every rank applies every batch to its
// graph copy), which is what lets routing/fill decisions be computed on
// both sides of the wire without request round-trips. Updates enter at an
// ingress leader (partition 0); per hop, each rank drains its own mailbox,
// and only cross-partition rows travel over the wire. Which partitions an
// endpoint hosts is Transport::hosts(): SimTransport hosts all (whole
// cluster in one process), TcpTransport hosts exactly its rank. See
// src/dist/README.md for the full protocol and the cost model.
//
// Exactness contract: for ANY partition count and ANY thread count, both
// engines produce embeddings bit-identical to their single-machine
// counterparts (RippleEngine / RecomputeEngine) — property-tested in
// tests/dist/test_dist_engine.cpp and, across real sockets, in
// tests/dist/test_transport.cpp.
#pragma once

#include <algorithm>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>

#include "common/check.h"
#include "common/scheduler.h"
#include "dist/bsp.h"
#include "dist/transport.h"
#include "gnn/model.h"
#include "graph/dynamic_graph.h"
#include "partition/partition.h"
#include "stream/update.h"

namespace ripple {

class ThreadPool;

// The distributed engines run one execution mode: per-hop BSP supersteps.
// ExecMode and make_dist_engine's `mode` parameter stay only because the
// end-to-end benchmark (perfbench/src/dist.cpp) passes ExecMode::kBsp; both
// go with the next benchmark change.
enum class ExecMode { kBsp };

// Per-batch outcome of a distributed engine: the compute/comm split and the
// wire counters behind Figs. 12–13. On the simulated transport,
// compute_sec models P machines running in parallel (sum over supersteps
// of the slowest partition) and comm_sec is the cost model's total for the
// batch; on a real transport (comm_measured == true) both are this rank's
// measured wall-clock seconds instead.
struct DistBatchResult {
  std::size_t batch_size = 0;
  std::size_t num_parts = 0;
  std::size_t propagation_tree_size = 0;  // Σ over hops of |affected set|
  std::size_t affected_final = 0;         // |affected set| at hop L
  double compute_sec = 0;
  double comm_sec = 0;
  // True when the transport measures real seconds (Transport::
  // measures_time()): benches must not average modeled and measured runs.
  bool comm_measured = false;
  std::size_t wire_bytes = 0;     // payload + headers, all supersteps
  std::size_t wire_messages = 0;  // messages across all supersteps
  // Robustness counters, as per-batch deltas of the transport's cumulative
  // totals (docs/fault_tolerance.md): reconnect attempts burned by dial
  // backoff, deadline expiries, and liveness heartbeat frames sent from
  // idle wait loops. All zero on sim and on a healthy, busy tcp cluster.
  std::size_t retries = 0;
  std::size_t timeouts = 0;
  std::size_t heartbeats = 0;
  // Per-partition barrier stall: time spent waiting at superstep barriers
  // behind slower endpoints — modeled on sim (slowest endpoint minus own),
  // measured on tcp (only the local rank's slot is filled).
  std::vector<double> barrier_wait_sec;
  // Work-stealing scheduler stats of the apply phases (width 1 without a
  // pool): see common/scheduler.h and the BSP accounting note in
  // src/dist/README.md.
  SchedulerStats sched;
  double total_sec() const { return compute_sec + comm_sec; }
  // Per-partition busy seconds this batch: the batch total minus the
  // partition's own stall slots. On modeled timing every phase bills the
  // slowest endpoint and barrier_wait_sec[p] is exactly max − own per phase
  // (compute phases via bsp.h, comm supersteps via superstep_wait_sec), so
  // the difference recovers each rank's own compute + own wire seconds. The
  // base must be total_sec() — comm included — because the stall vector
  // folds in comm-barrier waits: a compute-only base would clamp every
  // rank but the comm-slowest to zero on comm-dominated runs. This is the
  // load evidence the skew detector accumulates (partition/SkewSignal) and
  // the per-rank busy-share column fig12 prints.
  double busy_share_sec(std::size_t p) const {
    double busy = total_sec();
    if (p < barrier_wait_sec.size()) busy -= barrier_wait_sec[p];
    return std::max(0.0, busy);
  }
  double barrier_wait_max() const {
    double worst = 0;
    for (const double v : barrier_wait_sec) worst = std::max(worst, v);
    return worst;
  }
};

// Per-(dst, src) FIFO cursors over the hosted inboxes of the superstep that
// just ended. A sim inbox interleaves sources in send order while a tcp
// inbox groups frames by source rank; every (src -> dst) subsequence is the
// same on both, so schedule-driven installs consume through these cursors,
// never by inbox position. Any disagreement between the schedule and what
// arrived (wrong sender, wrong width, a missing or an unclaimed frame) is
// wire damage: TransportError{kCorrupt}.
class InboxCursors {
 public:
  explicit InboxCursors(const Transport& transport);

  // The next frame `dst` holds from `src`; it must come from `sender` and
  // carry exactly `width` floats.
  std::span<const float> pop(std::size_t dst, std::size_t src,
                             VertexId sender, std::size_t width);
  // Every frame of every hosted inbox must have been popped.
  void expect_drained() const;

 private:
  const Transport& transport_;
  std::vector<std::vector<std::vector<std::uint32_t>>> fifo_;  // [dst][src]
  std::vector<std::vector<std::size_t>> next_;                 // [dst][src]
};

class DistEngineBase {
 public:
  // Waits for a pending checkpoint commit (see write_checkpoint()).
  virtual ~DistEngineBase();

  virtual const char* name() const = 0;

  // Applies one batch across all partitions and brings every owned
  // embedding up to date.
  virtual DistBatchResult apply_batch(UpdateBatch batch) = 0;

  // Collects every partition's owned rows at the leader (H^0..H^L union).
  // This is a COLLECTIVE: every rank of a real transport must call it at
  // the same point (it runs one owned-row exchange superstep). The leader's
  // returned store holds the full table; a non-leader rank's store holds
  // only its own owned rows (zeros elsewhere). Rows travel via
  // Transport::send_exact — never wire-rounded, so leader assembly is
  // bit-exact at any --wire-precision — and the leader installs them in the
  // schedule it derives from the replicated row map. The gather's wire cost
  // is charged to the transport's cumulative counters but to no batch — it
  // is a diagnostic/serving operation outside the streaming loop.
  EmbeddingStore gather_embeddings();

  // Executes an ownership-change plan as one migration superstep between
  // batches (docs/repartition.md). This is a COLLECTIVE: every rank of a
  // real transport must call it at the same point with the SAME plan (each
  // replica normalizes it against its partition copy, so all ranks derive
  // identical shipping schedules). Old owners ship each moving vertex's
  // owned row (the engine's layout, exact f32 via send_exact); after the
  // barrier every endpoint re-homes its row map, installs the received
  // rows, patches its halo (ripple), and bumps its replicated assignment —
  // so the next batch routes against the new owners with bit-identical
  // embeddings to a never-migrated run. Returns the number of moves
  // actually executed (after normalization drops no-ops). Wire cost is
  // charged to the transport's cumulative counters but to no batch, like
  // gather_embeddings().
  std::size_t migrate(MigrationPlan plan);

  // Checkpoints every HOSTED partition's owned rows to per-rank files in
  // `dir` (dist/checkpoint.h): one file per hosted partition,
  // CRC-checksummed and atomically renamed. `stream_cursor` is the number
  // of batches applied so far and names the files. LOCAL — no wire traffic,
  // callable at any between-batches point. On the caller's thread it waits
  // for the previous write (rethrowing its error), snapshots each file's
  // complete image and opens its "<path>.tmp" (so a bad `dir` throws
  // here); a background task then checksums, writes, fsyncs and renames
  // them. The files are durable after flush_checkpoint(), the next
  // write_checkpoint() or the engine's destruction; a rank that dies
  // before then falls back to its previous cursor. Returns the seconds the
  // caller stalled.
  double write_checkpoint(const std::string& dir,
                          std::uint64_t stream_cursor);

  // Blocks until the pending write_checkpoint() files are renamed into
  // place and rethrows the background task's error. Returns the task's own
  // seconds (0 when nothing is pending).
  double flush_checkpoint();

  // Restores a freshly constructed engine from the checkpoint at
  // `stream_cursor`, after flushing any write of its own. Precondition:
  // this engine was built over the graph TOPOLOGY as of the cursor (the
  // driver replays the stream prefix's structure) with any right-shaped
  // feature matrix, and over a Partition equal to the checkpointed
  // assignment — every restored bit comes from the files, not the
  // constructor bootstrap. This is a COLLECTIVE: it runs exactly one
  // halo-refill superstep (empty for rc) so every rank must call it at the
  // same point. After it returns, replaying the stream suffix produces
  // embeddings BIT-identical to a run that never failed
  // (tests/dist/test_checkpoint.cpp). Throws TransportError{kCorrupt} on a
  // damaged file and on one that is not this engine's, rank's and cursor's
  // snapshot of this topology and assignment.
  void restore_checkpoint(const std::string& dir,
                          std::uint64_t stream_cursor);

  const Partition& partition() const { return partition_; }
  const DynamicGraph& graph() const { return graph_; }
  const GnnModel& model() const { return model_; }

  // Floats per vertex of the engine's owned-row layout: the row a migration
  // ships and a checkpoint file stores.
  std::size_t owned_row_width();

  // Resident bytes of ONE rank's row state: owned embedding rows, aggregate
  // caches, this rank's mailbox shards, halo cache, and the row map. On a
  // hosts-all transport (sim) this reports the LARGEST hosted rank's
  // footprint — the per-machine figure a real deployment would see — so
  // growing num_parts genuinely shrinks it. The replicated topology is
  // excluded (it is shared infrastructure, not row state; see
  // src/dist/README.md).
  virtual std::size_t memory_bytes() const = 0;

 protected:
  // One row of an owned-row exchange superstep: `src` ships v's row, built
  // from the first `slots` matrices of its owned layout, to `dst`.
  struct RowShipment {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    VertexId v = kInvalidVertex;
    std::uint32_t slots = 0;
  };
  // The halo rows a migration or restore exchange carries for the ripple
  // engine: `rows` join the exchange schedule after the owned rows, `local`
  // runs after the barrier but before the re-home (edits that read the old
  // row slots), and `install` receives each of `rows` at its destination.
  struct HaloPatch {
    std::vector<RowShipment> rows;
    std::function<void()> local;
    std::function<void(const RowShipment&, std::span<const float>)> install;
  };

  // Per-batch accounting shared by both apply_batch() implementations:
  // open_batch() runs before the batch's first superstep and close_batch()
  // after its last; the hop loops in between stay engine-specific.
  struct BatchAccount {
    // Modeled timing bills the slowest simulated partition; a measuring
    // transport (tcp) switches every phase to this rank's real wall clock.
    BspTiming timing = BspTiming::kModeled;
    // Modeled runs accumulate per-partition compute-phase stalls through
    // the bsp.h helpers (their wait_out); null on a measuring transport,
    // which reports its own rank's stall via add_transport_waits().
    std::vector<double>* wait = nullptr;
    // The transport's cumulative counters when the batch opened.
    std::size_t wire_bytes = 0;
    std::size_t wire_messages = 0;
    std::size_t retries = 0;
    std::size_t timeouts = 0;
    std::size_t heartbeats = 0;
  };

  // `key` is the factory key written into checkpoint files. Checks the
  // inputs, builds the row map and the stealing scheduler; the engine
  // allocates its hosted rows and then calls scatter_owned().
  DistEngineBase(const char* key, const GnnModel& model,
                 DynamicGraph snapshot, const Matrix& features,
                 Partition partition, ThreadPool* pool,
                 std::unique_ptr<Transport> transport);

  // Fills the result's shape fields, sizes barrier_wait_sec, resets the
  // stealer's stats and snapshots the transport counters. `result` must
  // outlive the returned account (its wait pointer aims into it).
  BatchAccount open_batch(std::size_t batch_size, DistBatchResult& result);
  // Adds the transport's stall behind the superstep barrier that just
  // completed to each hosted partition's barrier_wait_sec slot.
  void add_transport_waits(DistBatchResult& result) const;
  // Fills the wire and robustness deltas since open_batch() and copies the
  // stealer's stats.
  void close_batch(const BatchAccount& account,
                   DistBatchResult& result) const;

  // The per-vertex owned-row layout, declared once per engine: the hosted
  // partition's row matrices (local-row indexed) in wire order. Row width,
  // pack/unpack, the post-rehome resize and the bootstrap scatter all
  // derive from it.
  virtual std::vector<Matrix*> owned_layout(std::size_t part) = 0;
  // Halo maintenance riding migrate() (`plan` normalized, nothing moved
  // yet) or restore_checkpoint() (`plan` null, owned rows installed).
  virtual HaloPatch halo_patch(const MigrationPlan* plan) {
    (void)plan;
    return {};
  }

  std::uint32_t owner(VertexId v) const { return partition_.part_of(v); }
  bool hosts(std::size_t part) const { return transport_->hosts(part); }
  std::uint32_t local(VertexId v) const { return row_map_.local_of(v); }

  // Copies each hosted partition's owned rows out of full bootstrap tables
  // given in layout order.
  void scatter_owned(const std::vector<const Matrix*>& full);
  // Appends the first `slots` layout rows of v (owned by hosted `part`).
  void pack_row(std::size_t part, VertexId v, std::size_t slots,
                std::vector<float>& out);
  // One owned-row exchange superstep over send_exact. Every endpoint passes
  // the SAME schedule, derived from replicated state: hosted sources send
  // in schedule order, the barrier completes, `before_install` runs, and
  // each hosted destination receives schedule[i] as install(i, row)
  // through per-(dst, src) FIFO cursors.
  void ship_rows(
      const std::vector<RowShipment>& schedule,
      const std::function<void()>& before_install,
      const std::function<void(std::size_t, std::span<const float>)>&
          install);

  GnnModel model_;
  DynamicGraph graph_;  // replicated topology (one shared copy in-process)
  Partition partition_;
  LocalRowMap row_map_;  // stable global->local owned-row addressing
  std::unique_ptr<Transport> transport_;  // engine code sees only the iface
  ThreadPool* pool_;
  // Work-stealing runtime for the compute phases (inline without a pool):
  // a hot partition's sub-tasks spread over idle workers, and its modeled
  // endpoint shrinks to the W-worker makespan bound (dist/bsp.h).
  std::unique_ptr<WorkStealingScheduler> stealer_;

 private:
  std::vector<std::size_t> layout_widths();

  const char* key_;
  // The in-flight checkpoint commit (at most one); yields its seconds.
  std::future<double> pending_checkpoint_;
};

// Splits `row` into consecutive segments, copying segment i into the span
// row_of(i) returns — the one inverse of DistEngineBase::pack_row.
template <typename RowOf>
void split_row(std::span<const float> row, std::size_t count,
               const RowOf& row_of) {
  std::size_t off = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::span<float> out = row_of(i);
    std::copy(row.begin() + off, row.begin() + off + out.size(), out.begin());
    off += out.size();
  }
  RIPPLE_CHECK(off == row.size());
}

// Factory keys used by the dist benches: "ripple" (incremental,
// delta-shipping) and "rc" (full recompute, halo-pulling). This overload
// runs over a SimTransport built from `options`.
std::unique_ptr<DistEngineBase> make_dist_engine(
    const std::string& key, const GnnModel& model,
    const DynamicGraph& snapshot, const Matrix& features,
    const Partition& partition, ThreadPool* pool = nullptr,
    const TransportOptions& options = default_transport_options());

// Backend-explicit overload: the caller supplies the transport (e.g. a
// TcpTransport wired to its rank's peers). transport->num_parts() must
// equal partition.num_parts(); the engine takes ownership. `scheduler` and
// `mode` each have one value and are ignored (see SchedulerMode and
// ExecMode).
std::unique_ptr<DistEngineBase> make_dist_engine(
    const std::string& key, const GnnModel& model,
    const DynamicGraph& snapshot, const Matrix& features,
    const Partition& partition, ThreadPool* pool,
    std::unique_ptr<Transport> transport,
    SchedulerMode scheduler = SchedulerMode::kSteal,
    ExecMode mode = ExecMode::kBsp);

}  // namespace ripple
