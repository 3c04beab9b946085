// Graph partitioning for distributed execution (§5.1).
//
// The paper uses METIS to balance vertex counts while minimizing edge cut.
// METIS is not available offline, so we provide (a) a hash partitioner
// (baseline, high cut), (b) an LDG-style linear deterministic greedy
// streaming partitioner in BFS order, and (c) a boundary refinement pass —
// together these reach the same qualitative regime (balanced parts,
// substantially reduced cut). The Partition type also accepts any external
// vertex→part assignment, so a real METIS output can be loaded.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dynamic_graph.h"

namespace ripple {

class Partition;

// Monotone stamp of a Partition's assignment table: bumped once per applied
// MigrationPlan, so replicas can assert they agree on WHICH assignment is
// current before routing a batch (docs/repartition.md).
using PartitionVersion = std::uint64_t;

// An explicit ownership-change schedule: vertex → new owner. Plans are
// executed by the dist engines between batches (the migration superstep);
// the partition layer only defines the format and the table patch.
struct MigrationPlan {
  struct Move {
    VertexId vertex = kInvalidVertex;
    std::uint32_t from = 0;  // filled in by normalize()
    std::uint32_t to = 0;
  };
  std::vector<Move> moves;

  bool empty() const { return moves.empty(); }
  std::size_t size() const { return moves.size(); }

  // Canonicalizes against the CURRENT assignment: fills each move's `from`,
  // drops no-ops (vertex already owned by `to`), sorts by vertex id, and
  // checks each vertex appears at most once and every destination part is
  // valid. Every replica normalizes the same plan against the same table,
  // so all ranks derive identical shipping schedules without negotiation.
  void normalize(const Partition& partition);
};

class Partition {
 public:
  Partition() = default;
  Partition(std::size_t num_parts, std::vector<std::uint32_t> part_of);

  std::size_t num_parts() const { return num_parts_; }
  std::size_t num_vertices() const { return part_of_.size(); }

  // Owning part of v. Vertices that join the stream after partitioning
  // (v >= num_vertices()) fall back to a deterministic hash assignment —
  // the same Fibonacci spreading rule the sharded mailbox uses — so every
  // replica of the partition routes them identically without a repartition.
  std::uint32_t part_of(VertexId v) const {
    if (v < part_of_.size()) return part_of_[v];
    if (num_parts_ <= 1) return 0;
    return static_cast<std::uint32_t>(fib_spread(v, num_parts_));
  }

  const std::vector<VertexId>& vertices_of(std::size_t part) const {
    return vertices_of_[part];
  }
  std::size_t part_size(std::size_t part) const {
    return vertices_of_[part].size();
  }

  // Number of directed edges whose endpoints live in different parts.
  // Vertices beyond the assignment table use the fallback rule, so the cut
  // of a stream-grown graph is well-defined.
  std::size_t edge_cut(const DynamicGraph& graph) const;

  // max part size / ideal part size (1.0 = perfectly balanced).
  double balance() const;

  // How many plans have been applied to this table. Replicated copies must
  // agree on the version before every batch (same plans, same order).
  PartitionVersion version() const { return version_; }

  // Applies a NORMALIZED plan in place: each moved vertex's table entry is
  // rewritten and vertices_of is patched incrementally (erase + sorted
  // insert — no rebuild), then the version bumps once. Post-partition
  // vertices touched by the plan are first materialized into the table at
  // their fallback assignment: part_of() keeps answering identically for
  // the untouched ones, while a migrated post-partition vertex is routed
  // through the table from then on instead of snapping back to its hash
  // home (the LocalRowMap::extend disagreement fix).
  void apply(const MigrationPlan& plan);

 private:
  void rebuild_index();

  std::size_t num_parts_ = 0;
  std::vector<std::uint32_t> part_of_;
  std::vector<std::vector<VertexId>> vertices_of_;
  PartitionVersion version_ = 0;
};

// Round-robin by vertex id: balanced but cut-oblivious.
Partition hash_partition(std::size_t num_vertices, std::size_t num_parts);

// Linear deterministic greedy (Stanton & Kliot): stream vertices in BFS
// order, assign each to the part with most already-placed neighbors,
// weighted by remaining capacity. capacity_slack > 1 loosens balance.
Partition ldg_partition(const DynamicGraph& graph, std::size_t num_parts,
                        double capacity_slack = 1.05);

// Greedy boundary refinement: moves a vertex to the neighboring part with
// the largest cut gain when balance allows. Returns the number of moves.
std::size_t refine_partition(const DynamicGraph& graph, Partition& partition,
                             std::size_t max_passes = 2,
                             double capacity_slack = 1.05);

// Accumulated per-rank load evidence for the skew detector. The dist layer
// feeds it from the counters already in DistBatchResult (busy = total minus
// the rank's barrier/idle stall); the partition layer only needs the
// resulting per-rank seconds, so no dist dependency leaks in here.
struct SkewSignal {
  std::vector<double> busy_sec;  // indexed by part

  void accumulate(std::size_t part, double sec) {
    if (busy_sec.size() <= part) busy_sec.resize(part + 1, 0.0);
    busy_sec[part] += sec;
  }
  double busy(std::size_t part) const {
    return part < busy_sec.size() ? busy_sec[part] : 0.0;
  }
  double mean(std::size_t num_parts) const {
    if (num_parts == 0) return 0.0;
    double total = 0;
    for (const double v : busy_sec) total += v;
    return total / static_cast<double>(num_parts);
  }
  // Worst rank's busy share over the ideal share (1.0 == balanced load).
  double imbalance(std::size_t num_parts) const {
    const double m = mean(num_parts);
    if (m <= 0) return 1.0;
    double worst = 0;
    for (const double v : busy_sec) worst = std::max(worst, v);
    return worst / m;
  }
};

struct MigrationOptions {
  std::size_t max_moves = 64;
  double capacity_slack = 1.10;
  // A rank is "hot" when its accumulated busy seconds exceed
  // hot_factor x mean — the trigger for shedding its boundary vertices.
  double hot_factor = 1.05;
  // Pair every shed move (v: p→q) with a return move of q's best-affinity-
  // to-p vertex, keeping every part's row count unchanged. Sheds still
  // rebalance LOAD (the returned vertex is chosen by cut gain, not by
  // activity), while flat part sizes mean migration churn cannot grow any
  // rank's owned-row store — the memory half of the drift-scenario win
  // (bench/drift_scenario.cpp).
  bool swap_backfill = false;
};

// Skew detector: proposes a plan that sheds boundary vertices of hot ranks
// to their best-affinity non-hot neighbor part (affinity = in+out neighbor
// count, the refine_partition gain), capacity-gated and fully deterministic
// (candidates ordered by cut gain desc, then vertex id). With
// swap_backfill, each shed p→q in plan order takes as its return the first
// vertex of q not yet in the plan, by (gain toward p desc, vertex id asc).
// Cost: one adjacency pass per hot part plus one per (q, p) pair the sheds
// use, and the sorts of those candidate lists. Returns an empty plan when
// no rank is hot or num_parts < 2.
MigrationPlan propose_migration(const DynamicGraph& graph,
                                const Partition& partition,
                                const SkewSignal& signal,
                                const MigrationOptions& options = {});

// Boundary/halo structure of a partition over a concrete topology (§5.1):
// the vertex sets an owner-computes runtime replicates across machines.
// All lists are in ascending vertex id order and duplicate-free.
struct HaloIndex {
  // boundary[p]: vertices owned by p with at least one cut edge (either
  // direction) — the vertices whose Δh may have to leave the machine.
  std::vector<std::vector<VertexId>> boundary;
  // halo_in[p]: remote vertices with an edge INTO p's owned set — the stub
  // cells p materializes so remote deltas land in a local mailbox.
  std::vector<std::vector<VertexId>> halo_in;

  std::size_t total_boundary() const;
  std::size_t total_halo() const;
};

HaloIndex build_halo_index(const DynamicGraph& graph,
                           const Partition& partition);

// Stable global→local row addressing for per-rank state. Each partition's
// owned vertices get dense local row ids 0..part_size-1 assigned in
// ascending global id order, so a rank can store only its owned embedding/
// cache rows. The map is stable under growth: extend() assigns fresh local
// ids to newly arrived vertices (using the partition's fallback routing for
// post-partition ids) without renumbering any existing row — live matrix
// rows never move.
class LocalRowMap {
 public:
  LocalRowMap() = default;
  LocalRowMap(const Partition& partition, std::size_t num_vertices);

  // Appends local ids for vertices [num_vertices(), new_num_vertices).
  void extend(const Partition& partition, std::size_t new_num_vertices);

  // Re-homes every plan vertex: the old owner's slot keeps its position but
  // now holds kInvalidVertex (a tombstone — every other local id is
  // untouched, the same stability contract as extend()), and the new owner
  // assigns a fresh slot: the smallest retired slot if one is free
  // (including slots the same plan just retired — all retires happen before
  // any assignment, so a balanced swap plan leaves every part's row count
  // unchanged), else a row appended at the end. Afterwards, TRAILING tombstones
  // are trimmed off every part (a run of retired slots at the tail holds no
  // live row, so dropping it moves nothing) — part_size(p) may therefore
  // SHRINK across a rehome, and engines resize their row matrices to it so
  // migration churn reclaims memory instead of growing stores forever.
  // Consumers iterating owned(p) must skip the remaining interior
  // tombstones; part_size(p) still bounds every live slot.
  void rehome(const MigrationPlan& plan);

  std::size_t num_vertices() const { return local_of_.size(); }
  std::size_t num_parts() const { return owned_.size(); }

  // Local row id of v within its owning partition's state.
  std::uint32_t local_of(VertexId v) const { return local_of_[v]; }

  // Raw global→local table (indexed by global vertex id) for kernels that
  // remap rows in a tight loop (core/hop_kernel.h's local_row parameter).
  const std::uint32_t* local_rows() const { return local_of_.data(); }

  // Owned vertices of `part`, position == local row id. Ascending global id
  // order at construction (extend() appends in arrival order); after a
  // rehome() the list may contain kInvalidVertex tombstones and reused
  // slots, so iteration must key on the stored vertex id, not the order.
  const std::vector<VertexId>& owned(std::size_t part) const {
    return owned_[part];
  }
  std::size_t part_size(std::size_t part) const {
    return owned_[part].size();
  }

  std::size_t bytes() const;

 private:
  std::vector<std::uint32_t> local_of_;     // index: global vertex id
  std::vector<std::vector<VertexId>> owned_;  // per part, local id -> global
  // Retired (tombstoned) slots per part, kept sorted descending so the
  // smallest free slot is reused first.
  std::vector<std::vector<std::uint32_t>> free_;
};

}  // namespace ripple
