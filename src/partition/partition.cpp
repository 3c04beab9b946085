#include "partition/partition.h"

#include <algorithm>
#include <functional>
#include <map>
#include <queue>

#include "common/check.h"

namespace ripple {

Partition::Partition(std::size_t num_parts,
                     std::vector<std::uint32_t> part_of)
    : num_parts_(num_parts), part_of_(std::move(part_of)) {
  RIPPLE_CHECK(num_parts_ >= 1);
  for (const auto part : part_of_) {
    RIPPLE_CHECK_MSG(part < num_parts_, "part id " << part << " out of range");
  }
  rebuild_index();
}

void Partition::rebuild_index() {
  vertices_of_.assign(num_parts_, {});
  for (VertexId v = 0; v < part_of_.size(); ++v) {
    vertices_of_[part_of_[v]].push_back(v);
  }
}

std::size_t Partition::edge_cut(const DynamicGraph& graph) const {
  std::size_t cut = 0;
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    const std::uint32_t pu = part_of(u);
    for (const Neighbor& nb : graph.out_neighbors(u)) {
      if (pu != part_of(nb.vertex)) ++cut;
    }
  }
  return cut;
}

void MigrationPlan::normalize(const Partition& partition) {
  for (auto& move : moves) {
    RIPPLE_CHECK_MSG(move.to < partition.num_parts(),
                     "migration destination " << move.to << " out of range");
    move.from = partition.part_of(move.vertex);
  }
  std::sort(moves.begin(), moves.end(),
            [](const Move& a, const Move& b) { return a.vertex < b.vertex; });
  for (std::size_t i = 1; i < moves.size(); ++i) {
    RIPPLE_CHECK_MSG(moves[i - 1].vertex != moves[i].vertex,
                     "vertex " << moves[i].vertex << " moved twice in one plan");
  }
  moves.erase(std::remove_if(moves.begin(), moves.end(),
                             [](const Move& m) { return m.from == m.to; }),
              moves.end());
}

void Partition::apply(const MigrationPlan& plan) {
  // Materialize fallback assignments for any post-partition vertex the plan
  // touches, so its move routes through the table from now on. Untouched
  // post-partition vertices keep answering via the fallback rule — the
  // materialized entries are bit-equal to it, so nothing else changes.
  VertexId max_vertex = 0;
  for (const auto& move : plan.moves) {
    max_vertex = std::max(max_vertex, move.vertex);
  }
  if (!plan.empty() && max_vertex >= part_of_.size()) {
    const std::size_t old_n = part_of_.size();
    part_of_.resize(static_cast<std::size_t>(max_vertex) + 1);
    for (VertexId v = old_n; v < part_of_.size(); ++v) {
      const auto p = num_parts_ <= 1
                         ? 0u
                         : static_cast<std::uint32_t>(fib_spread(v, num_parts_));
      part_of_[v] = p;
      vertices_of_[p].push_back(v);  // v exceeds every present id: stays sorted
    }
  }
  for (const auto& move : plan.moves) {
    RIPPLE_CHECK_MSG(part_of_[move.vertex] == move.from,
                     "stale migration plan: vertex " << move.vertex
                         << " owned by " << part_of_[move.vertex] << ", not "
                         << move.from);
    RIPPLE_CHECK(move.to < num_parts_);
    if (move.from == move.to) continue;
    part_of_[move.vertex] = move.to;
    auto& src = vertices_of_[move.from];
    src.erase(std::lower_bound(src.begin(), src.end(), move.vertex));
    auto& dst = vertices_of_[move.to];
    dst.insert(std::lower_bound(dst.begin(), dst.end(), move.vertex),
               move.vertex);
  }
  ++version_;
}

double Partition::balance() const {
  if (part_of_.empty()) return 1.0;
  std::size_t largest = 0;
  for (const auto& part : vertices_of_) {
    largest = std::max(largest, part.size());
  }
  const double ideal = static_cast<double>(part_of_.size()) /
                       static_cast<double>(num_parts_);
  return static_cast<double>(largest) / ideal;
}

Partition hash_partition(std::size_t num_vertices, std::size_t num_parts) {
  std::vector<std::uint32_t> part_of(num_vertices);
  for (std::size_t v = 0; v < num_vertices; ++v) {
    part_of[v] = static_cast<std::uint32_t>(v % num_parts);
  }
  return Partition(num_parts, std::move(part_of));
}

Partition ldg_partition(const DynamicGraph& graph, std::size_t num_parts,
                        double capacity_slack) {
  const std::size_t n = graph.num_vertices();
  RIPPLE_CHECK(num_parts >= 1);
  const double capacity = capacity_slack * static_cast<double>(n) /
                          static_cast<double>(num_parts);
  std::vector<std::uint32_t> part_of(n, UINT32_MAX);
  std::vector<std::size_t> sizes(num_parts, 0);

  // BFS order over the union (in ∪ out) neighborhood so placed neighbors
  // are visible when a vertex streams in; restart from unvisited vertices.
  std::vector<std::uint8_t> visited(n, 0);
  std::vector<std::size_t> score(num_parts);
  std::queue<VertexId> queue;
  auto place = [&](VertexId v) {
    std::fill(score.begin(), score.end(), 0);
    for (const Neighbor& nb : graph.in_neighbors(v)) {
      if (part_of[nb.vertex] != UINT32_MAX) ++score[part_of[nb.vertex]];
    }
    for (const Neighbor& nb : graph.out_neighbors(v)) {
      if (part_of[nb.vertex] != UINT32_MAX) ++score[part_of[nb.vertex]];
    }
    // LDG objective: neighbors(p) * (1 - size(p)/capacity).
    double best = -1.0;
    std::size_t best_part = 0;
    for (std::size_t p = 0; p < num_parts; ++p) {
      const double remaining =
          1.0 - static_cast<double>(sizes[p]) / capacity;
      if (remaining <= 0) continue;
      const double value =
          (static_cast<double>(score[p]) + 1e-3) * remaining;
      if (value > best) {
        best = value;
        best_part = p;
      }
    }
    if (best < 0) {
      // All parts at capacity (possible with tight slack): take smallest.
      best_part = static_cast<std::size_t>(
          std::min_element(sizes.begin(), sizes.end()) - sizes.begin());
    }
    part_of[v] = static_cast<std::uint32_t>(best_part);
    ++sizes[best_part];
  };

  for (VertexId seed = 0; seed < n; ++seed) {
    if (visited[seed]) continue;
    visited[seed] = 1;
    queue.push(seed);
    while (!queue.empty()) {
      const VertexId v = queue.front();
      queue.pop();
      place(v);
      for (const Neighbor& nb : graph.out_neighbors(v)) {
        if (!visited[nb.vertex]) {
          visited[nb.vertex] = 1;
          queue.push(nb.vertex);
        }
      }
      for (const Neighbor& nb : graph.in_neighbors(v)) {
        if (!visited[nb.vertex]) {
          visited[nb.vertex] = 1;
          queue.push(nb.vertex);
        }
      }
    }
  }
  return Partition(num_parts, std::move(part_of));
}

std::size_t refine_partition(const DynamicGraph& graph, Partition& partition,
                             std::size_t max_passes, double capacity_slack) {
  const std::size_t n = graph.num_vertices();
  const std::size_t k = partition.num_parts();
  RIPPLE_CHECK(n == partition.num_vertices());
  const double capacity = capacity_slack * static_cast<double>(n) /
                          static_cast<double>(k);
  std::vector<std::uint32_t> part_of(n);
  std::vector<std::size_t> sizes(k, 0);
  for (VertexId v = 0; v < n; ++v) {
    part_of[v] = partition.part_of(v);
    ++sizes[part_of[v]];
  }

  std::size_t total_moves = 0;
  std::vector<std::size_t> gain(k);
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    std::size_t moves = 0;
    for (VertexId v = 0; v < n; ++v) {
      std::fill(gain.begin(), gain.end(), 0);
      for (const Neighbor& nb : graph.in_neighbors(v)) {
        ++gain[part_of[nb.vertex]];
      }
      for (const Neighbor& nb : graph.out_neighbors(v)) {
        ++gain[part_of[nb.vertex]];
      }
      const std::uint32_t current = part_of[v];
      std::uint32_t best = current;
      for (std::uint32_t p = 0; p < k; ++p) {
        if (p == current) continue;
        if (static_cast<double>(sizes[p]) + 1 > capacity) continue;
        if (gain[p] > gain[best]) best = p;
      }
      if (best != current && gain[best] > gain[current]) {
        part_of[v] = best;
        --sizes[current];
        ++sizes[best];
        ++moves;
      }
    }
    total_moves += moves;
    if (moves == 0) break;
  }
  partition = Partition(k, std::move(part_of));
  return total_moves;
}

MigrationPlan propose_migration(const DynamicGraph& graph,
                                const Partition& partition,
                                const SkewSignal& signal,
                                const MigrationOptions& options) {
  MigrationPlan plan;
  const std::size_t k = partition.num_parts();
  if (k < 2 || options.max_moves == 0) return plan;
  const double mean = signal.mean(k);
  if (mean <= 0) return plan;
  std::vector<std::uint8_t> hot(k, 0);
  bool any_hot = false;
  for (std::size_t p = 0; p < k; ++p) {
    hot[p] = signal.busy(p) > options.hot_factor * mean;
    any_hot |= hot[p] != 0;
  }
  if (!any_hot) return plan;

  const std::size_t n =
      std::max(graph.num_vertices(), partition.num_vertices());
  const double capacity = options.capacity_slack * static_cast<double>(n) /
                          static_cast<double>(k);
  std::vector<std::size_t> sizes(k);
  for (std::size_t p = 0; p < k; ++p) sizes[p] = partition.part_size(p);

  struct Candidate {
    std::int64_t gain;  // cut edges removed minus cut edges created
    VertexId vertex;
    std::uint32_t from;
    std::uint32_t to;
  };
  std::vector<Candidate> candidates;
  std::vector<std::size_t> affinity(k);
  for (std::uint32_t p = 0; p < k; ++p) {
    if (!hot[p]) continue;
    for (const VertexId v : partition.vertices_of(p)) {
      if (v >= graph.num_vertices()) continue;
      std::fill(affinity.begin(), affinity.end(), 0);
      for (const Neighbor& nb : graph.in_neighbors(v)) {
        ++affinity[partition.part_of(nb.vertex)];
      }
      for (const Neighbor& nb : graph.out_neighbors(v)) {
        ++affinity[partition.part_of(nb.vertex)];
      }
      // Best non-hot destination: highest affinity, then lightest load,
      // then lowest part id — a total order, so every replica proposing
      // from the same signal derives the same plan.
      std::uint32_t best = UINT32_MAX;
      for (std::uint32_t q = 0; q < k; ++q) {
        if (q == p || hot[q]) continue;
        if (best == UINT32_MAX || affinity[q] > affinity[best] ||
            (affinity[q] == affinity[best] &&
             signal.busy(q) < signal.busy(best))) {
          best = q;
        }
      }
      if (best == UINT32_MAX) continue;
      candidates.push_back({static_cast<std::int64_t>(affinity[best]) -
                                static_cast<std::int64_t>(affinity[p]),
                            v, p, best});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.gain != b.gain) return a.gain > b.gain;
              return a.vertex < b.vertex;
            });
  std::vector<std::uint8_t> in_plan(n, 0);
  for (const Candidate& c : candidates) {
    if (plan.size() >= options.max_moves) break;
    if (sizes[c.from] <= 1) continue;  // never empty a part
    if (static_cast<double>(sizes[c.to]) + 1 > capacity) continue;
    plan.moves.push_back({c.vertex, c.from, c.to});
    in_plan[c.vertex] = 1;
    --sizes[c.from];
    ++sizes[c.to];
  }
  if (options.swap_backfill) {
    // Pair each shed with a return: the destination hands back its best
    // cut-gain vertex toward the shedding part, restoring both sizes. A
    // return's gain reads only the pre-plan table (it changes in apply(),
    // never here), so each (to → from) pair ranks its candidates once, in
    // the total order (gain desc, vertex id asc) replicas share. Sheds then
    // take from a per-pair cursor in plan order, skipping vertices an
    // earlier move claimed; in_plan only grows, so the cursor never backs up.
    struct Returns {
      std::vector<std::pair<std::int64_t, VertexId>> ranked;  // (-gain, w)
      std::size_t next = 0;
    };
    std::map<std::pair<std::uint32_t, std::uint32_t>, Returns> returns;
    const std::size_t sheds = plan.size();
    for (std::size_t i = 0; i < sheds; ++i) {
      const auto shed = plan.moves[i];
      const auto [slot, fresh] = returns.try_emplace({shed.to, shed.from});
      Returns& pair = slot->second;
      if (fresh) {
        for (const VertexId w : partition.vertices_of(shed.to)) {
          if (w >= graph.num_vertices()) continue;
          std::int64_t gain = 0;  // edges toward `from` minus toward `to`
          for (const auto side :
               {graph.in_neighbors(w), graph.out_neighbors(w)}) {
            for (const Neighbor& nb : side) {
              const std::uint32_t q = partition.part_of(nb.vertex);
              gain += (q == shed.from) - (q == shed.to);
            }
          }
          pair.ranked.push_back({-gain, w});
        }
        std::sort(pair.ranked.begin(), pair.ranked.end());
      }
      while (pair.next < pair.ranked.size() &&
             in_plan[pair.ranked[pair.next].second]) {
        ++pair.next;
      }
      if (pair.next == pair.ranked.size()) continue;  // unpaired: size drifts
      const VertexId best = pair.ranked[pair.next++].second;
      plan.moves.push_back({best, shed.to, shed.from});
      in_plan[best] = 1;
      ++sizes[shed.from];
      --sizes[shed.to];
    }
  }
  plan.normalize(partition);
  return plan;
}

std::size_t HaloIndex::total_boundary() const {
  std::size_t total = 0;
  for (const auto& part : boundary) total += part.size();
  return total;
}

std::size_t HaloIndex::total_halo() const {
  std::size_t total = 0;
  for (const auto& part : halo_in) total += part.size();
  return total;
}

LocalRowMap::LocalRowMap(const Partition& partition,
                         std::size_t num_vertices) {
  owned_.resize(partition.num_parts());
  free_.resize(partition.num_parts());
  extend(partition, num_vertices);
}

void LocalRowMap::extend(const Partition& partition,
                         std::size_t new_num_vertices) {
  RIPPLE_CHECK(partition.num_parts() == owned_.size());
  RIPPLE_CHECK(new_num_vertices >= local_of_.size());
  for (VertexId v = local_of_.size(); v < new_num_vertices; ++v) {
    const std::uint32_t p = partition.part_of(v);
    local_of_.push_back(static_cast<std::uint32_t>(owned_[p].size()));
    owned_[p].push_back(v);
  }
}

void LocalRowMap::rehome(const MigrationPlan& plan) {
  // Pass 1: retire EVERY moved vertex's old slot before assigning any new
  // one. With a single interleaved pass, a move whose destination retires a
  // slot later in the same plan would append instead of reusing it — a swap
  // pair (v: p->q, w: q->p) could transiently grow both parts by one row
  // per superstep, an avoidable high-water the drift bench measures.
  for (const auto& move : plan.moves) {
    RIPPLE_CHECK(move.vertex < local_of_.size());
    RIPPLE_CHECK(move.from < owned_.size() && move.to < owned_.size());
    const std::uint32_t old_slot = local_of_[move.vertex];
    RIPPLE_CHECK_MSG(owned_[move.from][old_slot] == move.vertex,
                     "rehome: vertex " << move.vertex << " not at part "
                         << move.from << " slot " << old_slot);
    owned_[move.from][old_slot] = kInvalidVertex;
    auto& freed = free_[move.from];
    freed.insert(std::upper_bound(freed.begin(), freed.end(), old_slot,
                                  std::greater<std::uint32_t>()),
                 old_slot);
  }
  // Pass 2: assign fresh slots in plan order — smallest retired slot first,
  // else a row appended at the end. Both passes are pure functions of
  // (plan, table), so every replica assigns identical slots.
  for (const auto& move : plan.moves) {
    auto& reusable = free_[move.to];
    std::uint32_t slot;
    if (!reusable.empty()) {
      slot = reusable.back();  // smallest retired slot (sorted descending)
      reusable.pop_back();
      owned_[move.to][slot] = move.vertex;
    } else {
      slot = static_cast<std::uint32_t>(owned_[move.to].size());
      owned_[move.to].push_back(move.vertex);
    }
    local_of_[move.vertex] = slot;
  }
  // Trim trailing tombstone runs: the tail slots hold no live row, so the
  // part genuinely shrinks (engines resize their matrices to part_size).
  // free_ is sorted descending, so a trailing retired slot is its head.
  for (std::size_t p = 0; p < owned_.size(); ++p) {
    auto& owned = owned_[p];
    auto& freed = free_[p];
    while (!owned.empty() && owned.back() == kInvalidVertex) {
      owned.pop_back();
      RIPPLE_CHECK(!freed.empty() && freed.front() == owned.size());
      freed.erase(freed.begin());
    }
  }
}

std::size_t LocalRowMap::bytes() const {
  std::size_t total = local_of_.capacity() * sizeof(std::uint32_t);
  for (const auto& part : owned_) total += part.capacity() * sizeof(VertexId);
  for (const auto& part : free_) total += part.capacity() * sizeof(std::uint32_t);
  return total;
}

HaloIndex build_halo_index(const DynamicGraph& graph,
                           const Partition& partition) {
  const std::size_t k = partition.num_parts();
  HaloIndex halo;
  halo.boundary.resize(k);
  halo.halo_in.resize(k);
  std::vector<std::uint8_t> is_boundary(graph.num_vertices(), 0);
  // One pass over out-edges classifies both endpoints of every cut edge;
  // ascending-u iteration plus a final sort/unique keeps lists canonical.
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    const std::uint32_t pu = partition.part_of(u);
    for (const Neighbor& nb : graph.out_neighbors(u)) {
      const std::uint32_t pv = partition.part_of(nb.vertex);
      if (pu == pv) continue;
      is_boundary[u] = 1;
      is_boundary[nb.vertex] = 1;
      halo.halo_in[pv].push_back(u);
    }
  }
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (is_boundary[v]) halo.boundary[partition.part_of(v)].push_back(v);
  }
  for (auto& part : halo.halo_in) {
    std::sort(part.begin(), part.end());
    part.erase(std::unique(part.begin(), part.end()), part.end());
  }
  return halo;
}

}  // namespace ripple
