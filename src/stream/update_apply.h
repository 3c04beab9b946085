// The shared "update operator" loop: applies a batch to a topology replica
// in batch order, invoking the engine's hooks for every EFFECTIVE change.
// The guards live here once, and every engine — incremental and recompute,
// single machine and distributed — applies its batches through this loop:
// duplicate edge adds are no-ops, deletions of absent edges are skipped, a
// deletion captures the old weight before the edge disappears, and a
// feature row of the wrong width is rejected. Batch order is what makes
// mailbox cells accumulate their seeds identically everywhere — see the
// exactness contract in dist/dist_engine.h.
#pragma once

#include "common/check.h"
#include "graph/dynamic_graph.h"
#include "stream/update.h"

namespace ripple {

// seed_edge(u, v, weight, is_add) runs after the topology change;
// apply_feature(update) owns the full feature-update protocol (the H^0
// commit happens inside it, after the old row has been read) and only sees
// rows `feat_dim` wide.
template <typename SeedEdge, typename ApplyFeature>
void apply_updates_seeding(DynamicGraph& graph, UpdateBatch batch,
                           std::size_t feat_dim, SeedEdge&& seed_edge,
                           ApplyFeature&& apply_feature) {
  for (const GraphUpdate& u : batch) {
    switch (u.kind) {
      case UpdateKind::edge_add:
        // Topology first: seeding must see the new edge.
        if (graph.add_edge(u.u, u.v, u.weight)) {
          seed_edge(u.u, u.v, u.weight, /*is_add=*/true);
        }
        break;
      case UpdateKind::edge_del: {
        if (!graph.has_edge(u.u, u.v)) break;
        const EdgeWeight old_weight = graph.edge_weight(u.u, u.v);
        RIPPLE_CHECK(graph.remove_edge(u.u, u.v));
        seed_edge(u.u, u.v, old_weight, /*is_add=*/false);
        break;
      }
      case UpdateKind::vertex_feature:
        RIPPLE_CHECK_MSG(u.new_features.size() == feat_dim,
                         "feature width mismatch");
        apply_feature(u);
        break;
    }
  }
}

}  // namespace ripple
