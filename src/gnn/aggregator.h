// Neighborhood aggregation functions (paper Table 1).
//
// Ripple's incremental model requires *linear* aggregators (sum, mean,
// weighted-sum): a neighbor's contribution enters the aggregate as
// α(u,v) · h_u, so it can be retracted with a subtraction. max/min are
// provided for the full-recompute engines only (they are the domain of
// InkStream, contrasted in §3) and are rejected by the incremental engine.
#pragma once

#include <algorithm>
#include <span>
#include <string>

#include "graph/types.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"

namespace ripple {

enum class AggregatorKind { sum, mean, weighted_sum, max, min };

const char* aggregator_name(AggregatorKind kind);
AggregatorKind aggregator_from_name(const std::string& name);

// True for sum / mean / weighted_sum — the class Ripple supports.
bool is_linear(AggregatorKind kind);

// Per-edge contribution coefficient α(u,v) of an edge with weight `weight`.
// For mean this is 1: the 1/deg normalization is applied at the receiver,
// which tracks its in-degree (mean_normalize). Every engine derives α here.
inline float edge_coefficient(AggregatorKind kind, EdgeWeight weight) {
  return kind == AggregatorKind::weighted_sum ? weight : 1.0f;
}

// Mean's receiver-side scale: row *= 1/deg, or zeros when deg == 0 (a
// raw-sum cache emptied by deletions may hold rounding residue). The one
// home of the 1/deg scale: full aggregation, the cache bootstrap and the
// incremental hop apply all call it, so they round identically.
inline void mean_normalize(std::span<float> row, std::size_t deg) {
  if (deg == 0) {
    std::fill(row.begin(), row.end(), 0.0f);
    return;
  }
  kernels().vec_scale(row.data(), 1.0f / static_cast<float>(deg), row.size());
}

// Row resolver over a dense vertex-indexed table.
inline auto rows_of(const Matrix& table) {
  return [&table](VertexId u) { return table.row(u).data(); };
}

// out = Aggregate({row_of(u) : u in in_nbrs}), where `row_of(u)` returns a
// pointer to u's d-wide previous-layer row wherever it lives (a dense table,
// an owned local row, a halo-cache row, a pulled wire payload, a memo
// entry). Zero in-degree yields zeros. This is the single body of the
// aggregation op order — fill, one axpy per neighbor in list order, then
// mean_normalize — so every engine that aggregates through it produces the
// same bits for the same rows.
template <typename RowOf>
void aggregate_neighbors_resolved(AggregatorKind kind,
                                  std::span<const Neighbor> in_nbrs,
                                  const RowOf& row_of, std::span<float> out) {
  const std::size_t d = out.size();
  std::fill(out.begin(), out.end(), 0.0f);
  if (kind == AggregatorKind::max || kind == AggregatorKind::min) {
    bool first = true;
    for (const Neighbor& nb : in_nbrs) {
      const float* row = row_of(nb.vertex);
      if (first) {
        std::copy(row, row + d, out.begin());
        first = false;
      } else if (kind == AggregatorKind::max) {
        for (std::size_t j = 0; j < d; ++j) out[j] = std::max(out[j], row[j]);
      } else {
        for (std::size_t j = 0; j < d; ++j) out[j] = std::min(out[j], row[j]);
      }
    }
    return;
  }
  // Linear aggregators: one vectorized axpy per in-neighbor (the kernel
  // tiers keep each output element's accumulation order, so the result is
  // dispatch-independent).
  const KernelOps& ops = kernels();
  for (const Neighbor& nb : in_nbrs) {
    ops.vec_axpy(out.data(), edge_coefficient(kind, nb.weight),
                 row_of(nb.vertex), d);
  }
  if (kind == AggregatorKind::mean) mean_normalize(out, in_nbrs.size());
}

// Dense-table form: aggregate_neighbors_resolved over rows_of(h_prev).
void aggregate_neighbors(AggregatorKind kind,
                         std::span<const Neighbor> in_nbrs,
                         const Matrix& h_prev, std::span<float> out);

// X_agg[v] = Aggregate over in-neighbors for every vertex (layer-wise full
// pass). GraphT must expose num_vertices() and in_neighbors(v).
template <typename GraphT>
void aggregate_all(AggregatorKind kind, const GraphT& graph,
                   const Matrix& h_prev, Matrix& x_agg) {
  const std::size_t n = graph.num_vertices();
  // no_fill: aggregate_neighbors overwrites every row below.
  x_agg.resize_no_fill(n, h_prev.cols());
  for (VertexId v = 0; v < n; ++v) {
    aggregate_neighbors(kind, graph.in_neighbors(v), h_prev, x_agg.row(v));
  }
}

// Reverse-mode aggregation for training: grad_h[u] += α(u,v) · grad_x[v]
// for every edge (u, v); for mean, α is scaled by 1/in_degree(v).
// GraphT must expose num_vertices(), in_neighbors(v) and in_degree(v).
template <typename GraphT>
void aggregate_all_transpose(AggregatorKind kind, const GraphT& graph,
                             const Matrix& grad_x, Matrix& grad_h_accum) {
  const std::size_t n = graph.num_vertices();
  RIPPLE_CHECK(grad_x.rows() == n && grad_h_accum.rows() == n);
  RIPPLE_CHECK(grad_x.cols() == grad_h_accum.cols());
  const std::size_t d = grad_x.cols();
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = graph.in_neighbors(v);
    if (nbrs.empty()) continue;
    const float norm = (kind == AggregatorKind::mean)
                           ? 1.0f / static_cast<float>(nbrs.size())
                           : 1.0f;
    const float* gx = grad_x.data() + static_cast<std::size_t>(v) * d;
    for (const Neighbor& nb : nbrs) {
      const float alpha = edge_coefficient(kind, nb.weight) * norm;
      float* gh = grad_h_accum.data() + static_cast<std::size_t>(nb.vertex) * d;
      for (std::size_t j = 0; j < d; ++j) gh[j] += alpha * gx[j];
    }
  }
}

}  // namespace ripple
