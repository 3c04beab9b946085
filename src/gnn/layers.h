// GNN layer Update functions (Eqn. 2 of the paper) for the three model
// families evaluated: GraphConv (GCN), GraphSAGE, and GIN.
//
// Each layer consumes the vertex's own previous-layer embedding h_self and
// the aggregated neighborhood x_agg, and produces the pre-activation output.
// The model applies the nonlinearity (ReLU on hidden layers, identity on the
// output layer). Layers expose both a per-vertex row form (Ripple's hot
// path: one GEMV per affected vertex) and a whole-matrix batch form (the
// bootstrap / recompute path: one GEMM per layer).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "tensor/kernels.h"
#include "tensor/matrix.h"

namespace ripple {

class Rng;
class ThreadPool;
class WorkStealingScheduler;

enum class LayerKind { graph_conv, sage, gin };

const char* layer_kind_name(LayerKind kind);

// GraphConv: out = x_agg · W + b. Ignores h_self (no self-loop term).
struct GraphConvParams {
  Matrix weight;  // in_dim x out_dim
  Matrix bias;    // 1 x out_dim
};

// GraphSAGE: out = h_self · W_self + x_agg · W_neigh + b.
struct SageParams {
  Matrix w_self;   // in_dim x out_dim
  Matrix w_neigh;  // in_dim x out_dim
  Matrix bias;     // 1 x out_dim
};

// GIN: out = MLP((1 + eps) · h_self + x_agg), MLP = Linear→ReLU→Linear.
struct GinParams {
  float eps = 0.0f;
  Matrix w1;  // in_dim x mlp_hidden
  Matrix b1;  // 1 x mlp_hidden
  Matrix w2;  // mlp_hidden x out_dim
  Matrix b2;  // 1 x out_dim
};

class GnnLayer {
 public:
  using Params = std::variant<GraphConvParams, SageParams, GinParams>;

  GnnLayer(LayerKind kind, Params params, std::size_t in_dim,
           std::size_t out_dim);

  // Xavier-initialized layer; gin_mlp_hidden only applies to GIN.
  static GnnLayer random(LayerKind kind, std::size_t in_dim,
                         std::size_t out_dim, Rng& rng,
                         std::size_t gin_mlp_hidden = 0);

  LayerKind kind() const { return kind_; }
  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return out_dim_; }

  // True if the output depends on h_self (SAGE self term, GIN (1+eps) term);
  // drives the self-propagation channel of the incremental engine.
  bool uses_self() const { return kind_ != LayerKind::graph_conv; }

  // Per-vertex: out = Update(h_self, x_agg) (pre-activation).
  void update_row(std::span<const float> h_self, std::span<const float> x_agg,
                  std::span<float> out) const;

  // Whole-graph: h_out = Update(h_prev, x_agg) row-wise (pre-activation).
  void update_matrix(const Matrix& h_prev, const Matrix& x_agg, Matrix& h_out,
                     ThreadPool* pool = nullptr) const;

  // Work-stealing variant: the GEMM row blocks become stealable tasks, so a
  // hot shard's blocked Update spreads across idle participants even when
  // called from inside a scheduler task (nested region). Bit-identical to
  // the serial/pool paths — rows are computed independently either way.
  void update_matrix(const Matrix& h_prev, const Matrix& x_agg, Matrix& h_out,
                     WorkStealingScheduler* scheduler) const;

  const Params& params() const { return params_; }

  // Mutable access to the weights (the trainer's optimizer path).
  // Invalidates the packed-panel cache: subsequent update_* calls fall back
  // to the unpacked kernels — bit-identical results, just slower — until
  // repack() is called.
  Params& mutable_params() {
    packed_.clear();
    return params_;
  }

  // Re-derives the packed weight panels from the current params — called
  // by the constructor. Call after mutating weights to restore the packed
  // fast path. GNN layer weights are immutable across the stream, so in
  // steady state every update_row / update_matrix on every engine's hot
  // path reads the panels packed once at model load.
  void repack();
  bool has_packed_weights() const { return !packed_.empty(); }

  // Number of learnable scalars (reporting / optimizer sizing).
  std::size_t num_parameters() const;

 private:
  LayerKind kind_;
  Params params_;
  std::size_t in_dim_;
  std::size_t out_dim_;
  // Packed panels per weight matrix in declaration order (GC: [W];
  // SAGE: [W_self, W_neigh]; GIN: [W1, W2]). Empty means stale (weights
  // were handed out mutably); biases are row vectors and stay unpacked.
  std::vector<PackedMatrix> packed_;
};

}  // namespace ripple
