#include "gnn/layers.h"

#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "tensor/ops.h"

namespace ripple {

const char* layer_kind_name(LayerKind kind) {
  switch (kind) {
    case LayerKind::graph_conv: return "graph_conv";
    case LayerKind::sage: return "sage";
    case LayerKind::gin: return "gin";
  }
  return "?";
}

GnnLayer::GnnLayer(LayerKind kind, Params params, std::size_t in_dim,
                   std::size_t out_dim)
    : kind_(kind), params_(std::move(params)), in_dim_(in_dim),
      out_dim_(out_dim) {
  repack();
}

void GnnLayer::repack() {
  packed_.clear();
  if (const auto* gc = std::get_if<GraphConvParams>(&params_)) {
    packed_.push_back(PackedMatrix::pack(gc->weight));
  } else if (const auto* sage = std::get_if<SageParams>(&params_)) {
    packed_.push_back(PackedMatrix::pack(sage->w_self));
    packed_.push_back(PackedMatrix::pack(sage->w_neigh));
  } else {
    const auto& gin = std::get<GinParams>(params_);
    packed_.push_back(PackedMatrix::pack(gin.w1));
    packed_.push_back(PackedMatrix::pack(gin.w2));
  }
}

GnnLayer GnnLayer::random(LayerKind kind, std::size_t in_dim,
                          std::size_t out_dim, Rng& rng,
                          std::size_t gin_mlp_hidden) {
  switch (kind) {
    case LayerKind::graph_conv: {
      GraphConvParams p{.weight = Matrix::xavier(in_dim, out_dim, rng),
                        .bias = Matrix(1, out_dim)};
      return GnnLayer(kind, std::move(p), in_dim, out_dim);
    }
    case LayerKind::sage: {
      SageParams p{.w_self = Matrix::xavier(in_dim, out_dim, rng),
                   .w_neigh = Matrix::xavier(in_dim, out_dim, rng),
                   .bias = Matrix(1, out_dim)};
      return GnnLayer(kind, std::move(p), in_dim, out_dim);
    }
    case LayerKind::gin: {
      const std::size_t hidden =
          gin_mlp_hidden == 0 ? out_dim : gin_mlp_hidden;
      GinParams p{.eps = 0.0f,
                  .w1 = Matrix::xavier(in_dim, hidden, rng),
                  .b1 = Matrix(1, hidden),
                  .w2 = Matrix::xavier(hidden, out_dim, rng),
                  .b2 = Matrix(1, out_dim)};
      return GnnLayer(kind, std::move(p), in_dim, out_dim);
    }
  }
  throw check_error("unreachable layer kind");
}

namespace {

// The packed-fallback policy lives in exactly two helpers: multiply by
// weight index `wi`, preferring the layer's packed panels (`packed` is
// null when the cache is stale). Bit-identical either way. Both compute
// the product from zero, so one row of weight_gemm equals weight_gemv.
void weight_gemv(std::span<const float> x, const Matrix& w,
                 const std::vector<PackedMatrix>* packed, std::size_t wi,
                 std::span<float> out) {
  if (packed != nullptr) {
    gemv_row(x, (*packed)[wi], out);
  } else {
    gemv_row(x, w, out);
  }
}

void weight_gemm(const Matrix& a, const Matrix& w,
                 const std::vector<PackedMatrix>* packed, std::size_t wi,
                 Matrix& c, WorkStealingScheduler* scheduler) {
  if (packed != nullptr) {
    gemm(a, (*packed)[wi], c, scheduler);
  } else {
    gemm(a, w, c, scheduler);
  }
}

// GIN's MLP input z = (1 + eps) · h_self + x_agg — one home for both
// update paths, so a contracting build fuses it the same way in each.
void gin_input(float eps, std::span<const float> h_self,
               std::span<const float> x_agg, std::span<float> z) {
  for (std::size_t j = 0; j < z.size(); ++j) {
    z[j] = (1.0f + eps) * h_self[j] + x_agg[j];
  }
}

}  // namespace

// update_row is one row of update_matrix, association included: each
// weight product from zero, the products summed, then the bias. The
// recompute engines (update_row) and the bootstrap and Ripple's blocked
// apply (update_matrix) therefore write bit-identical rows.
void GnnLayer::update_row(std::span<const float> h_self,
                          std::span<const float> x_agg,
                          std::span<float> out) const {
  RIPPLE_CHECK(x_agg.size() == in_dim_ && out.size() == out_dim_);
  // Packed fast path: weights are immutable across the stream, so the
  // panels packed at model load serve every per-vertex Update. The unpacked
  // fallback (stale cache after mutable_params()) is bit-identical.
  const auto* packed = has_packed_weights() ? &packed_ : nullptr;
  if (const auto* gc = std::get_if<GraphConvParams>(&params_)) {
    weight_gemv(x_agg, gc->weight, packed, 0, out);
    vec_add(out, gc->bias.row(0));
    return;
  }
  RIPPLE_CHECK(h_self.size() == in_dim_);
  if (const auto* sage = std::get_if<SageParams>(&params_)) {
    weight_gemv(h_self, sage->w_self, packed, 0, out);
    std::vector<float> neigh_part(out_dim_);
    weight_gemv(x_agg, sage->w_neigh, packed, 1, neigh_part);
    vec_add(out, neigh_part);
    vec_add(out, sage->bias.row(0));
    return;
  }
  const auto& gin = std::get<GinParams>(params_);
  std::vector<float> z(in_dim_);
  gin_input(gin.eps, h_self, x_agg, z);
  std::vector<float> q(gin.w1.cols());
  weight_gemv(z, gin.w1, packed, 0, q);
  vec_add(q, gin.b1.row(0));
  relu_row(q);
  weight_gemv(q, gin.w2, packed, 1, out);
  vec_add(out, gin.b2.row(0));
}

void GnnLayer::update_matrix(const Matrix& h_prev, const Matrix& x_agg,
                             Matrix& h_out,
                             WorkStealingScheduler* scheduler) const {
  RIPPLE_CHECK(x_agg.cols() == in_dim_);
  const auto* packed = has_packed_weights() ? &packed_ : nullptr;
  if (const auto* gc = std::get_if<GraphConvParams>(&params_)) {
    weight_gemm(x_agg, gc->weight, packed, 0, h_out, scheduler);
    add_bias_rows(h_out, gc->bias);
    return;
  }
  RIPPLE_CHECK(h_prev.cols() == in_dim_ && h_prev.rows() == x_agg.rows());
  if (const auto* sage = std::get_if<SageParams>(&params_)) {
    weight_gemm(h_prev, sage->w_self, packed, 0, h_out, scheduler);
    Matrix neigh_part;
    weight_gemm(x_agg, sage->w_neigh, packed, 1, neigh_part, scheduler);
    for (std::size_t r = 0; r < h_out.rows(); ++r) {
      vec_add(h_out.row(r), neigh_part.row(r));
    }
    add_bias_rows(h_out, sage->bias);
    return;
  }
  const auto& gin = std::get<GinParams>(params_);
  Matrix z;
  z.resize_no_fill(h_prev.rows(), in_dim_);
  for (std::size_t r = 0; r < z.rows(); ++r) {
    gin_input(gin.eps, h_prev.row(r), x_agg.row(r), z.row(r));
  }
  Matrix q;
  weight_gemm(z, gin.w1, packed, 0, q, scheduler);
  add_bias_rows(q, gin.b1);
  relu_inplace(q);
  weight_gemm(q, gin.w2, packed, 1, h_out, scheduler);
  add_bias_rows(h_out, gin.b2);
}

std::size_t GnnLayer::num_parameters() const {
  if (const auto* gc = std::get_if<GraphConvParams>(&params_)) {
    return gc->weight.size() + gc->bias.size();
  }
  if (const auto* sage = std::get_if<SageParams>(&params_)) {
    return sage->w_self.size() + sage->w_neigh.size() + sage->bias.size();
  }
  const auto& gin = std::get<GinParams>(params_);
  return gin.w1.size() + gin.b1.size() + gin.w2.size() + gin.b2.size() + 1;
}

}  // namespace ripple
