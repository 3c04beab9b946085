#include "gnn/layers.h"

#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
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
// null when the cache is stale). Bit-identical either way.
void weight_gemv(std::span<const float> x, const Matrix& w,
                 const std::vector<PackedMatrix>* packed, std::size_t wi,
                 std::span<float> out) {
  if (packed != nullptr) {
    gemv_row_accum(x, (*packed)[wi], out);
  } else {
    gemv_row_accum(x, w, out);
  }
}

template <typename Par>
void weight_gemm(const Matrix& a, const Matrix& w,
                 const std::vector<PackedMatrix>* packed, std::size_t wi,
                 Matrix& c, Par* par) {
  if (packed != nullptr) {
    gemm(a, (*packed)[wi], c, par);
  } else {
    gemm(a, w, c, par);
  }
}

}  // namespace

void GnnLayer::update_row(std::span<const float> h_self,
                          std::span<const float> x_agg,
                          std::span<float> out) const {
  RIPPLE_CHECK(x_agg.size() == in_dim_ && out.size() == out_dim_);
  // Packed fast path: weights are immutable across the stream, so the
  // panels packed at model load serve every per-vertex Update. The unpacked
  // fallback (stale cache after mutable_params()) is bit-identical.
  const auto* packed = has_packed_weights() ? &packed_ : nullptr;
  if (const auto* gc = std::get_if<GraphConvParams>(&params_)) {
    vec_copy(gc->bias.row(0), out);
    weight_gemv(x_agg, gc->weight, packed, 0, out);
    return;
  }
  RIPPLE_CHECK(h_self.size() == in_dim_);
  if (const auto* sage = std::get_if<SageParams>(&params_)) {
    vec_copy(sage->bias.row(0), out);
    weight_gemv(h_self, sage->w_self, packed, 0, out);
    weight_gemv(x_agg, sage->w_neigh, packed, 1, out);
    return;
  }
  const auto& gin = std::get<GinParams>(params_);
  // z = (1 + eps) * h_self + x_agg
  std::vector<float> z(in_dim_);
  for (std::size_t j = 0; j < in_dim_; ++j) {
    z[j] = (1.0f + gin.eps) * h_self[j] + x_agg[j];
  }
  std::vector<float> q(gin.w1.cols());
  vec_copy(gin.b1.row(0), q);
  weight_gemv(z, gin.w1, packed, 0, q);
  relu_row(q);
  vec_copy(gin.b2.row(0), out);
  weight_gemv(q, gin.w2, packed, 1, out);
}

namespace {

// One body for both parallel backends: `Par` is ThreadPool (static chunked
// gemm) or WorkStealingScheduler (stealable, nested-safe row blocks) — the
// gemm overload set picks the right runtime. Row results are backend
// independent, so the bits match across all three (incl. par == nullptr).
template <typename Par>
void update_matrix_impl(const GnnLayer::Params& params, std::size_t in_dim,
                        const std::vector<PackedMatrix>* packed,
                        const Matrix& h_prev, const Matrix& x_agg,
                        Matrix& h_out, Par* par) {
  RIPPLE_CHECK(x_agg.cols() == in_dim);
  if (const auto* gc = std::get_if<GraphConvParams>(&params)) {
    weight_gemm(x_agg, gc->weight, packed, 0, h_out, par);
    add_bias_rows(h_out, gc->bias);
    return;
  }
  RIPPLE_CHECK(h_prev.cols() == in_dim && h_prev.rows() == x_agg.rows());
  if (const auto* sage = std::get_if<SageParams>(&params)) {
    weight_gemm(h_prev, sage->w_self, packed, 0, h_out, par);
    Matrix neigh_part;
    weight_gemm(x_agg, sage->w_neigh, packed, 1, neigh_part, par);
    for (std::size_t r = 0; r < h_out.rows(); ++r) {
      vec_add(h_out.row(r), neigh_part.row(r));
    }
    add_bias_rows(h_out, sage->bias);
    return;
  }
  const auto& gin = std::get<GinParams>(params);
  Matrix z;
  z.resize_no_fill(h_prev.rows(), in_dim);
  for (std::size_t r = 0; r < z.rows(); ++r) {
    auto zr = z.row(r);
    const auto hr = h_prev.row(r);
    const auto xr = x_agg.row(r);
    for (std::size_t j = 0; j < in_dim; ++j) {
      zr[j] = (1.0f + gin.eps) * hr[j] + xr[j];
    }
  }
  Matrix q;
  weight_gemm(z, gin.w1, packed, 0, q, par);
  add_bias_rows(q, gin.b1);
  relu_inplace(q);
  weight_gemm(q, gin.w2, packed, 1, h_out, par);
  add_bias_rows(h_out, gin.b2);
}

}  // namespace

void GnnLayer::update_matrix(const Matrix& h_prev, const Matrix& x_agg,
                             Matrix& h_out, ThreadPool* pool) const {
  update_matrix_impl(params_, in_dim_,
                     has_packed_weights() ? &packed_ : nullptr, h_prev, x_agg,
                     h_out, pool);
}

void GnnLayer::update_matrix(const Matrix& h_prev, const Matrix& x_agg,
                             Matrix& h_out,
                             WorkStealingScheduler* scheduler) const {
  update_matrix_impl(params_, in_dim_,
                     has_packed_weights() ? &packed_ : nullptr, h_prev, x_agg,
                     h_out, scheduler);
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
