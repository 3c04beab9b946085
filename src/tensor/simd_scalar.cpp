// Portable scalar kernel tier — the reference semantics every SIMD tier
// must reproduce bit-for-bit (see the contract in kernels.h). Built with
// -ffp-contract=off so no FMA contraction can change the rounding chain.
//
// NOTE for maintainers: the loops here deliberately do NOT skip zero
// multiplicands. The old data-dependent `if (x == 0) continue` fast path
// defeated vectorization (unpredictable branch in the inner loop) and
// silently dropped IEEE special values (0·NaN must stay NaN). Profiling on
// the R-MAT streams showed near-zero density in the embedding rows, so no
// sparse path is retained.
#include "tensor/kernels.h"

namespace ripple {
namespace {

void s_vec_add(float* dst, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void s_vec_sub(float* dst, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] -= src[i];
}

void s_vec_axpy(float* dst, float alpha, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += alpha * src[i];
}

void s_vec_scale(float* dst, float alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] *= alpha;
}

void s_relu(float* p, std::size_t n) {
  // x > 0 ? x : +0 — exactly vmaxps(x, 0): -0 and NaN map to +0.
  for (std::size_t i = 0; i < n; ++i) p[i] = p[i] > 0.0f ? p[i] : 0.0f;
}

float s_vec_dot(const float* a, const float* b, std::size_t n) {
  // Canonical 8-lane split (kernels.h): s[i % 8] += a[i]*b[i], then the
  // fixed 8→4→scalar narrowing. Identical to what the AVX2 tier's register
  // lanes accumulate.
  float s[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t lane = 0; lane < 8; ++lane) {
      s[lane] += a[i + lane] * b[i + lane];
    }
  }
  for (; i < n; ++i) s[i % 8] += a[i] * b[i];
  float t[4];
  for (std::size_t lane = 0; lane < 4; ++lane) t[lane] = s[lane] + s[lane + 4];
  return (t[0] + t[2]) + (t[1] + t[3]);
}

void s_gemv_accum(const float* x, std::size_t k, const float* w,
                  std::size_t ldw, float* y, std::size_t n) {
  for (std::size_t p = 0; p < k; ++p) {
    const float xp = x[p];
    const float* wp = w + p * ldw;
    for (std::size_t j = 0; j < n; ++j) y[j] += xp * wp[j];
  }
}

void s_gemv_accum_packed(const float* x, std::size_t k, const PackedMatrix& w,
                         float* y) {
  constexpr std::size_t kW = PackedMatrix::kPanelWidth;
  const std::size_t n = w.cols();
  for (std::size_t pj = 0; pj < w.num_panels(); ++pj) {
    const std::size_t j0 = pj * kW;
    const std::size_t jw = std::min(kW, n - j0);
    const float* panel = w.panel(pj);
    float* yj = y + j0;
    for (std::size_t p = 0; p < k; ++p) {
      const float xp = x[p];
      const float* bp = panel + p * kW;
      for (std::size_t lane = 0; lane < jw; ++lane) yj[lane] += xp * bp[lane];
    }
  }
}

void s_gemm_packed(const float* a, std::size_t m, std::size_t k,
                   std::size_t lda, const PackedMatrix& b, float* c,
                   std::size_t ldc) {
  constexpr std::size_t kW = PackedMatrix::kPanelWidth;
  const std::size_t n = b.cols();
  for (std::size_t pj = 0; pj < b.num_panels(); ++pj) {
    const std::size_t j0 = pj * kW;
    const std::size_t jw = std::min(kW, n - j0);
    const float* panel = b.panel(pj);
    for (std::size_t i = 0; i < m; ++i) {
      float acc[kW] = {0};
      const float* ai = a + i * lda;
      for (std::size_t p = 0; p < k; ++p) {
        const float aip = ai[p];
        const float* bp = panel + p * kW;
        for (std::size_t lane = 0; lane < kW; ++lane) {
          acc[lane] += aip * bp[lane];
        }
      }
      float* ci = c + i * ldc + j0;
      for (std::size_t lane = 0; lane < jw; ++lane) ci[lane] = acc[lane];
    }
  }
}

const KernelOps kScalarOps = {
    .isa = KernelIsa::kScalar,
    .vec_add = s_vec_add,
    .vec_sub = s_vec_sub,
    .vec_axpy = s_vec_axpy,
    .vec_scale = s_vec_scale,
    .relu = s_relu,
    .vec_dot = s_vec_dot,
    .gemv_accum = s_gemv_accum,
    .gemv_accum_packed = s_gemv_accum_packed,
    .gemm_packed = s_gemm_packed,
};

}  // namespace

const KernelOps* scalar_kernel_ops() { return &kScalarOps; }

}  // namespace ripple
