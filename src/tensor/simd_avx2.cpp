// AVX2 kernel tier. This TU is compiled with -mavx2 (when the compiler
// supports it) and its table is selected only after __builtin_cpu_supports
// confirms the host executes AVX2, so no AVX instruction can leak into a
// non-AVX code path.
//
// Determinism: vectorization runs across the output/column axis only, and
// all products use separate mul+add intrinsics — NOT vfmadd — so every
// output element carries the scalar tier's exact rounding chain (the
// contract in kernels.h). The deliberate cost of skipping FMA is one extra
// rounding per product, which is what buys bit-exact --kernels=scalar
// equivalence; throughput still improves ~4-8x over scalar because these
// kernels are memory/issue bound, not latency bound.
//
// Tails are handled with scalar loops over the same per-element chains —
// no masked loads/stores, so the tier is sanitizer-clean by construction.
#include "tensor/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace ripple {
namespace {

void v_vec_add(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i),
                               _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void v_vec_sub(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i, _mm256_sub_ps(_mm256_loadu_ps(dst + i),
                               _mm256_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] -= src[i];
}

void v_vec_axpy(float* dst, float alpha, const float* src, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 prod = _mm256_mul_ps(va, _mm256_loadu_ps(src + i));
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), prod));
  }
  for (; i < n; ++i) dst[i] += alpha * src[i];
}

void v_vec_scale(float* dst, float alpha, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(dst + i), va));
  }
  for (; i < n; ++i) dst[i] *= alpha;
}

void v_relu(float* p, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // vmaxps(x, 0): -0 and NaN lanes yield the SECOND operand (+0) — the
    // scalar tier's (x > 0 ? x : +0) exactly.
    _mm256_storeu_ps(p + i, _mm256_max_ps(_mm256_loadu_ps(p + i), zero));
  }
  for (; i < n; ++i) p[i] = p[i] > 0.0f ? p[i] : 0.0f;
}

float v_vec_dot(const float* a, const float* b, std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  // Canonical finish (kernels.h): spill the 8 lane sums, accumulate the
  // tail scalar into lanes i%8, then the fixed 8→4→scalar narrowing.
  alignas(32) float s[8];
  _mm256_store_ps(s, acc);
  for (; i < n; ++i) s[i % 8] += a[i] * b[i];
  float t[4];
  for (std::size_t lane = 0; lane < 4; ++lane) t[lane] = s[lane] + s[lane + 4];
  return (t[0] + t[2]) + (t[1] + t[3]);
}

void v_gemv_accum(const float* x, std::size_t k, const float* w,
                  std::size_t ldw, float* y, std::size_t n) {
  for (std::size_t p = 0; p < k; ++p) {
    const __m256 xp = _mm256_set1_ps(x[p]);
    const float* wp = w + p * ldw;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const __m256 prod = _mm256_mul_ps(xp, _mm256_loadu_ps(wp + j));
      _mm256_storeu_ps(y + j, _mm256_add_ps(_mm256_loadu_ps(y + j), prod));
    }
    for (; j < n; ++j) y[j] += x[p] * wp[j];
  }
}

void v_gemv_accum_packed(const float* x, std::size_t k, const PackedMatrix& w,
                         float* y) {
  constexpr std::size_t kW = PackedMatrix::kPanelWidth;
  const std::size_t n = w.cols();
  for (std::size_t pj = 0; pj < w.num_panels(); ++pj) {
    const std::size_t j0 = pj * kW;
    const std::size_t jw = std::min(kW, n - j0);
    const float* panel = w.panel(pj);
    float* yj = y + j0;
    if (jw == kW) {
      // Full panel: the y strip lives in two registers and the k-loop reads
      // one sequential 64-byte-per-row stream (the whole point of packing).
      __m256 acc0 = _mm256_loadu_ps(yj);
      __m256 acc1 = _mm256_loadu_ps(yj + 8);
      for (std::size_t p = 0; p < k; ++p) {
        const __m256 xp = _mm256_set1_ps(x[p]);
        const float* bp = panel + p * kW;
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(xp, _mm256_load_ps(bp)));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(xp, _mm256_load_ps(bp + 8)));
      }
      _mm256_storeu_ps(yj, acc0);
      _mm256_storeu_ps(yj + 8, acc1);
      continue;
    }
    std::size_t j = 0;
    for (; j + 8 <= jw; j += 8) {
      __m256 acc = _mm256_loadu_ps(yj + j);
      for (std::size_t p = 0; p < k; ++p) {
        const __m256 xp = _mm256_set1_ps(x[p]);
        acc = _mm256_add_ps(acc,
                            _mm256_mul_ps(xp, _mm256_loadu_ps(panel + p * kW + j)));
      }
      _mm256_storeu_ps(yj + j, acc);
    }
    for (; j < jw; ++j) {
      float acc = yj[j];
      for (std::size_t p = 0; p < k; ++p) acc += x[p] * panel[p * kW + j];
      yj[j] = acc;
    }
  }
}

// 4x16 register-blocked microkernel: four A rows share each packed B row
// load, and each row's 16 output columns stay in two accumulators.
template <std::size_t MR>
inline void gemm_panel_rows(const float* a, std::size_t k, std::size_t lda,
                            const float* panel, float* c, std::size_t ldc,
                            std::size_t jw) {
  constexpr std::size_t kW = PackedMatrix::kPanelWidth;
  __m256 acc[MR][2];
  for (std::size_t r = 0; r < MR; ++r) {
    acc[r][0] = _mm256_setzero_ps();
    acc[r][1] = _mm256_setzero_ps();
  }
  for (std::size_t p = 0; p < k; ++p) {
    const __m256 b0 = _mm256_load_ps(panel + p * kW);
    const __m256 b1 = _mm256_load_ps(panel + p * kW + 8);
    for (std::size_t r = 0; r < MR; ++r) {
      const __m256 va = _mm256_set1_ps(a[r * lda + p]);
      acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(va, b0));
      acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(va, b1));
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    float* ci = c + r * ldc;
    if (jw == kW) {
      _mm256_storeu_ps(ci, acc[r][0]);
      _mm256_storeu_ps(ci + 8, acc[r][1]);
    } else {
      alignas(32) float tmp[kW];
      _mm256_store_ps(tmp, acc[r][0]);
      _mm256_store_ps(tmp + 8, acc[r][1]);
      for (std::size_t lane = 0; lane < jw; ++lane) ci[lane] = tmp[lane];
    }
  }
}

void v_gemm_packed(const float* a, std::size_t m, std::size_t k,
                   std::size_t lda, const PackedMatrix& b, float* c,
                   std::size_t ldc) {
  constexpr std::size_t kW = PackedMatrix::kPanelWidth;
  const std::size_t n = b.cols();
  for (std::size_t pj = 0; pj < b.num_panels(); ++pj) {
    const std::size_t j0 = pj * kW;
    const std::size_t jw = std::min(kW, n - j0);
    const float* panel = b.panel(pj);
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      gemm_panel_rows<4>(a + i * lda, k, lda, panel, c + i * ldc + j0, ldc,
                         jw);
    }
    for (; i < m; ++i) {
      gemm_panel_rows<1>(a + i * lda, k, lda, panel, c + i * ldc + j0, ldc,
                         jw);
    }
  }
}

const KernelOps kAvx2Ops = {
    .isa = KernelIsa::kAvx2,
    .vec_add = v_vec_add,
    .vec_sub = v_vec_sub,
    .vec_axpy = v_vec_axpy,
    .vec_scale = v_vec_scale,
    .relu = v_relu,
    .vec_dot = v_vec_dot,
    .gemv_accum = v_gemv_accum,
    .gemv_accum_packed = v_gemv_accum_packed,
    .gemm_packed = v_gemm_packed,
};

}  // namespace

const KernelOps* avx2_kernel_ops() { return &kAvx2Ops; }

}  // namespace ripple

#else  // !__AVX2__ (TU compiled without -mavx2: tier unavailable)

namespace ripple {
const KernelOps* avx2_kernel_ops() { return nullptr; }
}  // namespace ripple

#endif
