// AVX-512 kernel tier. This TU is compiled with -mavx512f (when the
// compiler supports it) and its table is selected only after
// __builtin_cpu_supports("avx512f") confirms the host executes AVX-512F,
// so no AVX-512 instruction can leak into an unsupported code path.
//
// Determinism: same contract as every other tier (kernels.h) —
// vectorization across the output/column axis only, separate mul+add (no
// vfmadd), scalar tails over the same per-element chains. A full 16-column
// packed panel is exactly one zmm register, so the packed kernels hold each
// output strip in a single accumulator per row.
//
// vec_dot is the one op that reduces ALONG the vector; its canonical
// 8-lane-split order is pinned to 256-bit accumulators, so this tier
// reuses the AVX2-shaped implementation (-mavx512f implies -mavx2 ISA
// availability in this TU) rather than introducing a 16-lane order that
// would break cross-tier bit-exactness.
#include "tensor/kernels.h"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace ripple {
namespace {

constexpr std::size_t kW = PackedMatrix::kPanelWidth;  // one zmm register

void v_vec_add(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(dst + i, _mm512_add_ps(_mm512_loadu_ps(dst + i),
                                            _mm512_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

void v_vec_sub(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(dst + i, _mm512_sub_ps(_mm512_loadu_ps(dst + i),
                                            _mm512_loadu_ps(src + i)));
  }
  for (; i < n; ++i) dst[i] -= src[i];
}

void v_vec_axpy(float* dst, float alpha, const float* src, std::size_t n) {
  const __m512 va = _mm512_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 prod = _mm512_mul_ps(va, _mm512_loadu_ps(src + i));
    _mm512_storeu_ps(dst + i, _mm512_add_ps(_mm512_loadu_ps(dst + i), prod));
  }
  for (; i < n; ++i) dst[i] += alpha * src[i];
}

void v_vec_scale(float* dst, float alpha, std::size_t n) {
  const __m512 va = _mm512_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(dst + i, _mm512_mul_ps(_mm512_loadu_ps(dst + i), va));
  }
  for (; i < n; ++i) dst[i] *= alpha;
}

void v_relu(float* p, std::size_t n) {
  const __m512 zero = _mm512_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    // vmaxps(x, 0): -0 and NaN lanes yield the SECOND operand (+0) — the
    // scalar tier's (x > 0 ? x : +0) exactly.
    _mm512_storeu_ps(p + i, _mm512_max_ps(_mm512_loadu_ps(p + i), zero));
  }
  for (; i < n; ++i) p[i] = p[i] > 0.0f ? p[i] : 0.0f;
}

float v_vec_dot(const float* a, const float* b, std::size_t n) {
  // Canonical 8-lane split via 256-bit accumulators (see TU comment).
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
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
    const __m512 xp = _mm512_set1_ps(x[p]);
    const float* wp = w + p * ldw;
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      const __m512 prod = _mm512_mul_ps(xp, _mm512_loadu_ps(wp + j));
      _mm512_storeu_ps(y + j, _mm512_add_ps(_mm512_loadu_ps(y + j), prod));
    }
    for (; j < n; ++j) y[j] += x[p] * wp[j];
  }
}

void v_gemv_accum_packed(const float* x, std::size_t k, const PackedMatrix& w,
                         float* y) {
  const std::size_t n = w.cols();
  for (std::size_t pj = 0; pj < w.num_panels(); ++pj) {
    const std::size_t j0 = pj * kW;
    const std::size_t jw = std::min(kW, n - j0);
    const float* panel = w.panel(pj);
    float* yj = y + j0;
    if (jw == kW) {
      // Full panel: the y strip is ONE zmm and the k-loop reads one
      // sequential 64-byte-per-row stream (panel rows are 64B aligned).
      __m512 acc = _mm512_loadu_ps(yj);
      for (std::size_t p = 0; p < k; ++p) {
        const __m512 xp = _mm512_set1_ps(x[p]);
        acc = _mm512_add_ps(acc, _mm512_mul_ps(xp, _mm512_load_ps(panel + p * kW)));
      }
      _mm512_storeu_ps(yj, acc);
      continue;
    }
    for (std::size_t j = 0; j < jw; ++j) {
      float acc = yj[j];
      for (std::size_t p = 0; p < k; ++p) acc += x[p] * panel[p * kW + j];
      yj[j] = acc;
    }
  }
}

// MR x 16 register-blocked microkernel: MR A rows share each packed B row
// load, one zmm accumulator per row.
template <std::size_t MR>
inline void gemm_panel_rows(const float* a, std::size_t k, std::size_t lda,
                            const float* panel, float* c, std::size_t ldc,
                            std::size_t jw) {
  __m512 acc[MR];
  for (std::size_t r = 0; r < MR; ++r) acc[r] = _mm512_setzero_ps();
  for (std::size_t p = 0; p < k; ++p) {
    const __m512 bp = _mm512_load_ps(panel + p * kW);
    for (std::size_t r = 0; r < MR; ++r) {
      const __m512 va = _mm512_set1_ps(a[r * lda + p]);
      acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(va, bp));
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    float* ci = c + r * ldc;
    if (jw == kW) {
      _mm512_storeu_ps(ci, acc[r]);
    } else {
      alignas(64) float tmp[kW];
      _mm512_store_ps(tmp, acc[r]);
      for (std::size_t lane = 0; lane < jw; ++lane) ci[lane] = tmp[lane];
    }
  }
}

void v_gemm_packed(const float* a, std::size_t m, std::size_t k,
                   std::size_t lda, const PackedMatrix& b, float* c,
                   std::size_t ldc) {
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

const KernelOps kAvx512Ops = {
    .isa = KernelIsa::kAvx512,
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

const KernelOps* avx512_kernel_ops() { return &kAvx512Ops; }

}  // namespace ripple

#else  // !__AVX512F__ (TU compiled without -mavx512f: tier unavailable)

namespace ripple {
const KernelOps* avx512_kernel_ops() { return nullptr; }
}  // namespace ripple

#endif
