// AVX-512 kernel tier. This TU is compiled with -mavx512f -mfma (when the
// compiler supports them) and its table is selected only after
// __builtin_cpu_supports confirms the host executes AVX-512F and FMA, so
// no AVX-512 instruction can leak into an unsupported code path.
//
// Determinism: same contract as every other tier (kernels.h) —
// vectorization across the output/column axis only, one _mm512_fmadd_ps
// per accumulated product, scalar std::fmaf tails over the same
// per-element chains. A full 16-column packed panel is exactly one zmm
// register, so the packed kernels hold each output strip in a single
// accumulator per row; the GEMM tile is 6 rows x 2 panels, 12 independent
// accumulators, enough to keep both FMA ports busy through the 4-cycle
// FMA latency.
//
// vec_dot is the one op that reduces ALONG the vector; its canonical
// 8-lane-split order is pinned to 256-bit accumulators, so this tier
// reuses the AVX2-shaped implementation (-mavx512f implies -mavx2 and
// -mfma supplies the 256-bit vfmadd) rather than introducing a 16-lane
// order that would break cross-tier bit-exactness.
#include "tensor/kernels.h"

#if defined(__AVX512F__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

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
    _mm512_storeu_ps(dst + i, _mm512_fmadd_ps(va, _mm512_loadu_ps(src + i),
                                              _mm512_loadu_ps(dst + i)));
  }
  for (; i < n; ++i) dst[i] = std::fmaf(alpha, src[i], dst[i]);
}

// axpy_rows over one strip of kVecs·16 columns: the strip
// stays in registers while every listed row is added in order.
template <std::size_t kVecs>
inline void axpy_rows_strip(float* dst, const float* base, std::size_t ld,
                            const std::uint32_t* rows, const float* alphas,
                            std::size_t count) {
  __m512 acc[kVecs];
  for (std::size_t q = 0; q < kVecs; ++q) {
    acc[q] = _mm512_loadu_ps(dst + 16 * q);
  }
  for (std::size_t i = 0; i < count; ++i) {
    const __m512 va = _mm512_set1_ps(alphas[i]);
    const float* src = base + rows[i] * ld;
    for (std::size_t q = 0; q < kVecs; ++q) {
      acc[q] = _mm512_fmadd_ps(va, _mm512_loadu_ps(src + 16 * q), acc[q]);
    }
  }
  for (std::size_t q = 0; q < kVecs; ++q) {
    _mm512_storeu_ps(dst + 16 * q, acc[q]);
  }
}

void v_axpy_rows(float* dst, std::size_t n, const float* base, std::size_t ld,
                 const std::uint32_t* rows, const float* alphas,
                 std::size_t count) {
  std::size_t j = 0;
  for (; j + 64 <= n; j += 64) {
    axpy_rows_strip<4>(dst + j, base + j, ld, rows, alphas, count);
  }
  for (; j + 16 <= n; j += 16) {
    axpy_rows_strip<1>(dst + j, base + j, ld, rows, alphas, count);
  }
  for (; j < n; ++j) {
    float acc = dst[j];
    for (std::size_t i = 0; i < count; ++i) {
      acc = std::fmaf(alphas[i], base[rows[i] * ld + j], acc);
    }
    dst[j] = acc;
  }
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
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc);
  }
  alignas(32) float s[8];
  _mm256_store_ps(s, acc);
  for (; i < n; ++i) s[i % 8] = std::fmaf(a[i], b[i], s[i % 8]);
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
      _mm512_storeu_ps(y + j, _mm512_fmadd_ps(xp, _mm512_loadu_ps(wp + j),
                                              _mm512_loadu_ps(y + j)));
    }
    for (; j < n; ++j) y[j] = std::fmaf(x[p], wp[j], y[j]);
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
        acc = _mm512_fmadd_ps(xp, _mm512_load_ps(panel + p * kW), acc);
      }
      _mm512_storeu_ps(yj, acc);
      continue;
    }
    for (std::size_t j = 0; j < jw; ++j) {
      float acc = yj[j];
      for (std::size_t p = 0; p < k; ++p) {
        acc = std::fmaf(x[p], panel[p * kW + j], acc);
      }
      yj[j] = acc;
    }
  }
}

// MR x (NP·16) register-blocked microkernel over NP adjacent panels: MR A
// rows share each packed B row load, NP panels share each A broadcast, and
// every (row, panel) strip has its own zmm accumulator. `last_jw` is the
// real width of the last panel (narrower than 16 only on the matrix's
// final panel).
template <std::size_t MR, std::size_t NP>
inline void gemm_tile(const float* a, std::size_t k, std::size_t lda,
                      const float* panels, float* c, std::size_t ldc,
                      std::size_t last_jw) {
  const std::size_t panel_stride = k * kW;  // panels are stored back to back
  __m512 acc[MR][NP];
  for (std::size_t r = 0; r < MR; ++r) {
    for (std::size_t q = 0; q < NP; ++q) acc[r][q] = _mm512_setzero_ps();
  }
  for (std::size_t p = 0; p < k; ++p) {
    __m512 bp[NP];
    for (std::size_t q = 0; q < NP; ++q) {
      bp[q] = _mm512_load_ps(panels + q * panel_stride + p * kW);
    }
    for (std::size_t r = 0; r < MR; ++r) {
      const __m512 va = _mm512_set1_ps(a[r * lda + p]);
      for (std::size_t q = 0; q < NP; ++q) {
        acc[r][q] = _mm512_fmadd_ps(va, bp[q], acc[r][q]);
      }
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    for (std::size_t q = 0; q < NP; ++q) {
      float* ci = c + r * ldc + q * kW;
      const std::size_t jw = q + 1 == NP ? last_jw : kW;
      if (jw == kW) {
        _mm512_storeu_ps(ci, acc[r][q]);
      } else {
        alignas(64) float tmp[kW];
        _mm512_store_ps(tmp, acc[r][q]);
        for (std::size_t lane = 0; lane < jw; ++lane) ci[lane] = tmp[lane];
      }
    }
  }
}

// All m rows against NP adjacent panels: 6-row tiles, then one tile of the
// remaining 1..5 rows.
template <std::size_t NP>
void gemm_panels(const float* a, std::size_t m, std::size_t k,
                 std::size_t lda, const float* panels, float* c,
                 std::size_t ldc, std::size_t last_jw) {
  constexpr std::size_t kMr = 6;
  std::size_t i = 0;
  for (; i + kMr <= m; i += kMr) {
    gemm_tile<kMr, NP>(a + i * lda, k, lda, panels, c + i * ldc, ldc,
                       last_jw);
  }
  a += i * lda;
  c += i * ldc;
  switch (m - i) {
    case 5: gemm_tile<5, NP>(a, k, lda, panels, c, ldc, last_jw); break;
    case 4: gemm_tile<4, NP>(a, k, lda, panels, c, ldc, last_jw); break;
    case 3: gemm_tile<3, NP>(a, k, lda, panels, c, ldc, last_jw); break;
    case 2: gemm_tile<2, NP>(a, k, lda, panels, c, ldc, last_jw); break;
    case 1: gemm_tile<1, NP>(a, k, lda, panels, c, ldc, last_jw); break;
    default: break;
  }
}

void v_gemm_packed(const float* a, std::size_t m, std::size_t k,
                   std::size_t lda, const PackedMatrix& b, float* c,
                   std::size_t ldc) {
  const std::size_t n = b.cols();
  const std::size_t num_panels = b.num_panels();
  std::size_t pj = 0;
  for (; pj + 2 <= num_panels; pj += 2) {
    const std::size_t last_jw = std::min(kW, n - (pj + 1) * kW);
    gemm_panels<2>(a, m, k, lda, b.panel(pj), c + pj * kW, ldc, last_jw);
  }
  if (pj < num_panels) {
    gemm_panels<1>(a, m, k, lda, b.panel(pj), c + pj * kW, ldc, n - pj * kW);
  }
}

std::size_t v_argmax(const float* p, std::size_t n) {
  const auto scan = [&] {
    return static_cast<std::size_t>(std::max_element(p, p + n) - p);
  };
  if (n < 16) return scan();
  // Pass 1: the max, with NaN noted on the side (vmaxps passes a NaN on
  // only from its second operand, so the max alone cannot tell). The last
  // vector overlaps the one before it instead of leaving a scalar tail;
  // max and the NaN test do not mind seeing an element twice.
  __m512 vmax = _mm512_loadu_ps(p + n - 16);
  __mmask16 nan = _mm512_cmp_ps_mask(vmax, vmax, _CMP_UNORD_Q);
  for (std::size_t i = 0; i + 16 < n; i += 16) {
    const __m512 v = _mm512_loadu_ps(p + i);
    vmax = _mm512_max_ps(vmax, v);
    nan |= _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q);
  }
  if (nan != 0) return scan();
  // Pass 2: the first index equal to the max (-0 == +0, as in
  // max_element). The overlapping last vector re-reads only elements that
  // held no hit.
  const __m512 vm = _mm512_set1_ps(_mm512_reduce_max_ps(vmax));
  for (std::size_t i = 0;; i = std::min(i + 16, n - 16)) {
    const __mmask16 hits =
        _mm512_cmp_ps_mask(_mm512_loadu_ps(p + i), vm, _CMP_EQ_OQ);
    if (hits != 0) return i + static_cast<std::size_t>(__builtin_ctz(hits));
  }
}

const KernelOps kAvx512Ops = {
    .isa = KernelIsa::kAvx512,
    .vec_add = v_vec_add,
    .vec_sub = v_vec_sub,
    .vec_axpy = v_vec_axpy,
    .vec_scale = v_vec_scale,
    .axpy_rows = v_axpy_rows,
    .relu = v_relu,
    .vec_dot = v_vec_dot,
    .gemv_accum = v_gemv_accum,
    .gemv_accum_packed = v_gemv_accum_packed,
    .gemm_packed = v_gemm_packed,
    .argmax = v_argmax,
};

}  // namespace

const KernelOps* avx512_kernel_ops() { return &kAvx512Ops; }

}  // namespace ripple

#else  // TU compiled without -mavx512f -mfma: tier unavailable

namespace ripple {
const KernelOps* avx512_kernel_ops() { return nullptr; }
}  // namespace ripple

#endif
