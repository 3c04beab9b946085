// AVX2 kernel tier. This TU is compiled with -mavx2 -mfma (when the
// compiler supports them) and its table is selected only after
// __builtin_cpu_supports confirms the host executes AVX2 and FMA, so no
// AVX or FMA instruction can leak into a non-AVX code path.
//
// Determinism: vectorization runs across the output/column axis only, and
// every accumulated product is one _mm256_fmadd_ps, so every output
// element carries the scalar tier's exact std::fmaf chain (the contract in
// kernels.h). Tails are handled with scalar loops over the same
// per-element chains (std::fmaf, which -mfma turns into one vfmadd) — no
// masked loads/stores, so the tier is sanitizer-clean by construction.
#include "tensor/kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

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
    _mm256_storeu_ps(dst + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(src + i),
                                              _mm256_loadu_ps(dst + i)));
  }
  for (; i < n; ++i) dst[i] = std::fmaf(alpha, src[i], dst[i]);
}

// axpy_rows over one strip of kVecs·8 columns: the strip
// stays in registers while every listed row is added in order.
template <std::size_t kVecs>
inline void axpy_rows_strip(float* dst, const float* base, std::size_t ld,
                            const std::uint32_t* rows, const float* alphas,
                            std::size_t count) {
  __m256 acc[kVecs];
  for (std::size_t q = 0; q < kVecs; ++q) acc[q] = _mm256_loadu_ps(dst + 8 * q);
  for (std::size_t i = 0; i < count; ++i) {
    const __m256 va = _mm256_set1_ps(alphas[i]);
    const float* src = base + rows[i] * ld;
    for (std::size_t q = 0; q < kVecs; ++q) {
      acc[q] = _mm256_fmadd_ps(va, _mm256_loadu_ps(src + 8 * q), acc[q]);
    }
  }
  for (std::size_t q = 0; q < kVecs; ++q) _mm256_storeu_ps(dst + 8 * q, acc[q]);
}

void v_axpy_rows(float* dst, std::size_t n, const float* base, std::size_t ld,
                 const std::uint32_t* rows, const float* alphas,
                 std::size_t count) {
  std::size_t j = 0;
  for (; j + 64 <= n; j += 64) {
    axpy_rows_strip<8>(dst + j, base + j, ld, rows, alphas, count);
  }
  for (; j + 8 <= n; j += 8) {
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
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc);
  }
  // Canonical finish (kernels.h): spill the 8 lane sums, accumulate the
  // tail scalar into lanes i%8, then the fixed 8→4→scalar narrowing.
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
    const __m256 xp = _mm256_set1_ps(x[p]);
    const float* wp = w + p * ldw;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      _mm256_storeu_ps(y + j, _mm256_fmadd_ps(xp, _mm256_loadu_ps(wp + j),
                                              _mm256_loadu_ps(y + j)));
    }
    for (; j < n; ++j) y[j] = std::fmaf(x[p], wp[j], y[j]);
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
        acc0 = _mm256_fmadd_ps(xp, _mm256_load_ps(bp), acc0);
        acc1 = _mm256_fmadd_ps(xp, _mm256_load_ps(bp + 8), acc1);
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
        acc = _mm256_fmadd_ps(xp, _mm256_loadu_ps(panel + p * kW + j), acc);
      }
      _mm256_storeu_ps(yj + j, acc);
    }
    for (; j < jw; ++j) {
      float acc = yj[j];
      for (std::size_t p = 0; p < k; ++p) {
        acc = std::fmaf(x[p], panel[p * kW + j], acc);
      }
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
      acc[r][0] = _mm256_fmadd_ps(va, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(va, b1, acc[r][1]);
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

std::size_t v_argmax(const float* p, std::size_t n) {
  const auto scan = [&] {
    return static_cast<std::size_t>(std::max_element(p, p + n) - p);
  };
  if (n < 8) return scan();
  // Pass 1: the max, with NaN noted on the side (vmaxps passes a NaN on
  // only from its second operand, so the max alone cannot tell). The last
  // vector overlaps the one before it instead of leaving a scalar tail;
  // max and the NaN test do not mind seeing an element twice.
  __m256 vmax = _mm256_loadu_ps(p + n - 8);
  __m256 nan = _mm256_cmp_ps(vmax, vmax, _CMP_UNORD_Q);
  for (std::size_t i = 0; i + 8 < n; i += 8) {
    const __m256 v = _mm256_loadu_ps(p + i);
    vmax = _mm256_max_ps(vmax, v);
    nan = _mm256_or_ps(nan, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
  }
  if (_mm256_movemask_ps(nan) != 0) return scan();
  __m128 half = _mm_max_ps(_mm256_castps256_ps128(vmax),
                           _mm256_extractf128_ps(vmax, 1));
  half = _mm_max_ps(half, _mm_movehl_ps(half, half));
  half = _mm_max_ss(half, _mm_shuffle_ps(half, half, 1));
  // Pass 2: the first index equal to the max (-0 == +0, as in
  // max_element). The overlapping last vector re-reads only elements that
  // held no hit.
  const __m256 vm = _mm256_set1_ps(_mm_cvtss_f32(half));
  for (std::size_t i = 0;; i = std::min(i + 8, n - 8)) {
    const int hits = _mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_loadu_ps(p + i), vm, _CMP_EQ_OQ));
    if (hits != 0) return i + static_cast<std::size_t>(__builtin_ctz(hits));
  }
}

const KernelOps kAvx2Ops = {
    .isa = KernelIsa::kAvx2,
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

const KernelOps* avx2_kernel_ops() { return &kAvx2Ops; }

}  // namespace ripple

#else  // TU compiled without -mavx2 -mfma: tier unavailable

namespace ripple {
const KernelOps* avx2_kernel_ops() { return nullptr; }
}  // namespace ripple

#endif
