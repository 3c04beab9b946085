// SIMD-dispatched tensor kernel subsystem.
//
// Every hot path in the system — RippleEngine's shard apply, hop_kernel's
// per-vertex Δh GEMVs, the dist engines' recompute, and the serving loop —
// bottoms out in a handful of dense kernels. This subsystem provides those
// kernels in three tiers selected ONCE at startup by runtime CPU-feature
// detection (AVX-512 -> AVX2 -> scalar):
//
//   AVX-512 (simd_avx512.cpp, compiled with -mavx512f; taken when the CPU
//           reports AVX512F)
//   AVX2  (simd_avx2.cpp, compiled with -mavx2; taken when the CPU
//          reports AVX2)
//   scalar (simd_scalar.cpp; portable C++, every platform, and every x86
//          host without AVX2)
//
// The selection is overridable with --kernels=auto|scalar (threaded through
// Flags by the benches/examples via apply_kernel_flag) and forceable at
// build time with -DRIPPLE_KERNELS=scalar (ci.sh runs a forced-scalar unit
// tier so the portable path stays tested on SIMD hosts).
//
// Bit-exactness contract
// ----------------------
// Every tier computes every output element with the SAME accumulation
// order and WITHOUT fused multiply-add:
//   * GEMM/GEMV outputs: c[i][j] = ((init + a[i][0]·b[0][j]) + a[i][1]·
//     b[1][j]) + ... — ascending k, one rounding per multiply and per add.
//     SIMD tiers vectorize across the OUTPUT COLUMN axis only, so lanes
//     hold different output elements and no element's chain is reordered.
//   * Elementwise ops (add/sub/axpy/scale/relu) are trivially order-free.
//   * vec_dot reduces ALONG the vector, so a canonical 8-lane-split order
//     is specified (see vec_dot below) and implemented identically by all
//     three tiers.
// Kernel TUs are built with -ffp-contract=off so the scalar tier cannot be
// FMA-contracted out from under the contract on -march=native builds.
// Consequence: --kernels=scalar and --kernels=auto produce bit-identical
// embeddings (property-tested across engines × shards × parts × scheduler
// × transport), and all pre-existing zero-tolerance exactness suites hold
// unchanged.
//
// NaN/Inf: kernels do NOT skip zero multiplicands (0·NaN must stay NaN),
// so IEEE special values propagate exactly as a naive loop would. relu is
// specified as (x > 0 ? x : +0), which maps -0 and NaN to +0 in every tier
// (this is what vmaxps(x, 0) computes). One carve-out: when several NaN /
// invalid-op operands combine, WHICH NaN (payload and sign) survives is
// selected by hardware operand order — which the compiler may commute in
// the scalar tier — so the cross-tier contract covers NaN-ness, not NaN
// payload bits. ±0, denormals, and infinities are exact.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "tensor/matrix.h"

namespace ripple {

// Instruction-set tier of a kernel table.
enum class KernelIsa { kScalar, kAvx2, kAvx512 };

const char* kernel_isa_name(KernelIsa isa);

// Startup policy, surfaced to benches/examples as --kernels=auto|scalar.
enum class KernelMode { kAuto, kScalar };

const char* kernel_mode_name(KernelMode mode);
// Parses "auto" / "scalar"; dies with a message on anything else.
KernelMode parse_kernel_mode(const std::string& name);
// The accepted --kernels values, for Flags::get_choice — the single source
// every bench/example validates against.
const std::vector<std::string>& kernel_mode_choices();

class Flags;

// Applies --kernels=auto|scalar (validated; defaults to auto) and returns
// the name of the tier that will actually execute — for a bench's config
// line / JSON output. The one entry point every bench and example uses, so
// the flag cannot drift between binaries.
const char* apply_kernel_flag(const Flags& flags);

// Immutable weight matrix repacked into cache-line panels for the GEMM /
// GEMV kernels: the columns are split into panels of kPanelWidth columns
// (16 floats = 64 bytes — one cache line, two AVX2 registers, one AVX-512
// register) and each panel stores its k rows contiguously, so the inner
// k-loop of a microkernel reads ONE sequential stream instead of striding
// by the row pitch. The last panel is zero-padded to full width; kernels
// compute the padded lanes and drop them on store, which never changes the
// bits of a real output element.
//
// GNN layer weights are immutable across the stream, so GnnLayer packs each
// weight once at model load and every update_row / update_matrix call
// reuses the panels (see gnn/layers.h).
class PackedMatrix {
 public:
  static constexpr std::size_t kPanelWidth = 16;

  PackedMatrix() = default;

  static PackedMatrix pack(const Matrix& w) {
    PackedMatrix p;
    p.assign(w);
    return p;
  }

  // Re-packs in place, reusing the existing buffer when large enough (the
  // per-call scratch path of the unpacked gemm()).
  void assign(const Matrix& w);

  std::size_t rows() const { return rows_; }  // k: the GEMM reduction depth
  std::size_t cols() const { return cols_; }  // n: real (unpadded) columns
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  std::size_t num_panels() const {
    return (cols_ + kPanelWidth - 1) / kPanelWidth;
  }
  // Panel pj covers columns [pj*kPanelWidth, min(cols, ...)); layout is
  // rows_ rows of kPanelWidth elements, 64-byte aligned.
  const float* panel(std::size_t pj) const {
    return data_.data() + pj * rows_ * kPanelWidth;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  AlignedVector data_;
};

// One tier's kernel table. All pointers are non-null in every table.
// Size/shape validation happens in the ops.h wrappers; these take raw
// pointers and trust the caller.
struct KernelOps {
  KernelIsa isa;

  // Elementwise (dst and src may not alias):
  void (*vec_add)(float* dst, const float* src, std::size_t n);
  void (*vec_sub)(float* dst, const float* src, std::size_t n);
  void (*vec_axpy)(float* dst, float alpha, const float* src, std::size_t n);
  void (*vec_scale)(float* dst, float alpha, std::size_t n);
  // relu(x) = x > 0 ? x : +0 (maps -0 and NaN to +0; all tiers agree).
  void (*relu)(float* p, std::size_t n);

  // Canonical 8-lane dot product: partial sums s[i % 8] += a[i]·b[i], then
  // the fixed reduction (((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))) — the
  // natural 256→128→scalar narrowing order, mirrored exactly by the scalar
  // tier (and by AVX-512, which keeps 256-bit accumulators for this op) so
  // the result is bit-identical across tiers (though different from a
  // naive left-to-right sum).
  float (*vec_dot)(const float* a, const float* b, std::size_t n);

  // y[j] += Σ_p x[p]·w[p·ldw + j] for j in [0, n); ascending p per column.
  void (*gemv_accum)(const float* x, std::size_t k, const float* w,
                     std::size_t ldw, float* y, std::size_t n);

  // Same result as gemv_accum, reading w from packed panels (sequential
  // panel streams instead of strided row walks). w.rows() must equal k.
  void (*gemv_accum_packed)(const float* x, std::size_t k,
                            const PackedMatrix& w, float* y);

  // C (m x n, row pitch ldc) = A (m x k, row pitch lda) · B, overwriting C.
  // B is given as packed panels (b.rows() == k, b.cols() == n). Each output
  // element is the ascending-k mul/add chain starting from 0. Row blocks
  // are independent, so parallel callers split over m.
  void (*gemm_packed)(const float* a, std::size_t m, std::size_t k,
                      std::size_t lda, const PackedMatrix& b, float* c,
                      std::size_t ldc);
};

// The active table. First use runs CPU detection (honoring the compile-time
// RIPPLE_KERNELS=scalar force); set_kernel_mode() re-dispatches.
const KernelOps& kernels();

// Overrides the dispatch policy (--kernels). Intended for startup / test
// setup: calling it concurrently with running kernels is safe memory-wise
// (atomic pointer swap) but makes WHICH tier a racing op uses unspecified.
void set_kernel_mode(KernelMode mode);
KernelMode kernel_mode();

KernelIsa active_kernel_isa();

// Table for one specific tier, or nullptr when this build/CPU cannot run it
// (e.g. AVX2 table on a non-AVX2 host). Test hook for the dispatched-vs-
// scalar bit-exactness suite.
const KernelOps* kernel_ops_for(KernelIsa isa);

// Every tier the current build AND host can execute (always contains
// kScalar).
std::vector<KernelIsa> available_kernel_isas();

// Accessors implemented by the per-tier TUs (internal; use kernels()).
const KernelOps* scalar_kernel_ops();
const KernelOps* avx2_kernel_ops();    // nullptr when built without -mavx2
const KernelOps* avx512_kernel_ops();  // nullptr when built without -mavx512f

}  // namespace ripple
