// Dense kernels: GEMM/GEMV, vector (row) arithmetic, activations, softmax.
// These are thin shape-checking wrappers over the SIMD-dispatched kernel
// subsystem (tensor/kernels.h): the actual loops live in the per-ISA tiers
// and are selected once at startup (overridable via --kernels=auto|scalar).
// GEMM is cache-blocked over packed-B panels and optionally threaded via
// the global pool or the work-stealing scheduler; GEMV serves the
// per-vertex Update step on Ripple's hot path.
//
// Determinism: every op's output bits are independent of the selected tier
// and of packed-vs-unpacked B (see the contract in kernels.h), so callers
// may mix paths freely without breaking the engines' bit-exactness suites.
#pragma once

#include <span>

#include "tensor/kernels.h"
#include "tensor/matrix.h"

namespace ripple {

class ThreadPool;
class WorkStealingScheduler;

// C = A (m x k) * B (k x n). C is resized. Threaded for large m. B is
// packed into panels via a small per-thread keyed cache (see
// gemm_pack_cache_stats below): repeated serial GEMMs against the same
// unchanged B skip the repack. Callers multiplying by an immutable matrix
// repeatedly (layer weights) should still pack once and use the
// PackedMatrix overloads.
void gemm(const Matrix& a, const Matrix& b, Matrix& c,
          ThreadPool* pool = nullptr);

// Work-stealing variant: row blocks become stealable tasks. Safe to call
// from INSIDE a scheduler task (the nested blocks are stolen by idle
// participants instead of the range serializing inline) — this is how a hot
// shard's blocked Update GEMM spreads across the pool. Row results are
// independent of the split, so the output bits match the serial path.
void gemm(const Matrix& a, const Matrix& b, Matrix& c,
          WorkStealingScheduler* scheduler);

// Pre-packed-B variants (b.rows() is the reduction depth k): bit-identical
// to the Matrix-B overloads, minus the per-call packing.
void gemm(const Matrix& a, const PackedMatrix& b, Matrix& c,
          ThreadPool* pool = nullptr);
void gemm(const Matrix& a, const PackedMatrix& b, Matrix& c,
          WorkStealingScheduler* scheduler);

// The serial Matrix-B gemm packs B through a per-thread LRU cache of a few
// entries keyed by (data pointer, shape) and VALIDATED by a content hash on
// every hit — an in-place weight mutation or a reused allocation misses
// instead of serving stale panels. The parallel (≥128-row) path bypasses
// the cache (a stolen unrelated task could otherwise clobber the shared
// entry mid-GEMM) exactly as it bypassed the old thread_local scratch.
struct GemmPackCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};
// Stats and reset for the CALLING thread's cache (test hooks).
GemmPackCacheStats gemm_pack_cache_stats();
void gemm_pack_cache_reset();

// C = A^T (k x m)^T * B (k x n) -> (m x n). Used for weight gradients.
void gemm_at_b(const Matrix& a, const Matrix& b, Matrix& c);

// C = A (m x k) * B^T (n x k)^T -> (m x n). Used for input gradients.
void gemm_a_bt(const Matrix& a, const Matrix& b, Matrix& c);

// dst (m x n) += broadcast row bias (1 x n) to every row.
void add_bias_rows(Matrix& dst, const Matrix& bias);

// y (1 x n) = x (1 x k) * W (k x n). y must have size n.
void gemv_row(std::span<const float> x, const Matrix& w, std::span<float> y);

// y += x * W (row GEMV accumulate).
void gemv_row_accum(std::span<const float> x, const Matrix& w,
                    std::span<float> y);

// Packed-W variants of the row GEMV (the per-vertex Update fast path:
// sequential panel streams instead of strided weight walks). Bit-identical
// to the Matrix-W overloads.
void gemv_row(std::span<const float> x, const PackedMatrix& w,
              std::span<float> y);
void gemv_row_accum(std::span<const float> x, const PackedMatrix& w,
                    std::span<float> y);

// Row/vector primitives (all spans must have equal length).
void vec_copy(std::span<const float> src, std::span<float> dst);
void vec_fill(std::span<float> dst, float value);
void vec_add(std::span<float> dst, std::span<const float> src);        // dst += src
void vec_sub(std::span<float> dst, std::span<const float> src);        // dst -= src
void vec_axpy(std::span<float> dst, float alpha, std::span<const float> src);  // dst += alpha*src
void vec_scale(std::span<float> dst, float alpha);                     // dst *= alpha
float vec_dot(std::span<const float> a, std::span<const float> b);
float vec_l2(std::span<const float> a);
float vec_linf_diff(std::span<const float> a, std::span<const float> b);

// Activations.
void relu_inplace(Matrix& m);
void relu_row(std::span<float> row);
// dst = relu'(pre_activation) ⊙ dst  (backward helper; pre > 0 mask).
void relu_backward_row(std::span<const float> pre, std::span<float> grad);

// Row-wise softmax (in place) and cross-entropy loss helpers for training.
void softmax_rows(Matrix& m);
std::size_t argmax_row(std::span<const float> row);

// Max |a - b| over all entries; shapes must match.
float max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace ripple
