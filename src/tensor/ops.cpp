#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/scheduler.h"
#include "common/thread_pool.h"

namespace ripple {

namespace {

// One body for both parallel backends (ThreadPool static chunks vs
// work-stealing row blocks). Row results are split-independent, so the
// output bits match the serial path.
template <typename Par>
void gemm_impl(const Matrix& a, const PackedMatrix& b, Matrix& c, Par* par) {
  RIPPLE_CHECK_MSG(a.cols() == b.rows(), "gemm shape mismatch: a is "
                                             << a.rows() << 'x' << a.cols()
                                             << ", b is " << b.rows() << 'x'
                                             << b.cols());
  c.resize_no_fill(a.rows(), b.cols());
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  const KernelOps& ops = kernels();
  auto rows = [&](std::size_t lo, std::size_t hi) {
    ops.gemm_packed(a.data() + lo * k, hi - lo, k, k, b, c.data() + lo * n,
                    n);
  };
  if (par != nullptr && m >= 128) {
    if constexpr (std::is_same_v<Par, ThreadPool>) {
      par->parallel_for(0, m, rows, 64);
    } else {
      par->parallel_range(0, m, rows, 64);
    }
  } else {
    rows(0, m);
  }
}

// Keyed pack cache for the serial Matrix-B gemm path (see ops.h). A few
// LRU entries keyed by (data pointer, shape); a hit is only served after
// an FNV-1a content hash over B's element bits matches, so in-place weight
// mutation and allocator address reuse both read as misses rather than
// stale panels. The hash pass is a sequential read of B — strictly cheaper
// than the repack (read + panel write + possible allocation) it replaces,
// and alternating B's no longer thrash a single scratch slot.
struct PackCache {
  struct Entry {
    const float* data = nullptr;
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::uint64_t hash = 0;
    std::uint64_t stamp = 0;
    PackedMatrix packed;
  };
  static constexpr std::size_t kEntries = 4;
  Entry entries[kEntries];
  std::uint64_t clock = 0;
  GemmPackCacheStats stats;
};

thread_local PackCache g_pack_cache;

std::uint64_t content_hash(const Matrix& b) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  const unsigned char* p = reinterpret_cast<const unsigned char*>(b.data());
  std::size_t nbytes = b.size() * sizeof(float);
  while (nbytes >= 8) {
    std::uint64_t block;
    std::memcpy(&block, p, 8);
    h = (h ^ block) * kPrime;
    p += 8;
    nbytes -= 8;
  }
  while (nbytes > 0) {
    h = (h ^ *p++) * kPrime;
    --nbytes;
  }
  return h;
}

const PackedMatrix& pack_cached(const Matrix& b) {
  PackCache& cache = g_pack_cache;
  const std::uint64_t h = content_hash(b);
  ++cache.clock;
  PackCache::Entry* victim = &cache.entries[0];
  for (PackCache::Entry& e : cache.entries) {
    if (e.data == b.data() && e.rows == b.rows() && e.cols == b.cols() &&
        e.hash == h) {
      e.stamp = cache.clock;
      ++cache.stats.hits;
      return e.packed;
    }
    if (e.stamp < victim->stamp) victim = &e;
  }
  ++cache.stats.misses;
  victim->data = b.data();
  victim->rows = b.rows();
  victim->cols = b.cols();
  victim->hash = h;
  victim->stamp = cache.clock;
  victim->packed.assign(b);
  return victim->packed;
}

// Per-call B packing for the Matrix-B gemm overloads. The SERIAL path
// packs through the keyed cache (gemm never calls itself, so no
// reentrancy on one thread). The PARALLEL paths pack into a call-local
// buffer instead: while a region drains, the calling participant may
// help-execute or steal an UNRELATED task that itself packs — which would
// clobber a cached entry while this call's row blocks still read it. One
// allocation per ≥128-row GEMM is noise next to the m·k·n work (and layer
// weights take the pre-packed overloads anyway).
template <typename Par>
void gemm_pack_b(const Matrix& a, const Matrix& b, Matrix& c, Par* par) {
  if (par != nullptr && a.rows() >= 128) {
    PackedMatrix local;
    local.assign(b);
    gemm_impl(a, local, c, par);
    return;
  }
  gemm_impl(a, pack_cached(b), c, static_cast<Par*>(nullptr));
}

}  // namespace

GemmPackCacheStats gemm_pack_cache_stats() { return g_pack_cache.stats; }

void gemm_pack_cache_reset() {
  for (PackCache::Entry& e : g_pack_cache.entries) e = PackCache::Entry{};
  g_pack_cache.clock = 0;
  g_pack_cache.stats = GemmPackCacheStats{};
}

void gemm(const Matrix& a, const Matrix& b, Matrix& c, ThreadPool* pool) {
  gemm_pack_b(a, b, c, pool);
}

void gemm(const Matrix& a, const Matrix& b, Matrix& c,
          WorkStealingScheduler* scheduler) {
  gemm_pack_b(a, b, c, scheduler);
}

void gemm(const Matrix& a, const PackedMatrix& b, Matrix& c,
          ThreadPool* pool) {
  gemm_impl(a, b, c, pool);
}

void gemm(const Matrix& a, const PackedMatrix& b, Matrix& c,
          WorkStealingScheduler* scheduler) {
  gemm_impl(a, b, c, scheduler);
}

void gemm_at_b(const Matrix& a, const Matrix& b, Matrix& c) {
  RIPPLE_CHECK_MSG(a.rows() == b.rows(), "gemm_at_b shape mismatch");
  const std::size_t m = a.cols();
  const std::size_t k = a.rows();
  const std::size_t n = b.cols();
  c.resize_no_fill(m, n);
  c.fill(0.0f);
  const KernelOps& ops = kernels();
  for (std::size_t p = 0; p < k; ++p) {
    const float* ap = a.data() + p * m;
    const float* bp = b.data() + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      ops.vec_axpy(c.data() + i * n, ap[i], bp, n);
    }
  }
}

void gemm_a_bt(const Matrix& a, const Matrix& b, Matrix& c) {
  RIPPLE_CHECK_MSG(a.cols() == b.cols(), "gemm_a_bt shape mismatch");
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.rows();
  c.resize_no_fill(m, n);
  const KernelOps& ops = kernels();
  for (std::size_t i = 0; i < m; ++i) {
    const float* ai = a.data() + i * k;
    float* ci = c.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      ci[j] = ops.vec_dot(ai, b.data() + j * k, k);
    }
  }
}

void add_bias_rows(Matrix& dst, const Matrix& bias) {
  RIPPLE_CHECK(bias.rows() == 1 && bias.cols() == dst.cols());
  for (std::size_t r = 0; r < dst.rows(); ++r) {
    vec_add(dst.row(r), bias.row(0));
  }
}

void gemv_row(std::span<const float> x, const Matrix& w, std::span<float> y) {
  RIPPLE_CHECK(x.size() == w.rows() && y.size() == w.cols());
  std::fill(y.begin(), y.end(), 0.0f);
  kernels().gemv_accum(x.data(), x.size(), w.data(), w.cols(), y.data(),
                       y.size());
}

void gemv_row_accum(std::span<const float> x, const Matrix& w,
                    std::span<float> y) {
  RIPPLE_CHECK(x.size() == w.rows() && y.size() == w.cols());
  kernels().gemv_accum(x.data(), x.size(), w.data(), w.cols(), y.data(),
                       y.size());
}

void gemv_row(std::span<const float> x, const PackedMatrix& w,
              std::span<float> y) {
  RIPPLE_CHECK(x.size() == w.rows() && y.size() == w.cols());
  std::fill(y.begin(), y.end(), 0.0f);
  kernels().gemv_accum_packed(x.data(), x.size(), w, y.data());
}

void gemv_row_accum(std::span<const float> x, const PackedMatrix& w,
                    std::span<float> y) {
  RIPPLE_CHECK(x.size() == w.rows() && y.size() == w.cols());
  kernels().gemv_accum_packed(x.data(), x.size(), w, y.data());
}

void vec_copy(std::span<const float> src, std::span<float> dst) {
  RIPPLE_CHECK(src.size() == dst.size());
  std::copy(src.begin(), src.end(), dst.begin());
}

void vec_fill(std::span<float> dst, float value) {
  std::fill(dst.begin(), dst.end(), value);
}

void vec_add(std::span<float> dst, std::span<const float> src) {
  RIPPLE_CHECK(src.size() == dst.size());
  kernels().vec_add(dst.data(), src.data(), dst.size());
}

void vec_sub(std::span<float> dst, std::span<const float> src) {
  RIPPLE_CHECK(src.size() == dst.size());
  kernels().vec_sub(dst.data(), src.data(), dst.size());
}

void vec_axpy(std::span<float> dst, float alpha, std::span<const float> src) {
  RIPPLE_CHECK(src.size() == dst.size());
  kernels().vec_axpy(dst.data(), alpha, src.data(), dst.size());
}

void vec_scale(std::span<float> dst, float alpha) {
  kernels().vec_scale(dst.data(), alpha, dst.size());
}

float vec_dot(std::span<const float> a, std::span<const float> b) {
  RIPPLE_CHECK(a.size() == b.size());
  return kernels().vec_dot(a.data(), b.data(), a.size());
}

float vec_l2(std::span<const float> a) {
  return std::sqrt(vec_dot(a, a));
}

float vec_linf_diff(std::span<const float> a, std::span<const float> b) {
  RIPPLE_CHECK(a.size() == b.size());
  float m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

void relu_inplace(Matrix& m) {
  kernels().relu(m.data(), m.size());
}

void relu_row(std::span<float> row) {
  kernels().relu(row.data(), row.size());
}

void relu_backward_row(std::span<const float> pre, std::span<float> grad) {
  RIPPLE_CHECK(pre.size() == grad.size());
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (pre[i] <= 0.0f) grad[i] = 0.0f;
  }
}

void softmax_rows(Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    const float mx = *std::max_element(row.begin(), row.end());
    float sum = 0;
    for (auto& v : row) {
      v = std::exp(v - mx);
      sum += v;
    }
    const float inv = 1.0f / sum;
    for (auto& v : row) v *= inv;
  }
}

std::size_t argmax_row(std::span<const float> row) {
  RIPPLE_CHECK(!row.empty());
  return static_cast<std::size_t>(
      std::max_element(row.begin(), row.end()) - row.begin());
}

float max_abs_diff(const Matrix& a, const Matrix& b) {
  RIPPLE_CHECK_MSG(a.same_shape(b), "shape mismatch " << a.rows() << 'x'
                                                      << a.cols() << " vs "
                                                      << b.rows() << 'x'
                                                      << b.cols());
  float m = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  }
  return m;
}

}  // namespace ripple
