// Exhaustive exactness suite for the SIMD kernel subsystem
// (tensor/kernels.h): every available tier must produce BIT-IDENTICAL
// results to the portable scalar tier — over odd/tail sizes, unaligned
// views, ±0.0, denormals, and NaN payloads — and the packed-panel paths
// must match the unpacked ones bit-for-bit. This is the foundation the
// engines' zero-tolerance embedding exactness rests on.
#include "tensor/kernels.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/ops.h"

namespace ripple {
namespace {

// Restores the process-global dispatch on scope exit (tests toggle it).
struct KernelModeGuard {
  KernelMode saved = kernel_mode();
  ~KernelModeGuard() { set_kernel_mode(saved); }
};

// The odd/tail size axis: everything at-and-around the 4/8/16 lane and
// panel widths, plus the dims the workloads actually use.
const std::vector<std::size_t>& tail_sizes() {
  static const std::vector<std::size_t> sizes = {
      1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 33,
      127, 129};
  return sizes;
}

// Random data with IEEE specials sprinkled at a deterministic cadence:
// ±0, a denormal, quiet NaNs with distinct payloads, and ±infinity.
std::vector<float> special_data(std::size_t n, std::uint64_t seed) {
  static const float kSpecials[] = {
      0.0f,
      -0.0f,
      1e-42f,  // denormal
      std::bit_cast<float>(0x7fc01234u),  // quiet NaN, payload 0x1234
      std::bit_cast<float>(0xffc0beefu),  // negative quiet NaN
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      -1e-40f,  // negative denormal
  };
  Rng rng(seed);
  std::vector<float> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 7 == 3) {
      data[i] = kSpecials[(i / 7) % (sizeof(kSpecials) / sizeof(float))];
    } else {
      data[i] = rng.next_float(-2.0f, 2.0f);
    }
  }
  return data;
}

// Finite-only random data (for cases where a reference tolerance check
// accompanies the bitwise one).
std::vector<float> finite_data(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(n);
  for (auto& v : data) v = rng.next_float(-2.0f, 2.0f);
  return data;
}

// Bitwise equality, except that any NaN matches any NaN: which payload/sign
// survives when several NaN (or invalid-op) operands combine is selected by
// hardware operand order, which the compiler may commute in the scalar tier
// — so the kernels.h contract covers NaN-NESS, not NaN payloads. ±0,
// denormals, and infinities stay exact-bits.
::testing::AssertionResult bits_equal(const float* a, const float* b,
                                      std::size_t n, const char* what) {
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << what << ": bit mismatch at [" << i << "]: "
             << std::bit_cast<std::uint32_t>(a[i]) << " vs "
             << std::bit_cast<std::uint32_t>(b[i]) << " (" << a[i] << " vs "
             << b[i] << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// Non-scalar tiers this build/host can run (empty on a scalar-only host —
// the suite then still pins packed-vs-unpacked and the NaN semantics).
std::vector<const KernelOps*> simd_tiers() {
  std::vector<const KernelOps*> tiers;
  for (const KernelIsa isa : available_kernel_isas()) {
    if (isa == KernelIsa::kScalar) continue;
    tiers.push_back(kernel_ops_for(isa));
  }
  return tiers;
}

TEST(KernelDispatch, ModeParsingAndNames) {
  EXPECT_EQ(parse_kernel_mode("auto"), KernelMode::kAuto);
  EXPECT_EQ(parse_kernel_mode("scalar"), KernelMode::kScalar);
  EXPECT_THROW(parse_kernel_mode("avx512"), check_error);
  EXPECT_STREQ(kernel_mode_name(KernelMode::kAuto), "auto");
  EXPECT_STREQ(kernel_mode_name(KernelMode::kScalar), "scalar");
  EXPECT_STREQ(kernel_isa_name(KernelIsa::kScalar), "scalar");
  EXPECT_STREQ(kernel_isa_name(KernelIsa::kAvx2), "avx2");
  EXPECT_STREQ(kernel_isa_name(KernelIsa::kAvx512), "avx512");
}

TEST(KernelDispatch, ScalarModeForcesScalarTier) {
  KernelModeGuard guard;
  set_kernel_mode(KernelMode::kScalar);
  EXPECT_EQ(active_kernel_isa(), KernelIsa::kScalar);
  EXPECT_EQ(kernel_mode(), KernelMode::kScalar);
  set_kernel_mode(KernelMode::kAuto);
  // Whatever auto picks must be an available tier.
  const auto available = available_kernel_isas();
  EXPECT_NE(std::find(available.begin(), available.end(),
                      active_kernel_isa()),
            available.end());
}

TEST(KernelDispatch, ScalarAlwaysAvailable) {
  const auto available = available_kernel_isas();
  ASSERT_FALSE(available.empty());
  EXPECT_EQ(available.front(), KernelIsa::kScalar);
  ASSERT_NE(kernel_ops_for(KernelIsa::kScalar), nullptr);
  EXPECT_EQ(kernel_ops_for(KernelIsa::kScalar)->isa, KernelIsa::kScalar);
}

TEST(PackedMatrix, PanelLayoutAndPadding) {
  Rng rng(5);
  const auto w = Matrix::random_uniform(3, 21, rng);  // 2 panels, 5-wide tail
  const auto pw = PackedMatrix::pack(w);
  EXPECT_EQ(pw.rows(), 3u);
  EXPECT_EQ(pw.cols(), 21u);
  EXPECT_EQ(pw.num_panels(), 2u);
  constexpr std::size_t kW = PackedMatrix::kPanelWidth;
  for (std::size_t pj = 0; pj < pw.num_panels(); ++pj) {
    const float* panel = pw.panel(pj);
    for (std::size_t p = 0; p < 3; ++p) {
      for (std::size_t lane = 0; lane < kW; ++lane) {
        const std::size_t j = pj * kW + lane;
        const float expect = j < 21 ? w.at(p, j) : 0.0f;
        EXPECT_EQ(panel[p * kW + lane], expect)
            << "panel " << pj << " row " << p << " lane " << lane;
      }
    }
  }
  // Panels are contiguous, each rows x kPanelWidth floats.
  EXPECT_EQ(pw.panel(1) - pw.panel(0), static_cast<std::ptrdiff_t>(3 * kW));
  // The panel base honors the 64-byte data() contract.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(pw.panel(0)) % 64, 0u);
}

TEST(Matrix, DataIs64ByteAligned) {
  for (const std::size_t n : {1u, 3u, 17u, 64u}) {
    Matrix m(n, n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data()) % 64, 0u);
  }
}

TEST(KernelTiers, ElementwiseOpsBitIdenticalWithSpecials) {
  for (const KernelOps* tier : simd_tiers()) {
    SCOPED_TRACE(kernel_isa_name(tier->isa));
    const KernelOps* ref = scalar_kernel_ops();
    for (const std::size_t n : tail_sizes()) {
      const auto src = special_data(n, 100 + n);
      const auto dst0 = special_data(n, 200 + n);

      auto a = dst0, b = dst0;
      ref->vec_add(a.data(), src.data(), n);
      tier->vec_add(b.data(), src.data(), n);
      EXPECT_TRUE(bits_equal(a.data(), b.data(), n, "vec_add"));

      a = dst0; b = dst0;
      ref->vec_sub(a.data(), src.data(), n);
      tier->vec_sub(b.data(), src.data(), n);
      EXPECT_TRUE(bits_equal(a.data(), b.data(), n, "vec_sub"));

      for (const float alpha : {0.0f, -0.0f, 0.75f, -3.0f}) {
        a = dst0; b = dst0;
        ref->vec_axpy(a.data(), alpha, src.data(), n);
        tier->vec_axpy(b.data(), alpha, src.data(), n);
        EXPECT_TRUE(bits_equal(a.data(), b.data(), n, "vec_axpy"));

        a = dst0; b = dst0;
        ref->vec_scale(a.data(), alpha, n);
        tier->vec_scale(b.data(), alpha, n);
        EXPECT_TRUE(bits_equal(a.data(), b.data(), n, "vec_scale"));
      }

      a = dst0; b = dst0;
      ref->relu(a.data(), n);
      tier->relu(b.data(), n);
      EXPECT_TRUE(bits_equal(a.data(), b.data(), n, "relu"));

      const auto d2 = special_data(n, 300 + n);
      const float dot_ref = ref->vec_dot(dst0.data(), d2.data(), n);
      const float dot_tier = tier->vec_dot(dst0.data(), d2.data(), n);
      EXPECT_TRUE(bits_equal(&dot_ref, &dot_tier, 1, "vec_dot"));
    }
  }
}

TEST(KernelTiers, GemvBitIdenticalWithSpecialsAndPacking) {
  const KernelOps* ref = scalar_kernel_ops();
  for (const std::size_t k : tail_sizes()) {
    for (const std::size_t n : tail_sizes()) {
      Matrix w(k, n);
      const auto wdata = special_data(k * n, 7 * k + n);
      std::copy(wdata.begin(), wdata.end(), w.data());
      const auto pw = PackedMatrix::pack(w);
      const auto x = special_data(k, 400 + k);
      const auto y0 = special_data(n, 500 + n);

      auto y_ref = y0;
      ref->gemv_accum(x.data(), k, w.data(), n, y_ref.data(), n);

      // Packed scalar must match unpacked scalar bit-for-bit.
      auto y = y0;
      ref->gemv_accum_packed(x.data(), k, pw, y.data());
      EXPECT_TRUE(
          bits_equal(y_ref.data(), y.data(), n, "scalar packed gemv"));

      for (const KernelOps* tier : simd_tiers()) {
        SCOPED_TRACE(std::string(kernel_isa_name(tier->isa)) + " k=" +
                     std::to_string(k) + " n=" + std::to_string(n));
        y = y0;
        tier->gemv_accum(x.data(), k, w.data(), n, y.data(), n);
        EXPECT_TRUE(bits_equal(y_ref.data(), y.data(), n, "gemv_accum"));
        y = y0;
        tier->gemv_accum_packed(x.data(), k, pw, y.data());
        EXPECT_TRUE(
            bits_equal(y_ref.data(), y.data(), n, "gemv_accum_packed"));
      }
    }
  }
}

TEST(KernelTiers, GemmBitIdenticalAcrossTiersAndRowTails) {
  const KernelOps* ref = scalar_kernel_ops();
  // m sweeps the microkernel row-block tails (MR=4 on AVX2).
  for (const std::size_t m : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u}) {
    for (const std::size_t k : {1u, 3u, 8u, 17u, 33u}) {
      for (const std::size_t n : {1u, 5u, 16u, 17u, 31u, 129u}) {
        Matrix a(m, k);
        const auto adata = special_data(m * k, m + 10 * k);
        std::copy(adata.begin(), adata.end(), a.data());
        Matrix b(k, n);
        const auto bdata = special_data(k * n, k + 10 * n);
        std::copy(bdata.begin(), bdata.end(), b.data());
        const auto pb = PackedMatrix::pack(b);

        Matrix c_ref(m, n, -7.0f);  // poison: every element must be stored
        ref->gemm_packed(a.data(), m, k, k, pb, c_ref.data(), n);
        for (const KernelOps* tier : simd_tiers()) {
          SCOPED_TRACE(std::string(kernel_isa_name(tier->isa)) + " m=" +
                       std::to_string(m) + " k=" + std::to_string(k) +
                       " n=" + std::to_string(n));
          Matrix c(m, n, 3.0f);
          tier->gemm_packed(a.data(), m, k, k, pb, c.data(), n);
          EXPECT_TRUE(
              bits_equal(c_ref.data(), c.data(), m * n, "gemm_packed"));
        }
      }
    }
  }
}

TEST(KernelTiers, GemmMatchesNaiveReferenceOnFiniteData) {
  // Sanity anchor (tolerance-based: the naive loop below is compiled with
  // the test TU's flags, which may contract on -march=native builds).
  const KernelOps* ref = scalar_kernel_ops();
  const std::size_t m = 9, k = 17, n = 31;
  Matrix a(m, k), b(k, n);
  const auto adata = finite_data(m * k, 1);
  const auto bdata = finite_data(k * n, 2);
  std::copy(adata.begin(), adata.end(), a.data());
  std::copy(bdata.begin(), bdata.end(), b.data());
  Matrix c(m, n);
  ref->gemm_packed(a.data(), m, k, k, PackedMatrix::pack(b), c.data(), n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0;
      for (std::size_t p = 0; p < k; ++p) acc += a.at(i, p) * b.at(p, j);
      EXPECT_NEAR(c.at(i, j), acc, 1e-4f);
    }
  }
}

TEST(KernelTiers, UnalignedViewsBitIdentical) {
  // Feed every tier pointers offset one float from the aligned base — the
  // layout of Matrix row views whenever cols % 16 != 0.
  const KernelOps* ref = scalar_kernel_ops();
  const std::size_t n = 67;
  const auto backing_src = special_data(n + 1, 11);
  for (const KernelOps* tier : simd_tiers()) {
    SCOPED_TRACE(kernel_isa_name(tier->isa));
    auto a = special_data(n + 1, 12);
    auto b = a;
    ref->vec_axpy(a.data() + 1, 1.5f, backing_src.data() + 1, n);
    tier->vec_axpy(b.data() + 1, 1.5f, backing_src.data() + 1, n);
    EXPECT_TRUE(bits_equal(a.data(), b.data(), n + 1, "unaligned axpy"));

    Matrix w(n, n);
    const auto wdata = special_data(n * n, 13);
    std::copy(wdata.begin(), wdata.end(), w.data());
    auto y_ref = special_data(n + 1, 14);
    auto y = y_ref;
    ref->gemv_accum(backing_src.data() + 1, n, w.data(), n, y_ref.data() + 1,
                    n);
    tier->gemv_accum(backing_src.data() + 1, n, w.data(), n, y.data() + 1, n);
    EXPECT_TRUE(bits_equal(y_ref.data(), y.data(), n + 1, "unaligned gemv"));
  }
}

TEST(KernelTiers, NaNPropagatesThroughZeroMultiplicands) {
  // Regression for the old `if (x == 0.0f) continue;` zero-skip: 0 * NaN
  // must stay NaN and 0 * Inf must produce NaN, in every tier and through
  // the public ops.h entry points.
  const float qnan = std::bit_cast<float>(0x7fc00042u);
  const float inf = std::numeric_limits<float>::infinity();

  // gemv: x = 0 at the NaN/Inf rows of W.
  Matrix w(3, 5, 1.0f);
  w.at(1, 2) = qnan;
  w.at(2, 4) = inf;
  const std::vector<float> x = {1.0f, 0.0f, 0.0f};
  for (const KernelIsa isa : available_kernel_isas()) {
    const KernelOps* tier = kernel_ops_for(isa);
    std::vector<float> y(5, 0.0f);
    tier->gemv_accum(x.data(), 3, w.data(), 5, y.data(), 5);
    EXPECT_TRUE(std::isnan(y[2])) << kernel_isa_name(isa) << ": 0*NaN";
    EXPECT_TRUE(std::isnan(y[4])) << kernel_isa_name(isa) << ": 0*Inf";
    EXPECT_FLOAT_EQ(y[0], 1.0f);
  }

  // Public gemm: row of zeros times a NaN-carrying B column.
  Matrix a(2, 3, 0.0f);
  a.at(0, 0) = 1.0f;
  Matrix c;
  gemm(a, w, c);
  EXPECT_TRUE(std::isnan(c.at(1, 2)));
  EXPECT_TRUE(std::isnan(c.at(1, 4)));

  // gemm_at_b lost its zero-skip too.
  Matrix at(2, 2, 0.0f);
  Matrix bt(2, 2);
  bt.at(0, 0) = qnan;
  Matrix ct;
  gemm_at_b(at, bt, ct);
  EXPECT_TRUE(std::isnan(ct.at(0, 0)));
}

TEST(KernelTiers, ReluMapsNegativeZeroAndNaNToPositiveZero) {
  for (const KernelIsa isa : available_kernel_isas()) {
    const KernelOps* tier = kernel_ops_for(isa);
    std::vector<float> v = {-0.0f, 0.0f, -1.0f, 2.0f,
                            std::bit_cast<float>(0x7fc00001u), -2.0f, 3.0f,
                            -0.0f, 1.0f};
    tier->relu(v.data(), v.size());
    for (const float r : {v[0], v[1], v[4], v[7]}) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(r), 0u) << kernel_isa_name(isa);
    }
    EXPECT_FLOAT_EQ(v[3], 2.0f);
    EXPECT_FLOAT_EQ(v[2], 0.0f);
  }
}

TEST(KernelTiers, DenormalsSurviveBitExact) {
  const KernelOps* ref = scalar_kernel_ops();
  const std::size_t n = 33;
  std::vector<float> denorm(n);
  for (std::size_t i = 0; i < n; ++i) {
    denorm[i] = std::bit_cast<float>(static_cast<std::uint32_t>(1 + i * 37));
    EXPECT_TRUE(std::fpclassify(denorm[i]) == FP_SUBNORMAL);
  }
  for (const KernelOps* tier : simd_tiers()) {
    auto a = denorm, b = denorm;
    ref->vec_axpy(a.data(), 0.5f, denorm.data(), n);
    tier->vec_axpy(b.data(), 0.5f, denorm.data(), n);
    EXPECT_TRUE(bits_equal(a.data(), b.data(), n, "denormal axpy"));
  }
}

TEST(PublicOps, ScalarVsAutoModeBitIdentical) {
  // The --kernels=scalar vs --kernels=auto contract at the ops.h level,
  // including the threaded and pre-packed gemm paths.
  KernelModeGuard guard;
  Rng rng(21);
  const auto a = Matrix::random_uniform(300, 33, rng);
  const auto b = Matrix::random_uniform(33, 31, rng);
  const auto pb = PackedMatrix::pack(b);
  ThreadPool pool(3);

  set_kernel_mode(KernelMode::kScalar);
  Matrix c_scalar;
  gemm(a, b, c_scalar);
  Matrix c_scalar_pool;
  gemm(a, b, c_scalar_pool, &pool);

  set_kernel_mode(KernelMode::kAuto);
  Matrix c_auto;
  gemm(a, b, c_auto);
  Matrix c_auto_packed;
  gemm(a, pb, c_auto_packed);
  Matrix c_auto_pool;
  gemm(a, b, c_auto_pool, &pool);

  EXPECT_TRUE(bits_equal(c_scalar.data(), c_auto.data(), c_scalar.size(),
                         "gemm scalar vs auto"));
  EXPECT_TRUE(bits_equal(c_scalar.data(), c_auto_packed.data(),
                         c_scalar.size(), "gemm scalar vs auto packed"));
  EXPECT_TRUE(bits_equal(c_scalar.data(), c_scalar_pool.data(),
                         c_scalar.size(), "gemm serial vs pool (scalar)"));
  EXPECT_TRUE(bits_equal(c_scalar.data(), c_auto_pool.data(), c_scalar.size(),
                         "gemm scalar vs auto pool"));

  std::vector<float> x(33);
  const auto xdata = special_data(33, 22);
  std::copy(xdata.begin(), xdata.end(), x.begin());
  std::vector<float> y_scalar(31), y_auto(31), y_auto_packed(31);
  set_kernel_mode(KernelMode::kScalar);
  gemv_row(x, b, y_scalar);
  set_kernel_mode(KernelMode::kAuto);
  gemv_row(x, b, y_auto);
  gemv_row(x, pb, y_auto_packed);
  EXPECT_TRUE(bits_equal(y_scalar.data(), y_auto.data(), 31,
                         "gemv scalar vs auto"));
  EXPECT_TRUE(bits_equal(y_scalar.data(), y_auto_packed.data(), 31,
                         "gemv scalar vs auto packed"));
}

}  // namespace
}  // namespace ripple
