// Exhaustive exactness suite for the SIMD kernel subsystem
// (tensor/kernels.h): every available tier must produce BIT-IDENTICAL
// results to the portable scalar tier — over odd/tail sizes, unaligned
// views, ±0.0, denormals, and NaN payloads — and the packed-panel paths
// must match the unpacked ones bit-for-bit. This is the foundation the
// engines' zero-tolerance embedding exactness rests on.
#include "tensor/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/scheduler.h"
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

// Every tier this build and host can run, scalar first.
std::vector<const KernelOps*> all_tiers() {
  std::vector<const KernelOps*> tiers;
  for (const KernelIsa isa : available_kernel_isas()) {
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

// axpy_rows keeps the cell in registers across its rows but must round
// exactly like one vec_axpy call per row, in row-list order — on every tier
// and against the scalar reference. Rows repeat and ld exceeds n, so a
// row's tail is never read as the next row's head. Finite data pins the
// order (any reordering changes the rounding); the specials pass puts ±0,
// NaN and ±inf in the sources and alphas.
TEST(KernelTiers, AxpyRowsEqualsRepeatedAxpy) {
  static const float kSpecialAlphas[] = {
      -0.0f, 0.0f, std::numeric_limits<float>::infinity(),
      std::bit_cast<float>(0x7fc01234u)};
  const std::vector<const KernelOps*> tiers = all_tiers();
  for (const bool specials : {false, true}) {
    for (const std::size_t n : {1u, 15u, 16u, 17u, 63u, 64u, 65u, 130u}) {
      const std::size_t ld = n + 3;
      constexpr std::size_t kBaseRows = 9;
      const auto base = specials ? special_data(kBaseRows * ld, 400 + n)
                                 : finite_data(kBaseRows * ld, 400 + n);
      const auto dst0 =
          specials ? special_data(n, 500 + n) : finite_data(n, 500 + n);
      for (const std::size_t count : {0u, 1u, 23u}) {
        std::vector<std::uint32_t> rows(count);
        std::vector<float> alphas(count);
        Rng rng(600 + n + count);
        for (std::size_t i = 0; i < count; ++i) {
          // Row 4 appears at least twice in the 23-row list.
          rows[i] = i % 5 == 0 ? 4u
                               : static_cast<std::uint32_t>(
                                     rng.next_below(kBaseRows));
          alphas[i] = rng.next_float(-2.0f, 2.0f);
        }
        if (specials && count > 1) {
          // One special alpha per call, so NaN/inf reach some checks
          // without masking every element of the rest.
          alphas[count / 2] = kSpecialAlphas[n % std::size(kSpecialAlphas)];
        }
        auto reference = dst0;
        for (std::size_t i = 0; i < count; ++i) {
          scalar_kernel_ops()->vec_axpy(reference.data(), alphas[i],
                                        base.data() + rows[i] * ld, n);
        }
        for (const KernelOps* tier : tiers) {
          SCOPED_TRACE(::testing::Message()
                       << kernel_isa_name(tier->isa) << " n=" << n
                       << " count=" << count << " specials=" << specials);
          auto repeated = dst0;
          for (std::size_t i = 0; i < count; ++i) {
            tier->vec_axpy(repeated.data(), alphas[i],
                           base.data() + rows[i] * ld, n);
          }
          auto gathered = dst0;
          tier->axpy_rows(gathered.data(), n, base.data(), ld, rows.data(),
                          alphas.data(), count);
          EXPECT_TRUE(
              bits_equal(repeated.data(), gathered.data(), n, "axpy_rows"));
          EXPECT_TRUE(bits_equal(reference.data(), gathered.data(), n,
                                 "axpy_rows vs scalar"));
        }
      }
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

// ---- the fused chain, pinned per tier ----
// The cross-tier tests above would still pass if every tier used mul + add.
// These compare each tier against std::fmaf chains written out here, on
// operands where fused and unfused results differ.

// a = b = 1 + 2^-12 and c = -(1 + 2^-11): a·b = 1 + 2^-11 + 2^-24 rounds
// to 1 + 2^-11 before the add, so mul + add gives 0, while fma(a, b, c)
// keeps the 2^-24.
constexpr float kFuseA = 1.0f + 0x1p-12f;
constexpr float kFuseC = -(1.0f + 0x1p-11f);

TEST(FusedChain, WitnessOperandsSeparateFusedFromUnfused) {
  volatile float product = kFuseA * kFuseA;  // rounded on its own
  EXPECT_EQ(product + kFuseC, 0.0f);
  EXPECT_EQ(std::fmaf(kFuseA, kFuseA, kFuseC), 0x1p-24f);
}

// Random finite data with `planted` at every third position. Callers
// plant kFuseA in the sources and kFuseC in the accumulator starts, so
// those elements carry the witness.
std::vector<float> fused_witness_data(std::size_t n, std::uint64_t seed,
                                      float planted) {
  auto data = finite_data(n, seed);
  for (std::size_t i = 0; i < n; i += 3) data[i] = planted;
  return data;
}

TEST(FusedChain, AxpyAndAxpyRowsAreOneFmaPerTerm) {
  for (const KernelOps* tier : all_tiers()) {
    for (const std::size_t n : {1u, 7u, 16u, 37u, 64u, 65u}) {
      SCOPED_TRACE(::testing::Message()
                   << kernel_isa_name(tier->isa) << " n=" << n);
      const auto src = fused_witness_data(n, 700 + n, kFuseA);
      const auto dst0 = fused_witness_data(n, 800 + n, kFuseC);
      auto expect = dst0;
      for (std::size_t i = 0; i < n; ++i) {
        expect[i] = std::fmaf(kFuseA, src[i], expect[i]);
      }
      EXPECT_EQ(expect[0], 0x1p-24f);
      auto got = dst0;
      tier->vec_axpy(got.data(), kFuseA, src.data(), n);
      EXPECT_TRUE(bits_equal(expect.data(), got.data(), n, "vec_axpy"));

      // Three rows of a base block, the first planted with the witness.
      const std::size_t ld = n + 1;
      auto base = finite_data(3 * ld, 900 + n);
      std::copy(src.begin(), src.end(), base.begin());
      const std::uint32_t rows[] = {0, 2, 1, 0};
      const float alphas[] = {kFuseA, -0.75f, 1.25f, 0.5f};
      expect = dst0;
      for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t i = 0; i < n; ++i) {
          expect[i] =
              std::fmaf(alphas[r], base[rows[r] * ld + i], expect[i]);
        }
      }
      got = dst0;
      tier->axpy_rows(got.data(), n, base.data(), ld, rows, alphas, 4);
      EXPECT_TRUE(bits_equal(expect.data(), got.data(), n, "axpy_rows"));
    }
  }
}

TEST(FusedChain, DotIsTheCanonicalFmaLaneSplit) {
  for (const KernelOps* tier : all_tiers()) {
    for (const std::size_t n : {1u, 8u, 19u, 40u, 67u}) {
      SCOPED_TRACE(::testing::Message()
                   << kernel_isa_name(tier->isa) << " n=" << n);
      // Lane sums start with -(1 + 2^-11) · 1 and then take the witness.
      std::vector<float> a = finite_data(n, 1000 + n);
      std::vector<float> b = finite_data(n, 1100 + n);
      for (std::size_t i = 0; i < n; ++i) {
        if (i < 8) {
          a[i] = kFuseC;
          b[i] = 1.0f;
        } else if (i < 16) {
          a[i] = kFuseA;
          b[i] = kFuseA;
        }
      }
      float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
      for (std::size_t i = 0; i < n; ++i) {
        lanes[i % 8] = std::fmaf(a[i], b[i], lanes[i % 8]);
      }
      const float expect = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6])) +
                           ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
      const float got = tier->vec_dot(a.data(), b.data(), n);
      EXPECT_TRUE(bits_equal(&expect, &got, 1, "vec_dot"));
    }
  }
}

TEST(FusedChain, GemvAndGemmAreAscendingFmaChains) {
  for (const KernelOps* tier : all_tiers()) {
    for (const std::size_t k : {1u, 2u, 9u}) {
      for (const std::size_t n : {1u, 16u, 17u, 40u, 64u}) {
        SCOPED_TRACE(::testing::Message() << kernel_isa_name(tier->isa)
                                          << " k=" << k << " n=" << n);
        // Row 0 of W and x[0] carry the witness against y0 = kFuseC.
        Matrix w(k, n);
        const auto wdata = finite_data(k * n, 1200 + 10 * k + n);
        std::copy(wdata.begin(), wdata.end(), w.data());
        for (std::size_t j = 0; j < n; ++j) w.at(0, j) = kFuseA;
        const auto pw = PackedMatrix::pack(w);
        auto x = finite_data(k, 1300 + k);
        x[0] = kFuseA;
        const auto y0 = fused_witness_data(n, 1400 + n, kFuseC);

        auto expect = y0;
        for (std::size_t p = 0; p < k; ++p) {
          for (std::size_t j = 0; j < n; ++j) {
            expect[j] = std::fmaf(x[p], w.at(p, j), expect[j]);
          }
        }
        auto got = y0;
        tier->gemv_accum(x.data(), k, w.data(), n, got.data(), n);
        EXPECT_TRUE(bits_equal(expect.data(), got.data(), n, "gemv_accum"));
        got = y0;
        tier->gemv_accum_packed(x.data(), k, pw, got.data());
        EXPECT_TRUE(
            bits_equal(expect.data(), got.data(), n, "gemv_accum_packed"));

        // GEMM chains start from 0, so the witness needs a first term
        // that sets up kFuseC: a[i][0] = 1 against a B row of kFuseC,
        // then a[i][1] = kFuseA against a B row of kFuseA.
        const std::size_t m = 13;  // two 6-row tiles and a 1-row tail
        const std::size_t kk = k + 1;
        Matrix a(m, kk);
        const auto adata = finite_data(m * kk, 1500 + kk);
        std::copy(adata.begin(), adata.end(), a.data());
        Matrix b(kk, n);
        const auto bdata = finite_data(kk * n, 1600 + kk + n);
        std::copy(bdata.begin(), bdata.end(), b.data());
        for (std::size_t i = 0; i < m; ++i) {
          a.at(i, 0) = 1.0f;
          a.at(i, 1) = kFuseA;
        }
        for (std::size_t j = 0; j < n; ++j) {
          b.at(0, j) = kFuseC;
          b.at(1, j) = kFuseA;
        }
        Matrix c_expect(m, n);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (std::size_t p = 0; p < kk; ++p) {
              acc = std::fmaf(a.at(i, p), b.at(p, j), acc);
            }
            c_expect.at(i, j) = acc;
          }
        }
        if (kk == 2) EXPECT_EQ(c_expect.at(0, 0), 0x1p-24f);
        Matrix c(m, n, -7.0f);
        tier->gemm_packed(a.data(), m, kk, kk, PackedMatrix::pack(b),
                          c.data(), n);
        EXPECT_TRUE(
            bits_equal(c_expect.data(), c.data(), m * n, "gemm_packed"));
      }
    }
  }
}

// ---- argmax ----

// Rows that stress the vector max + first-equal search against
// std::max_element: ties, ±0, ±inf, denormals, and NaN at the front, in
// the middle and at the back.
std::vector<std::vector<float>> argmax_rows(std::size_t n, std::uint64_t seed) {
  const float inf = std::numeric_limits<float>::infinity();
  const float qnan = std::bit_cast<float>(0x7fc00077u);
  const float denorm = std::bit_cast<float>(0x00000005u);
  Rng rng(seed);
  std::vector<std::vector<float>> rows;
  const auto random_row = [&] {
    std::vector<float> row(n);
    for (float& v : row) v = rng.next_float(-3.0f, 3.0f);
    return row;
  };
  rows.push_back(random_row());
  auto tied = random_row();  // the max appears twice: first index wins
  tied[n / 3] = 9.0f;
  tied[n - 1] = 9.0f;
  rows.push_back(tied);
  rows.push_back(std::vector<float>(n, -0.0f));
  auto zeros = std::vector<float>(n, -1.0f);  // -0 before +0: equal
  zeros[n / 2] = -0.0f;
  zeros[n - 1] = 0.0f;
  rows.push_back(zeros);
  rows.push_back(std::vector<float>(n, -inf));
  auto pos_inf = random_row();
  pos_inf[n - 1] = inf;
  rows.push_back(pos_inf);
  auto neg = std::vector<float>(n, -inf);
  neg[n / 2] = -denorm;
  rows.push_back(neg);
  auto denorms = std::vector<float>(n, 0.0f);
  denorms[(n * 2) / 3] = denorm;
  rows.push_back(denorms);
  for (const std::size_t at : {std::size_t{0}, n / 2, n - 1}) {
    auto with_nan = random_row();
    with_nan[at] = qnan;
    rows.push_back(with_nan);
    with_nan[n / 4] = inf;  // a NaN next to an inf
    rows.push_back(with_nan);
  }
  rows.push_back(std::vector<float>(n, qnan));
  return rows;
}

TEST(Argmax, EqualsMaxElementInEveryTier) {
  for (const KernelOps* tier : all_tiers()) {
    for (std::size_t n = 1; n <= 70; ++n) {
      for (const auto& row : argmax_rows(n, 1700 + n)) {
        // One float of offset: the unaligned view of a row whose width is
        // not a multiple of 16.
        for (const std::size_t offset : {0u, 1u}) {
          std::vector<float> backing(offset, 5.0f);
          backing.insert(backing.end(), row.begin(), row.end());
          const float* p = backing.data() + offset;
          const auto expect =
              static_cast<std::size_t>(std::max_element(p, p + n) - p);
          EXPECT_EQ(tier->argmax(p, n), expect)
              << kernel_isa_name(tier->isa) << " n=" << n
              << " offset=" << offset;
        }
      }
    }
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
  WorkStealingScheduler scheduler(&pool);

  set_kernel_mode(KernelMode::kScalar);
  Matrix c_scalar;
  gemm(a, b, c_scalar);
  Matrix c_scalar_pool;
  gemm(a, b, c_scalar_pool, &scheduler);

  set_kernel_mode(KernelMode::kAuto);
  Matrix c_auto;
  gemm(a, b, c_auto);
  Matrix c_auto_packed;
  gemm(a, pb, c_auto_packed);
  Matrix c_auto_pool;
  gemm(a, b, c_auto_pool, &scheduler);

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
