#include "tensor/ops.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/scheduler.h"
#include "common/thread_pool.h"

namespace ripple {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  return Matrix::random_uniform(r, c, rng);
}

// Reference triple-loop GEMM.
Matrix gemm_reference(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0;
      for (std::size_t p = 0; p < a.cols(); ++p) {
        acc += a.at(i, p) * b.at(p, j);
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

TEST(Ops, GemmMatchesReference) {
  const auto a = random_matrix(7, 5, 1);
  const auto b = random_matrix(5, 9, 2);
  Matrix c;
  gemm(a, b, c);
  EXPECT_LT(max_abs_diff(c, gemm_reference(a, b)), 1e-5f);
}

TEST(Ops, GemmThreadedMatchesSerial) {
  const auto a = random_matrix(300, 40, 3);
  const auto b = random_matrix(40, 30, 4);
  Matrix serial;
  gemm(a, b, serial);
  ThreadPool pool(4);
  WorkStealingScheduler scheduler(&pool);
  Matrix threaded;
  gemm(a, b, threaded, &scheduler);
  EXPECT_LT(max_abs_diff(serial, threaded), 1e-6f);
}

TEST(Ops, GemmShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(4, 2);
  Matrix c;
  EXPECT_THROW(gemm(a, b, c), check_error);
}

TEST(Ops, GemmAtB) {
  const auto a = random_matrix(6, 4, 5);
  const auto b = random_matrix(6, 3, 6);
  Matrix c;
  gemm_at_b(a, b, c);
  // Reference: c[i][j] = sum_p a[p][i] * b[p][j].
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      float acc = 0;
      for (std::size_t p = 0; p < 6; ++p) acc += a.at(p, i) * b.at(p, j);
      EXPECT_NEAR(c.at(i, j), acc, 1e-5f);
    }
  }
}

TEST(Ops, GemmABt) {
  const auto a = random_matrix(5, 4, 7);
  const auto b = random_matrix(6, 4, 8);
  Matrix c;
  gemm_a_bt(a, b, c);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      float acc = 0;
      for (std::size_t p = 0; p < 4; ++p) acc += a.at(i, p) * b.at(j, p);
      EXPECT_NEAR(c.at(i, j), acc, 1e-5f);
    }
  }
}

TEST(Ops, GemvRowMatchesGemm) {
  const auto x = random_matrix(1, 8, 9);
  const auto w = random_matrix(8, 6, 10);
  Matrix expect;
  gemm(x, w, expect);
  std::vector<float> y(6);
  gemv_row(x.row(0), w, y);
  for (std::size_t j = 0; j < 6; ++j) {
    EXPECT_NEAR(y[j], expect.at(0, j), 1e-5f);
  }
}

TEST(Ops, VectorPrimitives) {
  std::vector<float> a = {1, 2, 3};
  std::vector<float> b = {10, 20, 30};
  vec_add(a, b);
  EXPECT_FLOAT_EQ(a[2], 33.0f);
  vec_sub(a, b);
  EXPECT_FLOAT_EQ(a[2], 3.0f);
  vec_axpy(a, 2.0f, b);
  EXPECT_FLOAT_EQ(a[0], 21.0f);
  vec_scale(a, 0.5f);
  EXPECT_FLOAT_EQ(a[0], 10.5f);
  std::vector<float> c(3);
  vec_copy(a, c);
  EXPECT_FLOAT_EQ(c[0], 10.5f);
  vec_fill(c, 0.0f);
  EXPECT_FLOAT_EQ(vec_l2(c), 0.0f);
}

TEST(Ops, VecDotAndLinf) {
  const std::vector<float> a = {1, 0, 2};
  const std::vector<float> b = {3, 4, 5};
  EXPECT_FLOAT_EQ(vec_dot(a, b), 13.0f);
  EXPECT_FLOAT_EQ(vec_linf_diff(a, b), 4.0f);
}

TEST(Ops, ReluClampsNegatives) {
  Matrix m = Matrix::from_rows(1, 4, {-1.0f, 0.0f, 2.0f, -3.0f});
  relu_inplace(m);
  EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(m.at(0, 2), 2.0f);
  EXPECT_FLOAT_EQ(m.at(0, 3), 0.0f);
}

TEST(Ops, ReluBackwardMasksByPreActivation) {
  const std::vector<float> pre = {-1.0f, 0.5f, 0.0f};
  std::vector<float> grad = {10.0f, 10.0f, 10.0f};
  relu_backward_row(pre, grad);
  EXPECT_FLOAT_EQ(grad[0], 0.0f);
  EXPECT_FLOAT_EQ(grad[1], 10.0f);
  EXPECT_FLOAT_EQ(grad[2], 0.0f);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  auto m = random_matrix(4, 7, 13);
  softmax_rows(m);
  for (std::size_t r = 0; r < 4; ++r) {
    float sum = 0;
    for (std::size_t c = 0; c < 7; ++c) {
      EXPECT_GT(m.at(r, c), 0.0f);
      sum += m.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Ops, ArgmaxRow) {
  const std::vector<float> row = {0.1f, 5.0f, -2.0f, 4.9f};
  EXPECT_EQ(argmax_row(row), 1u);
}

TEST(Ops, AddBiasRows) {
  Matrix m(2, 3, 1.0f);
  const Matrix bias = Matrix::from_rows(1, 3, {1, 2, 3});
  add_bias_rows(m, bias);
  EXPECT_FLOAT_EQ(m.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(m.at(1, 2), 4.0f);
}

TEST(Ops, MaxAbsDiffDetectsChange) {
  Matrix a(2, 2, 1.0f);
  Matrix b(2, 2, 1.0f);
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.0f);
  b.at(1, 1) = 3.0f;
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 2.0f);
}

TEST(Ops, GemmPackCacheHitsOnRepeatMissesOnMutation) {
  gemm_pack_cache_reset();
  const auto a = random_matrix(7, 5, 20);
  auto b = random_matrix(5, 9, 21);
  Matrix c;

  gemm(a, b, c);
  auto stats = gemm_pack_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);

  // Identical B (same pointer, same bits): served from the cache.
  gemm(a, b, c);
  stats = gemm_pack_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);

  // In-place mutation keeps the pointer and shape but changes the content
  // hash: must repack, and the result must reflect the NEW weights.
  b.at(0, 0) += 2.0f;
  b.at(4, 8) = -1.25f;
  gemm(a, b, c);
  stats = gemm_pack_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_LT(max_abs_diff(c, gemm_reference(a, b)), 1e-5f);

  // The mutated B is now cached under its new hash.
  gemm(a, b, c);
  EXPECT_EQ(gemm_pack_cache_stats().hits, 2u);
}

TEST(Ops, GemmPackCacheHoldsSeveralMatrices) {
  gemm_pack_cache_reset();
  const auto a = random_matrix(6, 4, 22);
  const auto b1 = random_matrix(4, 7, 23);
  const auto b2 = random_matrix(4, 7, 24);
  const auto b3 = random_matrix(4, 11, 25);
  Matrix c;
  // Alternating B operands must not thrash: each gets its own LRU slot.
  for (int round = 0; round < 3; ++round) {
    gemm(a, b1, c);
    gemm(a, b2, c);
    gemm(a, b3, c);
  }
  const auto stats = gemm_pack_cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 6u);
  EXPECT_LT(max_abs_diff(c, gemm_reference(a, b3)), 1e-5f);
}

TEST(Ops, GemmParallelLargePathBypassesPackCache) {
  gemm_pack_cache_reset();
  const auto a = random_matrix(300, 40, 26);
  const auto b = random_matrix(40, 30, 27);
  ThreadPool pool(3);
  WorkStealingScheduler scheduler(&pool);
  Matrix threaded;
  gemm(a, b, threaded, &scheduler);
  // The >=128-row pooled path packs into a call-local PackedMatrix (cached
  // entries could be clobbered by stolen unrelated tasks), so the cache
  // sees no traffic at all.
  const auto stats = gemm_pack_cache_stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 0u);
  Matrix serial;
  gemm(a, b, serial);
  EXPECT_FLOAT_EQ(max_abs_diff(serial, threaded), 0.0f);
  EXPECT_EQ(gemm_pack_cache_stats().misses, 1u);
}

TEST(Ops, MaxAbsDiffShapeMismatchThrows) {
  Matrix a(2, 2);
  Matrix b(2, 3);
  EXPECT_THROW(max_abs_diff(a, b), check_error);
}

}  // namespace
}  // namespace ripple
