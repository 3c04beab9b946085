#include "gnn/layers.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/rng.h"
#include "tensor/ops.h"

namespace ripple {
namespace {

TEST(Layers, KindNames) {
  EXPECT_STREQ(layer_kind_name(LayerKind::graph_conv), "graph_conv");
  EXPECT_STREQ(layer_kind_name(LayerKind::sage), "sage");
  EXPECT_STREQ(layer_kind_name(LayerKind::gin), "gin");
}

TEST(Layers, GraphConvIgnoresSelf) {
  Rng rng(1);
  const auto layer = GnnLayer::random(LayerKind::graph_conv, 4, 3, rng);
  EXPECT_FALSE(layer.uses_self());
  const std::vector<float> x = {1, 2, 3, 4};
  const std::vector<float> self_a = {9, 9, 9, 9};
  const std::vector<float> self_b = {0, 0, 0, 0};
  std::vector<float> out_a(3);
  std::vector<float> out_b(3);
  layer.update_row(self_a, x, out_a);
  layer.update_row(self_b, x, out_b);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(out_a[j], out_b[j]);
}

TEST(Layers, SageUsesSelfTerm) {
  Rng rng(2);
  const auto layer = GnnLayer::random(LayerKind::sage, 4, 3, rng);
  EXPECT_TRUE(layer.uses_self());
  const std::vector<float> x = {1, 2, 3, 4};
  const std::vector<float> self_a = {1, 0, 0, 0};
  const std::vector<float> self_b = {0, 1, 0, 0};
  std::vector<float> out_a(3);
  std::vector<float> out_b(3);
  layer.update_row(self_a, x, out_a);
  layer.update_row(self_b, x, out_b);
  float diff = 0;
  for (std::size_t j = 0; j < 3; ++j) diff += std::abs(out_a[j] - out_b[j]);
  EXPECT_GT(diff, 1e-6f);
}

TEST(Layers, GinUsesSelfTerm) {
  Rng rng(3);
  const auto layer = GnnLayer::random(LayerKind::gin, 4, 3, rng);
  EXPECT_TRUE(layer.uses_self());
}

TEST(Layers, GraphConvLinearInAggregate) {
  Rng rng(4);
  const auto layer = GnnLayer::random(LayerKind::graph_conv, 5, 4, rng);
  const std::vector<float> self(5, 0.0f);
  std::vector<float> x1 = {1, 2, 3, 4, 5};
  std::vector<float> x2 = {5, 4, 3, 2, 1};
  std::vector<float> x_sum(5);
  for (std::size_t j = 0; j < 5; ++j) x_sum[j] = x1[j] + x2[j];
  std::vector<float> y1(4);
  std::vector<float> y2(4);
  std::vector<float> y_sum(4);
  std::vector<float> zero(5, 0.0f);
  std::vector<float> y_zero(4);
  layer.update_row(self, x1, y1);
  layer.update_row(self, x2, y2);
  layer.update_row(self, x_sum, y_sum);
  layer.update_row(self, zero, y_zero);
  // Affine: U(x1 + x2) = U(x1) + U(x2) - U(0)   (bias counted once).
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(y_sum[j], y1[j] + y2[j] - y_zero[j], 1e-4f);
  }
}

TEST(Layers, UpdateMatrixMatchesUpdateRow) {
  Rng rng(5);
  for (auto kind : {LayerKind::graph_conv, LayerKind::sage, LayerKind::gin}) {
    const auto layer = GnnLayer::random(kind, 6, 4, rng);
    const auto h_prev = Matrix::random_uniform(9, 6, rng);
    const auto x_agg = Matrix::random_uniform(9, 6, rng);
    Matrix batch_out;
    layer.update_matrix(h_prev, x_agg, batch_out);
    std::vector<float> row_out(4);
    for (std::size_t r = 0; r < 9; ++r) {
      layer.update_row(h_prev.row(r), x_agg.row(r), row_out);
      for (std::size_t j = 0; j < 4; ++j) {
        EXPECT_NEAR(batch_out.at(r, j), row_out[j], 1e-4f)
            << layer_kind_name(kind) << " row " << r;
      }
    }
  }
}

TEST(Layers, DimsValidated) {
  Rng rng(6);
  const auto layer = GnnLayer::random(LayerKind::graph_conv, 4, 3, rng);
  std::vector<float> bad_x(5);
  std::vector<float> out(3);
  EXPECT_THROW(layer.update_row({}, bad_x, out), check_error);
}

TEST(Layers, NumParametersCounts) {
  Rng rng(7);
  const auto gc = GnnLayer::random(LayerKind::graph_conv, 4, 3, rng);
  EXPECT_EQ(gc.num_parameters(), 4u * 3u + 3u);
  const auto sage = GnnLayer::random(LayerKind::sage, 4, 3, rng);
  EXPECT_EQ(sage.num_parameters(), 2u * 4u * 3u + 3u);
  const auto gin = GnnLayer::random(LayerKind::gin, 4, 3, rng);
  // w1: 4x3, b1: 3, w2: 3x3, b2: 3, eps: 1.
  EXPECT_EQ(gin.num_parameters(), 12u + 3u + 9u + 3u + 1u);
}

TEST(Layers, PackedWeightCacheBitIdenticalToUnpacked) {
  // Layers pack their weights at construction; mutable_params() staleness
  // must fall back to the unpacked kernels with BIT-identical outputs, and
  // repack() must restore the fast path — again bit-identical.
  Rng rng(9);
  for (auto kind : {LayerKind::graph_conv, LayerKind::sage, LayerKind::gin}) {
    auto layer = GnnLayer::random(kind, 13, 7, rng);  // odd dims: panel tails
    EXPECT_TRUE(layer.has_packed_weights()) << layer_kind_name(kind);
    const auto h_prev = Matrix::random_uniform(5, 13, rng);
    const auto x_agg = Matrix::random_uniform(5, 13, rng);

    Matrix packed_out;
    layer.update_matrix(h_prev, x_agg, packed_out);
    std::vector<float> packed_row(7);
    layer.update_row(h_prev.row(0), x_agg.row(0), packed_row);

    (void)layer.mutable_params();  // invalidates, mutates nothing
    EXPECT_FALSE(layer.has_packed_weights());
    Matrix unpacked_out;
    layer.update_matrix(h_prev, x_agg, unpacked_out);
    std::vector<float> unpacked_row(7);
    layer.update_row(h_prev.row(0), x_agg.row(0), unpacked_row);

    ASSERT_TRUE(packed_out.same_shape(unpacked_out));
    for (std::size_t i = 0; i < packed_out.size(); ++i) {
      ASSERT_EQ(packed_out.data()[i], unpacked_out.data()[i])
          << layer_kind_name(kind) << " flat index " << i;
    }
    for (std::size_t j = 0; j < 7; ++j) {
      ASSERT_EQ(packed_row[j], unpacked_row[j]) << layer_kind_name(kind);
    }

    layer.repack();
    EXPECT_TRUE(layer.has_packed_weights());
    Matrix repacked_out;
    layer.update_matrix(h_prev, x_agg, repacked_out);
    for (std::size_t i = 0; i < packed_out.size(); ++i) {
      ASSERT_EQ(packed_out.data()[i], repacked_out.data()[i]);
    }
  }
}

// update_row must be one row of update_matrix bit for bit, the bias
// included: GnnLayer::random zeroes biases, so they are filled here, and
// GIN gets a nonzero eps.
TEST(Layers, UpdateRowIsOneRowOfUpdateMatrixWithBiases) {
  Rng rng(10);
  for (auto kind : {LayerKind::graph_conv, LayerKind::sage, LayerKind::gin}) {
    auto layer = GnnLayer::random(kind, 13, 7, rng, 11);
    const auto fill = [&](Matrix& bias) {
      for (float& b : bias.row(0)) b = rng.next_float(-1.0f, 1.0f);
    };
    auto& params = layer.mutable_params();
    if (auto* gc = std::get_if<GraphConvParams>(&params)) {
      fill(gc->bias);
    } else if (auto* sage = std::get_if<SageParams>(&params)) {
      fill(sage->bias);
    } else {
      auto& gin = std::get<GinParams>(params);
      gin.eps = 0.375f;
      fill(gin.b1);
      fill(gin.b2);
    }
    const auto h_prev = Matrix::random_uniform(9, 13, rng);
    const auto x_agg = Matrix::random_uniform(9, 13, rng);
    for (const bool packed : {false, true}) {
      if (packed) layer.repack();
      Matrix batch_out;
      layer.update_matrix(h_prev, x_agg, batch_out);
      std::vector<float> row_out(7);
      for (std::size_t r = 0; r < 9; ++r) {
        layer.update_row(h_prev.row(r), x_agg.row(r), row_out);
        for (std::size_t j = 0; j < 7; ++j) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(batch_out.at(r, j)),
                    std::bit_cast<std::uint32_t>(row_out[j]))
              << layer_kind_name(kind) << " packed=" << packed << " row "
              << r << " col " << j;
        }
      }
    }
  }
}

TEST(Layers, GinEpsScalesSelf) {
  Rng rng(8);
  auto layer = GnnLayer::random(LayerKind::gin, 3, 2, rng);
  auto& gin = std::get<GinParams>(layer.mutable_params());
  gin.eps = 1.0f;  // self contributes with weight 2
  const std::vector<float> self = {1, 1, 1};
  const std::vector<float> zero = {0, 0, 0};
  std::vector<float> out_eps(2);
  layer.update_row(self, zero, out_eps);
  gin.eps = 0.0f;
  const std::vector<float> self_doubled = {2, 2, 2};
  std::vector<float> out_doubled(2);
  layer.update_row(self_doubled, zero, out_doubled);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(out_eps[j], out_doubled[j], 1e-5f);
  }
}

}  // namespace
}  // namespace ripple
