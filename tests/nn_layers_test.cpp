// Forward-semantics tests for individual layers (shapes and hand-computed
// values); gradients are covered by gradient_check_test.cpp.

#include <gtest/gtest.h>

#include <stdexcept>

#include <cstring>
#include <limits>
#include <vector>

#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/depthwise_conv.hpp"
#include "nn/linear.hpp"
#include "nn/pool.hpp"
#include "nn/residual.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"

namespace afl {
namespace {

TEST(Conv2D, OutputShape) {
  Conv2D conv(3, 8, 3, 1, 1);
  Tensor x({2, 3, 16, 16});
  Tensor out = conv.forward(x, false);
  EXPECT_EQ(out.shape(), (Shape{2, 8, 16, 16}));
}

TEST(Conv2D, StrideHalvesSpatial) {
  Conv2D conv(1, 1, 3, 2, 1);
  Tensor x({1, 1, 8, 8});
  EXPECT_EQ(conv.forward(x, false).shape(), (Shape{1, 1, 4, 4}));
}

TEST(Conv2D, IdentityKernelCopiesInput) {
  Conv2D conv(1, 1, 1, 1, 0);
  conv.weight().fill(1.0f);
  conv.bias().fill(0.0f);
  Tensor x = Tensor::from_vector({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor out = conv.forward(x, false);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(out[i], x[i]);
}

TEST(Conv2D, BiasAdds) {
  Conv2D conv(1, 2, 1, 1, 0);
  conv.weight().fill(0.0f);
  conv.bias()[0] = 1.5f;
  conv.bias()[1] = -2.0f;
  Tensor x = Tensor::full({1, 1, 2, 2}, 9.0f);
  Tensor out = conv.forward(x, false);
  EXPECT_FLOAT_EQ(out[0], 1.5f);
  EXPECT_FLOAT_EQ(out[4], -2.0f);
}

TEST(Conv2D, KnownSum3x3) {
  // All-ones 3x3 kernel over all-ones 3x3 input with pad 1: center output
  // sees 9 taps, corners see 4.
  Conv2D conv(1, 1, 3, 1, 1);
  conv.weight().fill(1.0f);
  conv.bias().fill(0.0f);
  Tensor x = Tensor::full({1, 1, 3, 3}, 1.0f);
  Tensor out = conv.forward(x, false);
  EXPECT_FLOAT_EQ(out.at({0, 0, 1, 1}), 9.0f);
  EXPECT_FLOAT_EQ(out.at({0, 0, 0, 0}), 4.0f);
  EXPECT_FLOAT_EQ(out.at({0, 0, 0, 1}), 6.0f);
}

TEST(Conv2D, RejectsWrongChannels) {
  Conv2D conv(3, 4, 3, 1, 1);
  Tensor x({1, 2, 8, 8});
  EXPECT_THROW(conv.forward(x, false), std::invalid_argument);
}

TEST(Conv2D, RejectsAPlaneSmallerThanItsWindow) {
  Conv2D valid(1, 1, 3, 1, 0);
  EXPECT_THROW(valid.forward(Tensor::full({1, 1, 2, 2}, 1.0f), false), std::invalid_argument);
  EXPECT_THROW(valid.forward(Tensor::full({1, 1, 5, 2}, 1.0f), true), std::invalid_argument);
  EXPECT_EQ(valid.forward(Tensor::full({1, 1, 3, 3}, 1.0f), false).shape(), (Shape{1, 1, 1, 1}));
  Conv2D same(1, 1, 3, 1, 1);
  EXPECT_EQ(same.forward(Tensor::full({1, 1, 1, 1}, 1.0f), false).shape(), (Shape{1, 1, 1, 1}));
}

TEST(Conv2D, BatchEqualsPerSample) {
  // The batched GEMM lowering must agree with sample-by-sample evaluation.
  Rng rng(3);
  Conv2D conv(2, 3, 3, 1, 1);
  conv.weight() = Tensor::randn(conv.weight().shape(), rng);
  conv.bias() = Tensor::randn(conv.bias().shape(), rng);
  Tensor batch = Tensor::randn({4, 2, 6, 6}, rng);
  Tensor out_batch = conv.forward(batch, false);
  for (std::size_t i = 0; i < 4; ++i) {
    Tensor single({1, 2, 6, 6});
    for (std::size_t j = 0; j < 2 * 36; ++j) single[j] = batch[i * 2 * 36 + j];
    Tensor out_single = conv.forward(single, false);
    for (std::size_t j = 0; j < out_single.numel(); ++j) {
      EXPECT_NEAR(out_single[j], out_batch[i * out_single.numel() + j], 1e-4f);
    }
  }
}

TEST(DepthwiseConv, ChannelsIndependent) {
  DepthwiseConv2D dw(2, 3, 1, 1);
  // Kernel for channel 0 = identity-center; channel 1 = zeros.
  std::vector<ParamRef> params;
  dw.collect_params("dw", params);
  params[0].value->fill(0.0f);
  (*params[0].value)[4] = 1.0f;  // center tap of channel 0
  params[1].value->fill(0.0f);
  Tensor x = Tensor::full({1, 2, 3, 3}, 2.0f);
  Tensor out = dw.forward(x, false);
  EXPECT_FLOAT_EQ(out.at({0, 0, 1, 1}), 2.0f);
  EXPECT_FLOAT_EQ(out.at({0, 1, 1, 1}), 0.0f);
}

TEST(Linear, MatrixVector) {
  Linear lin(3, 2);
  lin.weight() = Tensor::from_vector({2, 3}, {1, 0, 0, 0, 1, 1});
  lin.bias() = Tensor::from_vector({2}, {0.5f, 0.0f});
  Tensor x = Tensor::from_vector({1, 3}, {2, 3, 4});
  Tensor out = lin.forward(x, false);
  EXPECT_FLOAT_EQ(out[0], 2.5f);
  EXPECT_FLOAT_EQ(out[1], 7.0f);
}

TEST(ReLU, ClampsNegative) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Output bits: -0.0 and NaN map to +0.0, +inf passes, -inf clamps.
  const std::vector<float> in = {-1, 0, 2, -3, -0.0f, nan, inf, -inf};
  const std::vector<float> want = {0, 0, 2, 0, 0, 0, inf, 0};
  for (bool train : {false, true}) {
    ReLU relu;
    Tensor x = Tensor::from_vector({1, 8}, in);
    Tensor out = relu.forward(x, train);
    ASSERT_EQ(std::memcmp(out.data(), want.data(), want.size() * sizeof(float)), 0)
        << "train=" << train;
  }
  // Train mode masks the backward pass to the strictly positive inputs.
  ReLU relu;
  relu.forward(Tensor::from_vector({1, 8}, in), true);
  Tensor grad = relu.backward(Tensor::full({1, 8}, 5.0f));
  const std::vector<float> grad_want = {0, 0, 5, 0, 0, 0, 5, 0};
  EXPECT_EQ(std::memcmp(grad.data(), grad_want.data(), grad_want.size() * sizeof(float)), 0);
}

TEST(MaxPool, PicksMaxima) {
  MaxPool2D pool;
  Tensor x = Tensor::from_vector({1, 1, 4, 4}, {1, 2, 5, 6,   //
                                                3, 4, 7, 8,   //
                                                9, 10, 13, 14,  //
                                                11, 12, 15, 16});
  Tensor out = pool.forward(x, false);
  ASSERT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out[0], 4.0f);
  EXPECT_FLOAT_EQ(out[1], 8.0f);
  EXPECT_FLOAT_EQ(out[2], 12.0f);
  EXPECT_FLOAT_EQ(out[3], 16.0f);
}

TEST(MaxPool, RejectsAPlaneSmallerThanItsWindow) {
  // (1 - 2) / 2 + 1 wraps in size_t: the parent built a 2^63-row output.
  MaxPool2D pool;
  EXPECT_THROW(pool.forward(Tensor::full({1, 1, 1, 1}, 1.0f), false), std::invalid_argument);
  EXPECT_THROW(pool.forward(Tensor::full({2, 3, 4, 1}, 1.0f), true), std::invalid_argument);
  EXPECT_EQ(pool.forward(Tensor::full({1, 1, 2, 3}, 1.0f), false).shape(), (Shape{1, 1, 1, 1}));
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  MaxPool2D pool;
  Tensor x = Tensor::from_vector({1, 1, 2, 2}, {1, 9, 2, 3});
  pool.forward(x, true);
  Tensor g = Tensor::from_vector({1, 1, 1, 1}, {5});
  Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 5.0f);
}

TEST(GlobalAvgPool, Averages) {
  GlobalAvgPool gap;
  Tensor x = Tensor::from_vector({1, 2, 2, 2}, {1, 2, 3, 4, 10, 10, 10, 10});
  Tensor out = gap.forward(x, false);
  ASSERT_EQ(out.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(out[0], 2.5f);
  EXPECT_FLOAT_EQ(out[1], 10.0f);
}

TEST(Flatten, RoundTrips) {
  Flatten fl;
  Rng rng(1);
  Tensor x = Tensor::randn({2, 3, 2, 2}, rng);
  Tensor out = fl.forward(x, true);
  EXPECT_EQ(out.shape(), (Shape{2, 12}));
  Tensor back = fl.backward(out);
  EXPECT_EQ(back.shape(), x.shape());
}

TEST(SlicedIdentity, TakesPrefixChannels) {
  Tensor x = Tensor::from_vector({1, 3, 1, 2}, {1, 2, 3, 4, 5, 6});
  Tensor out = sliced_identity_forward(x, 2);
  ASSERT_EQ(out.shape(), (Shape{1, 2, 1, 2}));
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  EXPECT_FLOAT_EQ(out[3], 4.0f);
  EXPECT_THROW(sliced_identity_forward(x, 4), std::invalid_argument);
}

TEST(BasicBlock, IdentityRequiresCompatibleShape) {
  EXPECT_THROW(BasicBlock(4, 8, 1, false), std::invalid_argument);  // widens
  EXPECT_THROW(BasicBlock(4, 4, 2, false), std::invalid_argument);  // strides
  EXPECT_NO_THROW(BasicBlock(8, 4, 1, false));
  EXPECT_NO_THROW(BasicBlock(4, 8, 2, true));
}

TEST(BasicBlock, OutputShape) {
  BasicBlock block(4, 8, 2, true);
  Tensor x({2, 4, 8, 8});
  EXPECT_EQ(block.forward(x, false).shape(), (Shape{2, 8, 4, 4}));
}

TEST(InvertedResidual, ResidualValidation) {
  EXPECT_THROW(InvertedResidualBlock(4, 8, 6, 1, true), std::invalid_argument);
  EXPECT_THROW(InvertedResidualBlock(4, 8, 4, 2, true), std::invalid_argument);
  EXPECT_NO_THROW(InvertedResidualBlock(6, 8, 4, 1, true));
}

TEST(InvertedResidual, OutputShape) {
  InvertedResidualBlock block(4, 8, 6, 2, false);
  Tensor x({1, 4, 8, 8});
  EXPECT_EQ(block.forward(x, false).shape(), (Shape{1, 6, 4, 4}));
}

TEST(Sequential, ComposesAndNamesParams) {
  Sequential seq;
  seq.append(std::make_unique<Linear>(4, 3));
  seq.append(std::make_unique<ReLU>());
  seq.append(std::make_unique<Linear>(3, 2));
  std::vector<ParamRef> params;
  seq.collect_params("head", params);
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].name, "head.0.w");
  EXPECT_EQ(params[2].name, "head.2.w");
  Tensor x({2, 4});
  EXPECT_EQ(seq.forward(x, false).shape(), (Shape{2, 2}));
}

}  // namespace
}  // namespace afl
