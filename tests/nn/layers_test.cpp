#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "../test_util.hpp"
#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/pooling.hpp"
#include "nn/sequential.hpp"

namespace tdfm::nn {
namespace {

using test::random_tensor;

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// An eval-mode forward writes no layer member (Layer::forward), so it keeps
/// no backward state of its own and leaves a training forward's alone:
///   - run between a training forward on `x` and its backward, an eval
///     forward on another batch size moves no bit of the input gradient or
///     the parameter gradients;
///   - a layer that ran only eval forwards still refuses backward;
///   - the eval output is the training output bit for bit.
/// `make` builds the layer, identically on every call.
template <typename MakeLayer>
void expect_eval_forward_keeps_no_state(MakeLayer make, const Tensor& x,
                                        const Tensor& grad) {
  auto reference = make();
  const Tensor y_train = reference.forward(x, true);
  const Tensor gx_want = reference.backward(grad);

  auto layer = make();
  (void)layer.forward(x, true);
  std::vector<std::size_t> dims = x.shape().dims();
  ++dims[0];
  Rng rng(99);
  (void)layer.forward(random_tensor(Shape(dims), rng), false);
  EXPECT_TRUE(same_bits(layer.backward(grad), gx_want));
  ASSERT_EQ(layer.parameters().size(), reference.parameters().size());
  for (std::size_t i = 0; i < layer.parameters().size(); ++i) {
    EXPECT_TRUE(same_bits(layer.parameters()[i]->grad, reference.parameters()[i]->grad))
        << "parameter " << i;
  }
  EXPECT_TRUE(same_bits(layer.forward(x, false), y_train));

  auto eval_only = make();
  (void)eval_only.forward(x, false);
  EXPECT_THROW((void)eval_only.backward(grad), InvariantError);
}

TEST(Dense, OutputShapeAndBias) {
  Rng rng(300);
  Dense layer(4, 2, rng);
  // Zero input isolates the bias (zero-initialised).
  const Tensor y = layer.forward(Tensor(Shape{3, 4}), false);
  EXPECT_EQ(y.shape(), (Shape{3, 2}));
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], 0.0F);
  EXPECT_EQ(layer.parameter_count(), 4U * 2U + 2U);
  EXPECT_EQ(layer.weight_layer_count(), 1U);
}

TEST(Dense, RejectsWrongInputWidth) {
  Rng rng(301);
  Dense layer(4, 2, rng);
  EXPECT_THROW((void)layer.forward(Tensor(Shape{3, 5}), false), InvariantError);
}

TEST(Conv2D, OutputGeometry) {
  Rng rng(302);
  Conv2D same(3, 8, 16, 16, 3, 1, 1, rng);
  EXPECT_EQ(same.forward(Tensor(Shape{2, 3, 16, 16}), false).shape(),
            (Shape{2, 8, 16, 16}));
  Conv2D strided(3, 8, 16, 16, 3, 2, 1, rng);
  EXPECT_EQ(strided.forward(Tensor(Shape{2, 3, 16, 16}), false).shape(),
            (Shape{2, 8, 8, 8}));
  Conv2D pointwise(8, 4, 8, 8, 1, 1, 0, rng);
  EXPECT_EQ(pointwise.forward(Tensor(Shape{1, 8, 8, 8}), false).shape(),
            (Shape{1, 4, 8, 8}));
}

TEST(DepthwiseConv2D, RejectsKernelLargerThanPaddedInput) {
  Rng rng(303);
  EXPECT_THROW(DepthwiseConv2D(2, 1, 1, 3, 1, 0, rng), InvariantError);
  EXPECT_NO_THROW(DepthwiseConv2D(2, 1, 1, 3, 1, 1, rng));
}

TEST(Conv2D, TranslatesInputShiftToOutputShift) {
  // Convolution is shift-equivariant away from borders: shifting the input
  // one pixel right shifts the output one pixel right.
  Rng rng(303);
  Conv2D conv(1, 1, 8, 8, 3, 1, 1, rng);
  Tensor x(Shape{1, 1, 8, 8});
  x.at(0, 0, 3, 3) = 1.0F;
  Tensor xs(Shape{1, 1, 8, 8});
  xs.at(0, 0, 3, 4) = 1.0F;
  const Tensor y = conv.forward(x, false);
  const Tensor ys = conv.forward(xs, false);
  for (std::size_t r = 1; r < 7; ++r) {
    for (std::size_t c = 1; c < 6; ++c) {
      EXPECT_NEAR(y.at(0, 0, r, c), ys.at(0, 0, r, c + 1), 1e-6F);
    }
  }
}

TEST(ReLU, MasksNegatives) {
  ReLU relu;
  Tensor x(Shape{4});
  x[0] = -1.0F;
  x[1] = 2.0F;
  x[2] = 0.0F;
  x[3] = -0.5F;
  const Tensor y = relu.forward(x, true);
  EXPECT_EQ(y[0], 0.0F);
  EXPECT_EQ(y[1], 2.0F);
  EXPECT_EQ(y[2], 0.0F);
  Tensor g = Tensor::full(Shape{4}, 1.0F);
  const Tensor gx = relu.backward(g);
  EXPECT_EQ(gx[0], 0.0F);
  EXPECT_EQ(gx[1], 1.0F);
}

TEST(Dropout, InferenceIsIdentity) {
  Rng rng(304);
  Dropout drop(0.5F, rng);
  const Tensor x = random_tensor(Shape{8, 8}, rng);
  const Tensor y = drop.forward(x, /*training=*/false);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Dropout, TrainingZeroesRoughlyPFraction) {
  Rng rng(305);
  Dropout drop(0.5F, rng);
  const Tensor x = Tensor::full(Shape{10000}, 1.0F);
  const Tensor y = drop.forward(x, true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (y[i] == 0.0F) {
      ++zeros;
    } else {
      EXPECT_NEAR(y[i], 2.0F, 1e-6F);  // inverted scaling 1/(1-p)
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.5, 0.03);
}

TEST(Dropout, PreservesExpectation) {
  Rng rng(306);
  Dropout drop(0.3F, rng);
  const Tensor x = Tensor::full(Shape{20000}, 1.0F);
  const Tensor y = drop.forward(x, true);
  EXPECT_NEAR(mean(y), 1.0, 0.03);
}

TEST(Dropout, BackwardUsesSameMask) {
  Rng rng(307);
  Dropout drop(0.5F, rng);
  const Tensor x = Tensor::full(Shape{64}, 1.0F);
  const Tensor y = drop.forward(x, true);
  const Tensor gx = drop.backward(Tensor::full(Shape{64}, 1.0F));
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(gx[i], y[i]);  // same scaled mask applied to ones
  }
}

TEST(Dropout, RejectsBadRate) {
  Rng rng(308);
  EXPECT_THROW(Dropout(1.0F, rng), InvariantError);
  EXPECT_THROW(Dropout(-0.1F, rng), InvariantError);
}

TEST(MaxPool, PicksMaximumAndRoutesGradient) {
  MaxPool2D pool(2);
  Tensor x(Shape{1, 1, 2, 2});
  x[0] = 1.0F;
  x[1] = 5.0F;
  x[2] = 2.0F;
  x[3] = 3.0F;
  const Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_EQ(y[0], 5.0F);
  const Tensor gx = pool.backward(Tensor::full(Shape{1, 1, 1, 1}, 2.0F));
  EXPECT_EQ(gx[1], 2.0F);
  EXPECT_EQ(gx[0], 0.0F);
  EXPECT_EQ(gx[2], 0.0F);
}

TEST(MaxPool, MatchesParentLoopBitForBit) {
  // The compare-and-select forward against the branching loop it replaced,
  // copied here: outputs and gradients with memcmp, argmax through the
  // gradient of one-hot output gradients.  Values come from a small set so
  // windows tie, +0 ties -0, and a NaN sits first or later in a window; the
  // output gradient holds -0, which the scatter turns into +0.  k = 2 is
  // the zoo's unrolled case, k = 3 and 4 the general loop.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  const float pool[] = {-1.0F, 0.0F, -0.0F, 1.0F, 1.0F, 2.0F, kNaN, kInf, -kInf, 0.5F};
  for (const std::size_t k : {2, 3, 4}) {
    const Shape shape{3, 5, 4 * k, 2 * k};
    Rng rng(350 + k);
    Tensor x(shape);
    for (float& v : x.flat()) v = pool[rng.index(std::size(pool))];
    // The parent loop.
    const std::size_t h = shape[2], w = shape[3], oh = h / k, ow = w / k;
    Tensor want(Shape{shape[0], shape[1], oh, ow});
    std::vector<std::uint32_t> want_arg(want.numel());
    std::size_t oi = 0;
    for (std::size_t p = 0; p < shape[0] * shape[1]; ++p) {
      const float* plane = x.data() + p * h * w;
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t xx = 0; xx < ow; ++xx, ++oi) {
          float best = plane[(y * k) * w + xx * k];
          std::size_t best_idx = (y * k) * w + xx * k;
          for (std::size_t dy = 0; dy < k; ++dy) {
            for (std::size_t dx = 0; dx < k; ++dx) {
              const std::size_t idx = (y * k + dy) * w + (xx * k + dx);
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          want[oi] = best;
          want_arg[oi] = static_cast<std::uint32_t>(p * h * w + best_idx);
        }
      }
    }
    MaxPool2D layer(k);
    EXPECT_TRUE(same_bits(layer.forward(x, true), want)) << "forward k" << k;
    EXPECT_TRUE(same_bits(layer.forward(x, false), want)) << "eval forward k" << k;
    (void)layer.forward(x, true);
    Tensor dy = random_tensor(want.shape(), rng);
    for (std::size_t i = 0; i < dy.numel(); i += 3) dy[i] = -0.0F;
    Tensor want_grad(shape);
    for (std::size_t i = 0; i < want_arg.size(); ++i) want_grad[want_arg[i]] += dy[i];
    EXPECT_TRUE(same_bits(layer.backward(dy), want_grad)) << "gradient k" << k;
    // One output at a time: its gradient lands on its argmax alone.
    for (std::size_t i = 0; i < want_arg.size(); i += 7) {
      Tensor one(want.shape());
      one[i] = 1.0F;
      const Tensor g = layer.backward(one);
      EXPECT_EQ(g[want_arg[i]], 1.0F) << "argmax of output " << i << ", k" << k;
    }
  }
}

TEST(MaxPool, RejectsIndivisibleDims) {
  MaxPool2D pool(2);
  EXPECT_THROW((void)pool.forward(Tensor(Shape{1, 1, 3, 4}), true), InvariantError);
}

TEST(GlobalAvgPool, ReducesSpatialDims) {
  GlobalAvgPool gap;
  Tensor x(Shape{2, 3, 2, 2});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = 1.0F;
  const Tensor y = gap.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 3}));
  EXPECT_NEAR(y[0], 1.0F, 1e-6F);
}

TEST(Flatten, RoundTripsShape) {
  Flatten flat;
  const Tensor x = Tensor::full(Shape{2, 3, 4, 5}, 1.0F);
  const Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
  const Tensor gx = flat.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(BatchNorm, NormalisesPerChannelInTraining) {
  BatchNorm2D bn(2);
  Rng rng(309);
  Tensor x = random_tensor(Shape{8, 2, 4, 4}, rng, 3.0F, 9.0F);
  const Tensor y = bn.forward(x, true);
  // Each channel of the output should be ~zero-mean unit-variance.
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0.0;
    double sq = 0.0;
    std::size_t n = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      for (std::size_t i = 0; i < 16; ++i) {
        const float v = y.at(b, c, i / 4, i % 4);
        sum += v;
        sq += static_cast<double>(v) * v;
        ++n;
      }
    }
    EXPECT_NEAR(sum / static_cast<double>(n), 0.0, 1e-3);
    EXPECT_NEAR(sq / static_cast<double>(n), 1.0, 1e-2);
  }
}

TEST(BatchNorm, InferenceUsesRunningStats) {
  BatchNorm2D bn(1);
  Rng rng(310);
  // Train on shifted data for several batches so the running stats adapt.
  for (int i = 0; i < 50; ++i) {
    Tensor x = random_tensor(Shape{8, 1, 2, 2}, rng, 4.0F, 6.0F);
    (void)bn.forward(x, true);
  }
  Tensor probe = Tensor::full(Shape{1, 1, 2, 2}, 5.0F);
  const Tensor y = bn.forward(probe, false);
  // 5.0 is the approximate running mean -> output near zero.
  EXPECT_NEAR(y[0], 0.0F, 0.3F);
}

TEST(Dense, EvalForwardKeepsNoBackwardState) {
  Rng rng(320);
  expect_eval_forward_keeps_no_state(
      [] {
        Rng init(320);
        return Dense(6, 3, init);
      },
      random_tensor(Shape{4, 6}, rng), random_tensor(Shape{4, 3}, rng));
}

TEST(Conv2D, EvalForwardKeepsNoBackwardState) {
  // The fused ReLU's mask goes with the cached input.  The 8x8 plane takes
  // the in-place path, whose training cache is the bordered input.
  for (const bool fuse_relu : {false, true}) {
    for (const std::size_t hw : {5, 8}) {
      Rng rng(321);
      expect_eval_forward_keeps_no_state(
          [&] {
            Rng init(321);
            return Conv2D(2, 3, hw, hw, 3, 1, 1, init, fuse_relu);
          },
          random_tensor(Shape{2, 2, hw, hw}, rng), random_tensor(Shape{2, 3, hw, hw}, rng));
    }
  }
}

TEST(DepthwiseConv2D, EvalForwardKeepsNoBackwardState) {
  Rng rng(322);
  expect_eval_forward_keeps_no_state(
      [] {
        Rng init(322);
        return DepthwiseConv2D(3, 6, 6, 3, 2, 1, init);
      },
      random_tensor(Shape{2, 3, 6, 6}, rng), random_tensor(Shape{2, 3, 3, 3}, rng));
}

TEST(ReLU, EvalForwardKeepsNoBackwardState) {
  Rng rng(323);
  expect_eval_forward_keeps_no_state([] { return ReLU(); }, random_tensor(Shape{3, 7}, rng),
                                     random_tensor(Shape{3, 7}, rng));
}

TEST(Tanh, EvalForwardKeepsNoBackwardState) {
  Rng rng(324);
  expect_eval_forward_keeps_no_state([] { return Tanh(); }, random_tensor(Shape{3, 7}, rng),
                                     random_tensor(Shape{3, 7}, rng));
}

TEST(MaxPool, EvalForwardKeepsNoBackwardState) {
  Rng rng(325);
  expect_eval_forward_keeps_no_state([] { return MaxPool2D(2); },
                                     random_tensor(Shape{2, 3, 4, 4}, rng),
                                     random_tensor(Shape{2, 3, 2, 2}, rng));
}

TEST(BatchNorm, EvalForwardKeepsNoBackwardState) {
  // Eval mode normalises with the running statistics, so its output is not
  // the training-mode one.  A backward shaped like a larger eval batch must
  // still throw: backward pairs only with the training forward (it once read
  // past the smaller training batch's cache).  The fused ReLU's mask too.
  for (const bool fuse_relu : {false, true}) {
    Rng rng(326);
    BatchNorm2D bn(3, fuse_relu);
    const Tensor small = random_tensor(Shape{2, 3, 4, 4}, rng);
    const Tensor large = random_tensor(Shape{8, 3, 4, 4}, rng);
    (void)bn.forward(small, true);
    EXPECT_NO_THROW((void)bn.backward(random_tensor(Shape{2, 3, 4, 4}, rng)));
    (void)bn.forward(small, true);
    const Tensor y = bn.forward(large, false);
    EXPECT_EQ(y.shape(), large.shape());
    EXPECT_THROW((void)bn.backward(random_tensor(Shape{8, 3, 4, 4}, rng)),
                 InvariantError)
        << "fuse_relu " << fuse_relu;
  }
}

TEST(BatchNorm, BackwardChecksGradientShape) {
  for (const bool fuse_relu : {false, true}) {
    Rng rng(327);
    BatchNorm2D bn(3, fuse_relu);
    (void)bn.forward(random_tensor(Shape{2, 3, 4, 4}, rng), true);
    EXPECT_THROW((void)bn.backward(random_tensor(Shape{8, 3, 4, 4}, rng)),
                 InvariantError);
    EXPECT_THROW((void)bn.backward(random_tensor(Shape{2, 3, 2, 2}, rng)),
                 InvariantError);
  }
}

TEST(BatchNorm, FusedReluMatchesBatchNormThenReluBitForBit) {
  // The fused layer must be BatchNorm2D followed by ReLU, bit for bit:
  // training output, input gradient, gamma/beta gradients, running
  // statistics and the eval output, over 1-256 px planes and channel runs
  // with and without a partial last run.  Some channels carry -0, +-Inf or
  // NaN in the input or the gradient.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  for (const std::size_t hw : {1, 2, 4, 8, 16}) {
    for (const std::size_t channels : {1, 3, 8, 13, 64}) {
      Rng rng(hw * 100 + channels);
      const Shape shape{4, channels, hw, hw};
      const std::size_t plane = hw * hw;
      Tensor x = random_tensor(shape, rng);
      Tensor dy = random_tensor(shape, rng);
      for (std::size_t c = 0; c < channels; ++c) {
        float* xc = x.data() + c * plane;  // image 0
        float* dc = dy.data() + (channels + c) * plane;  // image 1
        switch (c % 5) {
          case 1: xc[0] = -0.0F; dc[0] = -0.0F; break;
          case 2: xc[plane - 1] = kInf; break;
          case 3: xc[0] = -kInf; dc[plane - 1] = kNaN; break;
          case 4: xc[plane / 2] = kNaN; break;
          default: break;
        }
      }
      BatchNorm2D fused(channels, /*fuse_relu=*/true);
      BatchNorm2D bn(channels);
      ReLU relu;
      for (Parameter* p : bn.parameters()) {
        for (float& v : p->value.flat()) v = rng.normal();
      }
      const auto src = bn.parameters();
      const auto dst = fused.parameters();
      for (std::size_t i = 0; i < src.size(); ++i) dst[i]->value = src[i]->value;
      const std::string what = std::to_string(channels) + "ch " + std::to_string(hw) +
                               "x" + std::to_string(hw);
      for (int step = 0; step < 2; ++step) {
        EXPECT_TRUE(same_bits(fused.forward(x, true), relu.forward(bn.forward(x, true), true)))
            << "forward, " << what;
        EXPECT_TRUE(same_bits(fused.backward(dy), bn.backward(relu.backward(dy))))
            << "input gradient, " << what;
      }
      for (std::size_t i = 0; i < src.size(); ++i) {
        EXPECT_TRUE(same_bits(dst[i]->grad, src[i]->grad)) << "gradient " << i << ", " << what;
      }
      const auto state = bn.state();
      const auto fused_state = fused.state();
      ASSERT_EQ(state.size(), 2U);
      for (std::size_t i = 0; i < state.size(); ++i) {
        EXPECT_TRUE(same_bits(*fused_state[i], *state[i])) << "state " << i << ", " << what;
      }
      EXPECT_TRUE(same_bits(fused.forward(x, false), relu.forward(bn.forward(x, false), false)))
          << "eval forward, " << what;
    }
  }
}

TEST(Conv2D, FusedReluMatchesConv2DThenReluBitForBit) {
  // Conv2D with its ReLU fused must be Conv2D followed by ReLU, bit for bit:
  // the training output, input gradient and weight/bias gradients over two
  // steps, the eval output and, once both are quantized, the q8 output.
  // 16x16 and 8x8 planes run one image per GEMM, 4x4/2x2/1x1 planes image
  // groups (5 images: a partial last group); stride 2 and a 1x1 filter too.
  // The first image carries -0, +-Inf and NaN in the input, the last one in
  // the output gradient, where the mask both keeps and drops them.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  struct Geometry {
    std::size_t in_c, out_c, hw, kernel, stride, pad;
  };
  const Geometry geometries[] = {
      {3, 8, 16, 3, 1, 1},  {8, 16, 8, 3, 1, 1}, {16, 16, 4, 3, 1, 1},
      {8, 12, 2, 3, 1, 1},  {16, 8, 1, 3, 1, 1}, {8, 16, 16, 3, 2, 1},
      {8, 16, 8, 3, 2, 1},  {16, 24, 4, 1, 1, 0}, {8, 8, 2, 1, 1, 0},
  };
  for (const Geometry& g : geometries) {
    const std::string what = std::to_string(g.in_c) + "->" + std::to_string(g.out_c) +
                             " " + std::to_string(g.hw) + "x" + std::to_string(g.hw) +
                             " k" + std::to_string(g.kernel) + " s" +
                             std::to_string(g.stride);
    Rng init_a(330), init_b(330);
    Conv2D fused(g.in_c, g.out_c, g.hw, g.hw, g.kernel, g.stride, g.pad, init_a,
                 /*fuse_relu=*/true);
    Conv2D conv(g.in_c, g.out_c, g.hw, g.hw, g.kernel, g.stride, g.pad, init_b);
    ReLU relu;
    Rng rng(331 + g.hw * 10 + g.stride);
    for (float& v : conv.parameters()[1]->value.flat()) v = 0.5F * rng.normal();
    fused.parameters()[1]->value = conv.parameters()[1]->value;
    ASSERT_TRUE(same_bits(fused.parameters()[0]->value, conv.parameters()[0]->value));
    const std::size_t batch = 5;
    Tensor x = random_tensor(Shape{batch, g.in_c, g.hw, g.hw}, rng);
    const std::size_t oh = (g.hw + 2 * g.pad - g.kernel) / g.stride + 1;
    const Shape out_shape{batch, g.out_c, oh, oh};
    Tensor dy = random_tensor(out_shape, rng);
    const float specials[] = {-0.0F, kInf, -kInf, kNaN};
    const std::size_t in_image = g.in_c * g.hw * g.hw;
    const std::size_t out_image = g.out_c * oh * oh;
    for (std::size_t i = 0; i < 4; ++i) {
      x[(i * 7) % in_image] = specials[i];
      for (std::size_t j = 0; j < 3; ++j) {
        dy[(batch - 1) * out_image + (i * 5 + j * 11) % out_image] = specials[i];
      }
    }
    ASSERT_EQ(fused.name(), "Conv2D(" + std::to_string(g.in_c) + "->" +
                                std::to_string(g.out_c) + ", k" +
                                std::to_string(g.kernel) + " s" +
                                std::to_string(g.stride) + " p" + std::to_string(g.pad) +
                                ", ReLU)");
    for (int step = 0; step < 2; ++step) {
      EXPECT_TRUE(same_bits(fused.forward(x, true), relu.forward(conv.forward(x, true), true)))
          << "forward, " << what;
      EXPECT_TRUE(same_bits(fused.backward(dy), conv.backward(relu.backward(dy))))
          << "input gradient, " << what;
    }
    const auto want = conv.parameters();
    const auto got = fused.parameters();
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(same_bits(got[i]->grad, want[i]->grad)) << "gradient " << i << ", " << what;
    }
    EXPECT_TRUE(same_bits(fused.forward(x, false), relu.forward(conv.forward(x, false), false)))
        << "eval forward, " << what;
    fused.quantize_for_inference();
    conv.quantize_for_inference();
    EXPECT_TRUE(same_bits(fused.forward(x, false), relu.forward(conv.forward(x, false), false)))
        << "q8 forward, " << what;
  }
}

TEST(Conv2D, DiscardedInputGradientKeepsParameterGradients) {
  // Network tells its body that the input gradient is discarded, and the
  // body's Sequential tells its first layer only.  That Conv2D returns an
  // empty tensor; every parameter gradient keeps its bits, and the second
  // Conv2D still computes the input gradient the first one's ReLU reads.
  // A plane of 16 px runs image groups, one of 64 px one image per GEMM.
  for (const std::size_t hw : {4, 8}) {
    const auto make = [hw] {
      Rng rng(340);
      auto body = std::make_unique<Sequential>();
      body->emplace<Conv2D>(3, 8, hw, hw, 3, 1, 1, rng, /*fuse_relu=*/true);
      body->emplace<Conv2D>(8, 4, hw, hw, 3, 1, 1, rng);
      return body;
    };
    auto kept = make();
    auto discarded = make();
    discarded->discard_input_grad();
    Rng rng(341);
    const Tensor x = random_tensor(Shape{6, 3, hw, hw}, rng);
    const Tensor dy = random_tensor(Shape{6, 4, hw, hw}, rng);
    for (int step = 0; step < 2; ++step) {
      EXPECT_TRUE(same_bits(discarded->forward(x, true), kept->forward(x, true)));
      EXPECT_EQ(kept->backward(dy).shape(), x.shape());
      EXPECT_EQ(discarded->backward(dy).numel(), 0U);
    }
    const auto want = kept->parameters();
    const auto got = discarded->parameters();
    ASSERT_EQ(got.size(), 4U);
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(same_bits(got[i]->grad, want[i]->grad)) << "gradient " << i << ", " << hw;
    }
  }
}

TEST(BatchNorm, FusedReluKeepsTheBatchNormName) {
  // perfbench folds layer spans by the name's prefix up to '('.
  EXPECT_EQ(BatchNorm2D(8, /*fuse_relu=*/true).name(), "BatchNorm2D(8, ReLU)");
  EXPECT_EQ(BatchNorm2D(8).name(), "BatchNorm2D(8)");
}

TEST(Sequential, ComposesAndExposesParameters) {
  Rng rng(311);
  Sequential seq;
  seq.emplace<Dense>(4, 8, rng);
  seq.emplace<ReLU>();
  seq.emplace<Dense>(8, 2, rng);
  EXPECT_EQ(seq.size(), 3U);
  EXPECT_EQ(seq.weight_layer_count(), 2U);
  EXPECT_EQ(seq.parameters().size(), 4U);  // two weights + two biases
  const Tensor y = seq.forward(Tensor(Shape{5, 4}), false);
  EXPECT_EQ(y.shape(), (Shape{5, 2}));
}

TEST(Sequential, RejectsNullLayer) {
  Sequential seq;
  EXPECT_THROW(seq.add(nullptr), InvariantError);
}

}  // namespace
}  // namespace tdfm::nn
