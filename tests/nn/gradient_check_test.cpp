// Finite-difference verification of every layer's backward pass.
//
// These are the most load-bearing tests in the repository: every experiment
// result rests on the correctness of these adjoints.
#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/blocks.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/pooling.hpp"

namespace tdfm::nn {
namespace {

using test::check_layer_gradients;
using test::random_tensor;

TEST(GradientCheck, Dense) {
  Rng rng(100);
  Dense layer(6, 4, rng);
  const Tensor x = random_tensor(Shape{3, 6}, rng);
  check_layer_gradients(layer, x, rng);
}

TEST(GradientCheck, Conv2DStride1) {
  Rng rng(101);
  Conv2D layer(2, 3, 6, 6, 3, 1, 1, rng);
  const Tensor x = random_tensor(Shape{2, 2, 6, 6}, rng);
  check_layer_gradients(layer, x, rng);
}

TEST(GradientCheck, Conv2DStride2) {
  Rng rng(102);
  Conv2D layer(2, 4, 8, 8, 3, 2, 1, rng);
  const Tensor x = random_tensor(Shape{2, 2, 8, 8}, rng);
  check_layer_gradients(layer, x, rng);
}

TEST(GradientCheck, Conv2DPointwise) {
  Rng rng(103);
  Conv2D layer(4, 2, 4, 4, 1, 1, 0, rng);
  const Tensor x = random_tensor(Shape{2, 4, 4, 4}, rng);
  check_layer_gradients(layer, x, rng);
}

TEST(GradientCheck, DepthwiseConv2D) {
  Rng rng(104);
  DepthwiseConv2D layer(3, 6, 6, 3, 1, 1, rng);
  const Tensor x = random_tensor(Shape{2, 3, 6, 6}, rng);
  check_layer_gradients(layer, x, rng);
}

TEST(GradientCheck, DepthwiseConv2DStride2) {
  Rng rng(105);
  DepthwiseConv2D layer(2, 8, 8, 3, 2, 1, rng);
  const Tensor x = random_tensor(Shape{2, 2, 8, 8}, rng);
  check_layer_gradients(layer, x, rng);
}

TEST(GradientCheck, ReLU) {
  Rng rng(106);
  ReLU layer;
  // Keep activations away from the kink at 0 (finite differences are
  // invalid exactly there).
  Tensor x = random_tensor(Shape{2, 3, 4, 4}, rng);
  for (auto& v : x.flat()) {
    if (std::fabs(v) < 0.05F) v = 0.2F;
  }
  check_layer_gradients(layer, x, rng);
}

TEST(GradientCheck, Tanh) {
  Rng rng(107);
  Tanh layer;
  const Tensor x = random_tensor(Shape{3, 5}, rng);
  check_layer_gradients(layer, x, rng, /*eps=*/1e-2F, /*rel_tol=*/6e-2F,
                        /*abs_tol=*/5e-3F);
}

TEST(GradientCheck, MaxPool) {
  Rng rng(108);
  MaxPool2D layer(2);
  // Separate values so the argmax does not flip under the probe epsilon.
  Tensor x(Shape{2, 2, 4, 4});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>((i * 37) % 64) * 0.1F;
  }
  check_layer_gradients(layer, x, rng);
}

TEST(GradientCheck, GlobalAvgPool) {
  Rng rng(110);
  GlobalAvgPool layer;
  const Tensor x = random_tensor(Shape{2, 3, 4, 4}, rng);
  check_layer_gradients(layer, x, rng);
}

TEST(GradientCheck, Flatten) {
  Rng rng(111);
  Flatten layer;
  const Tensor x = random_tensor(Shape{2, 2, 3, 3}, rng);
  check_layer_gradients(layer, x, rng);
}

TEST(GradientCheck, BatchNorm) {
  Rng rng(112);
  BatchNorm2D layer(3);
  const Tensor x = random_tensor(Shape{4, 3, 3, 3}, rng);
  // Batch-norm gradients couple all samples; finite differences through the
  // batch statistics are noisier — widen tolerances slightly.
  check_layer_gradients(layer, x, rng, /*eps=*/1e-2F, /*rel_tol=*/8e-2F,
                        /*abs_tol=*/8e-3F);
}

TEST(GradientCheck, BasicBlockIdentitySkip) {
  Rng rng(113);
  const LayerPtr layer = basic_block(3, 3, 4, 4, 1, rng);
  const Tensor x = random_tensor(Shape{2, 3, 4, 4}, rng);
  check_layer_gradients(*layer, x, rng, 1e-2F, 9e-2F, 1e-2F, 12, /*allowed_outliers=*/3);
}

TEST(GradientCheck, BasicBlockProjectionSkip) {
  Rng rng(114);
  const LayerPtr layer = basic_block(2, 4, 4, 4, 2, rng);
  const Tensor x = random_tensor(Shape{2, 2, 4, 4}, rng);
  check_layer_gradients(*layer, x, rng, 1e-2F, 9e-2F, 1e-2F, 12, /*allowed_outliers=*/3);
}

TEST(GradientCheck, BottleneckBlock) {
  Rng rng(115);
  const LayerPtr layer = bottleneck_block(3, 2, 4, 4, 4, 1, rng);
  const Tensor x = random_tensor(Shape{2, 3, 4, 4}, rng);
  // Deepest composite (3 BN + 2 interior ReLUs): more kink-crossing probes.
  check_layer_gradients(*layer, x, rng, 1e-2F, 9e-2F, 1e-2F, 12, /*allowed_outliers=*/6);
}

TEST(GradientCheck, SeparableUnit) {
  Rng rng(116);
  Sequential layer;
  separable_unit(layer, 3, 4, 4, 4, 1, rng);
  const Tensor x = random_tensor(Shape{2, 3, 4, 4}, rng);
  check_layer_gradients(layer, x, rng, 1e-2F, 9e-2F, 1e-2F, 12, /*allowed_outliers=*/3);
}

}  // namespace
}  // namespace tdfm::nn
