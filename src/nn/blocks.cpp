#include "nn/blocks.hpp"

#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"

namespace tdfm::nn {

namespace {

/// 1x1 projection (conv + BN) used when the residual skip must change
/// channel count or spatial resolution; null when the skip is the identity.
LayerPtr make_projection(std::size_t in_c, std::size_t out_c, std::size_t in_h,
                         std::size_t in_w, std::size_t stride, Rng& rng) {
  if (in_c == out_c && stride == 1) return nullptr;
  auto proj = std::make_unique<Sequential>();
  proj->emplace<Conv2D>(in_c, out_c, in_h, in_w, /*kernel=*/1, stride, /*pad=*/0, rng);
  proj->emplace<BatchNorm2D>(out_c);
  return proj;
}

}  // namespace

Residual::Residual(LayerPtr main, LayerPtr projection)
    : main_(std::move(main)), projection_(std::move(projection)) {
  TDFM_CHECK(main_ != nullptr, "a residual unit needs a main path");
}

Tensor Residual::forward(const Tensor& input, bool training) {
  Tensor out = main_->forward(input, training);
  if (projection_) {
    out += projection_->forward(input, training);
  } else {
    out += input;
  }
  return out_relu_.forward(out, training);
}

Tensor Residual::backward(const Tensor& grad_output) {
  const Tensor g = out_relu_.backward(grad_output);
  Tensor grad_input = main_->backward(g);
  if (projection_) {
    grad_input += projection_->backward(g);
  } else {
    grad_input += g;
  }
  return grad_input;
}

std::vector<Layer*> Residual::children() const {
  if (projection_) return {main_.get(), projection_.get()};
  return {main_.get()};
}

LayerPtr basic_block(std::size_t in_c, std::size_t out_c, std::size_t in_h,
                     std::size_t in_w, std::size_t stride, Rng& rng) {
  auto main = std::make_unique<Sequential>();
  main->emplace<Conv2D>(in_c, out_c, in_h, in_w, 3, stride, 1, rng);
  const std::size_t oh = (in_h + 2 - 3) / stride + 1;
  const std::size_t ow = (in_w + 2 - 3) / stride + 1;
  main->emplace<BatchNorm2D>(out_c, /*fuse_relu=*/true);
  main->emplace<Conv2D>(out_c, out_c, oh, ow, 3, 1, 1, rng);
  main->emplace<BatchNorm2D>(out_c);
  // The projection draws its weights after the main path's.
  LayerPtr projection = make_projection(in_c, out_c, in_h, in_w, stride, rng);
  return std::make_unique<Residual>(std::move(main), std::move(projection));
}

LayerPtr bottleneck_block(std::size_t in_c, std::size_t mid_c, std::size_t out_c,
                          std::size_t in_h, std::size_t in_w, std::size_t stride,
                          Rng& rng) {
  auto main = std::make_unique<Sequential>();
  main->emplace<Conv2D>(in_c, mid_c, in_h, in_w, 1, 1, 0, rng);
  main->emplace<BatchNorm2D>(mid_c, /*fuse_relu=*/true);
  main->emplace<Conv2D>(mid_c, mid_c, in_h, in_w, 3, stride, 1, rng);
  const std::size_t oh = (in_h + 2 - 3) / stride + 1;
  const std::size_t ow = (in_w + 2 - 3) / stride + 1;
  main->emplace<BatchNorm2D>(mid_c, /*fuse_relu=*/true);
  main->emplace<Conv2D>(mid_c, out_c, oh, ow, 1, 1, 0, rng);
  main->emplace<BatchNorm2D>(out_c);
  LayerPtr projection = make_projection(in_c, out_c, in_h, in_w, stride, rng);
  return std::make_unique<Residual>(std::move(main), std::move(projection));
}

void separable_unit(Sequential& body, std::size_t in_c, std::size_t out_c,
                    std::size_t in_h, std::size_t in_w, std::size_t stride, Rng& rng) {
  body.emplace<DepthwiseConv2D>(in_c, in_h, in_w, 3, stride, 1, rng);
  const std::size_t oh = (in_h + 2 - 3) / stride + 1;
  const std::size_t ow = (in_w + 2 - 3) / stride + 1;
  body.emplace<BatchNorm2D>(in_c, /*fuse_relu=*/true);
  body.emplace<Conv2D>(in_c, out_c, oh, ow, 1, 1, 0, rng);
  body.emplace<BatchNorm2D>(out_c, /*fuse_relu=*/true);
}

}  // namespace tdfm::nn
