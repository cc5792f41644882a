#include "nn/blocks.hpp"

#include "tensor/tensor_ops.hpp"

namespace tdfm::nn {

namespace {

/// 1x1 projection (conv + BN) used when the residual skip must change
/// channel count or spatial resolution.
LayerPtr make_projection(std::size_t in_c, std::size_t out_c, std::size_t in_h,
                         std::size_t in_w, std::size_t stride, Rng& rng) {
  auto proj = std::make_unique<Sequential>();
  proj->emplace<Conv2D>(in_c, out_c, in_h, in_w, /*kernel=*/1, stride, /*pad=*/0, rng);
  proj->emplace<BatchNorm2D>(out_c);
  return proj;
}

}  // namespace

ResidualBasicBlock::ResidualBasicBlock(std::size_t in_c, std::size_t out_c,
                                       std::size_t in_h, std::size_t in_w,
                                       std::size_t stride, Rng& rng) {
  main_.emplace<Conv2D>(in_c, out_c, in_h, in_w, 3, stride, 1, rng);
  const std::size_t oh = (in_h + 2 - 3) / stride + 1;
  const std::size_t ow = (in_w + 2 - 3) / stride + 1;
  main_.emplace<BatchNorm2D>(out_c, /*fuse_relu=*/true);
  main_.emplace<Conv2D>(out_c, out_c, oh, ow, 3, 1, 1, rng);
  main_.emplace<BatchNorm2D>(out_c);
  if (in_c != out_c || stride != 1) {
    projection_ = make_projection(in_c, out_c, in_h, in_w, stride, rng);
  }
}

Tensor ResidualBasicBlock::forward(const Tensor& input, bool training) {
  Tensor main_out = main_.forward(input, training);
  const Tensor skip =
      projection_ ? projection_->forward(input, training) : input;
  main_out += skip;
  return out_relu_.forward(main_out, training);
}

Tensor ResidualBasicBlock::backward(const Tensor& grad_output) {
  const Tensor g = out_relu_.backward(grad_output);
  Tensor grad_input = main_.backward(g);
  if (projection_) {
    grad_input += projection_->backward(g);
  } else {
    grad_input += g;
  }
  return grad_input;
}

std::vector<Parameter*> ResidualBasicBlock::parameters() {
  auto ps = main_.parameters();
  if (projection_) {
    for (auto* p : projection_->parameters()) ps.push_back(p);
  }
  return ps;
}

std::vector<Tensor*> ResidualBasicBlock::state() {
  auto ts = main_.state();
  if (projection_) {
    for (auto* t : projection_->state()) ts.push_back(t);
  }
  return ts;
}

void ResidualBasicBlock::quantize_for_inference() {
  main_.quantize_for_inference();
  if (projection_) projection_->quantize_for_inference();
}

std::vector<kernels::Q8Matrix*> ResidualBasicBlock::quantized_weights() {
  auto qs = main_.quantized_weights();
  if (projection_) {
    for (auto* q : projection_->quantized_weights()) qs.push_back(q);
  }
  return qs;
}

std::string ResidualBasicBlock::name() const { return "ResidualBasicBlock"; }

std::size_t ResidualBasicBlock::weight_layer_count() const {
  // The projection is bookkeeping, not a representational conv layer, and is
  // not counted in Table III-style depth tallies.
  return main_.weight_layer_count();
}

BottleneckBlock::BottleneckBlock(std::size_t in_c, std::size_t mid_c,
                                 std::size_t out_c, std::size_t in_h,
                                 std::size_t in_w, std::size_t stride, Rng& rng) {
  main_.emplace<Conv2D>(in_c, mid_c, in_h, in_w, 1, 1, 0, rng);
  main_.emplace<BatchNorm2D>(mid_c, /*fuse_relu=*/true);
  main_.emplace<Conv2D>(mid_c, mid_c, in_h, in_w, 3, stride, 1, rng);
  const std::size_t oh = (in_h + 2 - 3) / stride + 1;
  const std::size_t ow = (in_w + 2 - 3) / stride + 1;
  main_.emplace<BatchNorm2D>(mid_c, /*fuse_relu=*/true);
  main_.emplace<Conv2D>(mid_c, out_c, oh, ow, 1, 1, 0, rng);
  main_.emplace<BatchNorm2D>(out_c);
  if (in_c != out_c || stride != 1) {
    projection_ = make_projection(in_c, out_c, in_h, in_w, stride, rng);
  }
}

Tensor BottleneckBlock::forward(const Tensor& input, bool training) {
  Tensor main_out = main_.forward(input, training);
  const Tensor skip =
      projection_ ? projection_->forward(input, training) : input;
  main_out += skip;
  return out_relu_.forward(main_out, training);
}

Tensor BottleneckBlock::backward(const Tensor& grad_output) {
  const Tensor g = out_relu_.backward(grad_output);
  Tensor grad_input = main_.backward(g);
  if (projection_) {
    grad_input += projection_->backward(g);
  } else {
    grad_input += g;
  }
  return grad_input;
}

std::vector<Parameter*> BottleneckBlock::parameters() {
  auto ps = main_.parameters();
  if (projection_) {
    for (auto* p : projection_->parameters()) ps.push_back(p);
  }
  return ps;
}

std::vector<Tensor*> BottleneckBlock::state() {
  auto ts = main_.state();
  if (projection_) {
    for (auto* t : projection_->state()) ts.push_back(t);
  }
  return ts;
}

void BottleneckBlock::quantize_for_inference() {
  main_.quantize_for_inference();
  if (projection_) projection_->quantize_for_inference();
}

std::vector<kernels::Q8Matrix*> BottleneckBlock::quantized_weights() {
  auto qs = main_.quantized_weights();
  if (projection_) {
    for (auto* q : projection_->quantized_weights()) qs.push_back(q);
  }
  return qs;
}

std::string BottleneckBlock::name() const { return "BottleneckBlock"; }

std::size_t BottleneckBlock::weight_layer_count() const {
  return main_.weight_layer_count();
}

SeparableConvBlock::SeparableConvBlock(std::size_t in_c, std::size_t out_c,
                                       std::size_t in_h, std::size_t in_w,
                                       std::size_t stride, Rng& rng) {
  body_.emplace<DepthwiseConv2D>(in_c, in_h, in_w, 3, stride, 1, rng);
  const std::size_t oh = (in_h + 2 - 3) / stride + 1;
  const std::size_t ow = (in_w + 2 - 3) / stride + 1;
  body_.emplace<BatchNorm2D>(in_c, /*fuse_relu=*/true);
  body_.emplace<Conv2D>(in_c, out_c, oh, ow, 1, 1, 0, rng);
  body_.emplace<BatchNorm2D>(out_c, /*fuse_relu=*/true);
}

}  // namespace tdfm::nn
