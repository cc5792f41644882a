// Composite blocks: residual (basic and bottleneck) and depthwise-separable.
//
// These give the model zoo its architectural diversity — the paper argues
// (§IV-B) that ensembles work *because* member architectures differ
// (residual layers in ResNets, stacked convs in VGGs, separable convs in
// MobileNet); these blocks are those differing motifs.  Every BatchNorm2D
// that a ReLU follows runs that ReLU fused (BatchNorm2D's fuse_relu), as in
// the rest of the model zoo.
#pragma once

#include "core/rng.hpp"
#include "nn/activation.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/sequential.hpp"

namespace tdfm::nn {

/// ResNet-18-style basic block:
///   y = ReLU(BN(conv3x3(BN(conv3x3(x)) after ReLU)) + skip(x))
/// skip is identity when shapes match, else a 1x1 projection conv.
/// Contributes 2 weight layers (3 with projection).
class ResidualBasicBlock final : public Layer {
 public:
  ResidualBasicBlock(std::size_t in_c, std::size_t out_c, std::size_t in_h,
                     std::size_t in_w, std::size_t stride, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::vector<Tensor*> state() override;
  void quantize_for_inference() override;
  std::vector<kernels::Q8Matrix*> quantized_weights() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t weight_layer_count() const override;

 private:
  Sequential main_;
  LayerPtr projection_;  ///< null when the skip is identity
  ReLU out_relu_;
};

/// ResNet-50-style bottleneck block: 1x1 reduce -> 3x3 -> 1x1 expand, plus
/// skip.  Contributes 3 weight layers (4 with projection).
class BottleneckBlock final : public Layer {
 public:
  BottleneckBlock(std::size_t in_c, std::size_t mid_c, std::size_t out_c,
                  std::size_t in_h, std::size_t in_w, std::size_t stride, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  std::vector<Tensor*> state() override;
  void quantize_for_inference() override;
  std::vector<kernels::Q8Matrix*> quantized_weights() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t weight_layer_count() const override;

 private:
  Sequential main_;
  LayerPtr projection_;
  ReLU out_relu_;
};

/// MobileNet depthwise-separable unit: depthwise 3x3 (+BN+ReLU) followed by
/// pointwise 1x1 (+BN+ReLU).  Contributes 2 weight layers.
class SeparableConvBlock final : public Layer {
 public:
  SeparableConvBlock(std::size_t in_c, std::size_t out_c, std::size_t in_h,
                     std::size_t in_w, std::size_t stride, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override {
    return body_.forward(input, training);
  }
  Tensor backward(const Tensor& grad_output) override {
    return body_.backward(grad_output);
  }
  std::vector<Parameter*> parameters() override { return body_.parameters(); }
  std::vector<Tensor*> state() override { return body_.state(); }
  void quantize_for_inference() override { body_.quantize_for_inference(); }
  std::vector<kernels::Q8Matrix*> quantized_weights() override {
    return body_.quantized_weights();
  }
  [[nodiscard]] std::string name() const override { return "SeparableConvBlock"; }
  [[nodiscard]] std::size_t weight_layer_count() const override {
    return body_.weight_layer_count();
  }

 private:
  Sequential body_;
};

}  // namespace tdfm::nn
