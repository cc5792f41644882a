// Flatten [B, C, H, W] activations into [B, C*H*W] for the FC head.
#pragma once

#include "nn/layer.hpp"

namespace tdfm::nn {

class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override {
    if (training) input_shape_ = input.shape();
    const std::size_t batch = input.dim(0);
    return input.reshaped(Shape{batch, input.numel() / batch});
  }

  Tensor backward(const Tensor& grad_output) override {
    TDFM_CHECK(input_shape_.rank() > 0, "Flatten: backward without a training-mode forward");
    return grad_output.reshaped(input_shape_);
  }

  [[nodiscard]] std::string name() const override { return "Flatten"; }

 private:
  Shape input_shape_;  ///< from the last training-mode forward
};

}  // namespace tdfm::nn
