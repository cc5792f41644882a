// Spatial pooling layers.
#pragma once

#include <cstdint>

#include "nn/layer.hpp"

namespace tdfm::nn {

/// Non-overlapping k x k max pooling ([B, C, H, W] -> [B, C, H/k, W/k]).
/// H and W must be divisible by k (the model zoo guarantees this).
class MaxPool2D final : public Layer {
 public:
  explicit MaxPool2D(std::size_t k) : k_(k) { TDFM_CHECK(k >= 2, "pool size >= 2"); }

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override {
    return "MaxPool2D(k" + std::to_string(k_) + ")";
  }

 private:
  std::size_t k_;
  // Backward state, kept by a training-mode forward only.
  Shape input_shape_;
  std::vector<std::uint32_t> argmax_;  ///< flat input index of each output max
};

/// Global average pooling: [B, C, H, W] -> [B, C].  Used by the ResNet and
/// MobileNet heads (Table III: "Avg Pooling" + 1 FC).
class GlobalAvgPool final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "GlobalAvgPool"; }

 private:
  Shape input_shape_;  ///< from the last training-mode forward
};

}  // namespace tdfm::nn
