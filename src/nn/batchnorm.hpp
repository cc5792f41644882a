// Batch normalisation over channels of [B, C, H, W] activations.
//
// The residual networks in the model zoo (ResNet18/50 analogues) need
// normalisation to train at depth; without it the 17–49-conv stacks do not
// converge in the small-epoch regime this study runs in.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.hpp"

namespace tdfm::nn {

/// With `fuse_relu` the layer also applies the ReLU that follows it in the
/// model zoo, in its own output pass: y > 0 ? y : 0 forward, and backward
/// dy * m with m in {0.0f, 1.0f} read from a byte mask, exactly as ReLU
/// computes them (so -0 and NaN propagate as they do through ReLU).
class BatchNorm2D final : public Layer {
 public:
  explicit BatchNorm2D(std::size_t channels, bool fuse_relu = false,
                       float momentum = 0.1F, float eps = 1e-5F);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> state() override { return {&running_mean_, &running_var_}; }
  [[nodiscard]] std::string name() const override {
    return "BatchNorm2D(" + std::to_string(channels_) + (relu_ ? ", ReLU)" : ")");
  }

 private:
  std::size_t channels_;
  bool relu_;
  float momentum_;
  float eps_;
  Parameter gamma_;  ///< per-channel scale, initialised to 1
  Parameter beta_;   ///< per-channel shift, initialised to 0
  Tensor running_mean_;
  Tensor running_var_;
  // Caches for backward (training mode only; empty after an eval forward).
  Tensor normalized_;   ///< x_hat, shaped like the input
  Tensor batch_inv_std_;  ///< [C]
  std::vector<std::uint8_t> relu_mask_;  ///< 1 where y > 0 (fused ReLU only)
};

}  // namespace tdfm::nn
