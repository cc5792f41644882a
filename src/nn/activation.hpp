// Activation layers.
#pragma once

#include "nn/layer.hpp"

namespace tdfm::nn {

/// Rectified linear unit, applied elementwise to any tensor shape.
class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }

 private:
  Tensor mask_;  ///< 1 where input > 0 (training-mode forward only)
};

/// Hyperbolic tangent (used by the label-correction secondary model).
class Tanh final : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "Tanh"; }

 private:
  Tensor output_;  ///< cached tanh(x), derivative 1 - y^2 (training only)
};

}  // namespace tdfm::nn
