// Inverted dropout.
#pragma once

#include "core/rng.hpp"
#include "nn/layer.hpp"

namespace tdfm::nn {

/// Inverted dropout: at train time each activation is zeroed with
/// probability p and survivors are scaled by 1/(1-p); inference is identity.
/// DeconvNet (Table III) uses p = 0.5 after its FC layers.
class Dropout final : public Layer {
 public:
  Dropout(float p, Rng& rng) : p_(p), rng_(rng.fork(0xd20d0u)) {
    TDFM_CHECK(p >= 0.0F && p < 1.0F, "dropout rate must be in [0, 1)");
  }

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override {
    return "Dropout(p=" + std::to_string(p_) + ")";
  }

 private:
  float p_;
  Rng rng_;
  Tensor mask_;  ///< scaled keep mask from the last training forward
};

}  // namespace tdfm::nn
