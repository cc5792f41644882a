#include "nn/dropout.hpp"

namespace tdfm::nn {

Tensor Dropout::forward(const Tensor& input, bool training) {
  if (!training || p_ == 0.0F) return input;
  mask_ = Tensor(input.shape());
  Tensor out(input.shape());
  const float keep_scale = 1.0F / (1.0F - p_);
  for (std::size_t i = 0; i < input.numel(); ++i) {
    const float m = rng_.bernoulli(p_) ? 0.0F : keep_scale;
    mask_[i] = m;
    out[i] = input[i] * m;
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (p_ == 0.0F) return grad_output;
  TDFM_CHECK(grad_output.shape() == mask_.shape(),
             "Dropout: backward without a training-mode forward of this shape");
  Tensor grad(grad_output.shape());
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    grad[i] = grad_output[i] * mask_[i];
  }
  return grad;
}

}  // namespace tdfm::nn
