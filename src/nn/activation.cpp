#include "nn/activation.hpp"

#include <cmath>

namespace tdfm::nn {

Tensor ReLU::forward(const Tensor& input, bool training) {
  Tensor out(input.shape());
  const float* __restrict__ in = input.data();
  float* __restrict__ o = out.data();
  if (!training) {
    for (std::size_t i = 0; i < input.numel(); ++i) o[i] = in[i] > 0.0F ? in[i] : 0.0F;
    return out;
  }
  mask_ = Tensor(input.shape());
  float* __restrict__ m = mask_.data();
  for (std::size_t i = 0; i < input.numel(); ++i) {
    const bool pos = in[i] > 0.0F;
    o[i] = pos ? in[i] : 0.0F;
    m[i] = pos ? 1.0F : 0.0F;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  TDFM_CHECK(grad_output.shape() == mask_.shape(),
             "ReLU: backward without a training-mode forward of this shape");
  Tensor grad(grad_output.shape());
  const float* __restrict__ g = grad_output.data();
  const float* __restrict__ m = mask_.data();
  float* __restrict__ o = grad.data();
  for (std::size_t i = 0; i < grad.numel(); ++i) o[i] = g[i] * m[i];
  return grad;
}

Tensor Tanh::forward(const Tensor& input, bool training) {
  Tensor out(input.shape());
  const float* __restrict__ in = input.data();
  float* __restrict__ o = out.data();
  for (std::size_t i = 0; i < input.numel(); ++i) o[i] = std::tanh(in[i]);
  if (training) output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  TDFM_CHECK(grad_output.shape() == output_.shape(),
             "Tanh: backward without a training-mode forward of this shape");
  Tensor grad(grad_output.shape());
  const float* __restrict__ g = grad_output.data();
  const float* __restrict__ y = output_.data();
  float* __restrict__ o = grad.data();
  for (std::size_t i = 0; i < grad.numel(); ++i) o[i] = g[i] * (1.0F - y[i] * y[i]);
  return grad;
}

}  // namespace tdfm::nn
