#include "nn/dense.hpp"

#include "tensor/gemm.hpp"
#include "tensor/init.hpp"
#include "tensor/qgemm.hpp"

namespace tdfm::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_(Shape{out_features, in_features}),
      bias_(Shape{out_features}) {
  TDFM_CHECK(in_features > 0 && out_features > 0, "Dense needs positive dims");
  he_normal(weight_.value, in_features, rng);
  // Bias stays zero-initialised.
}

Tensor Dense::forward(const Tensor& input, bool training) {
  TDFM_CHECK(input.rank() == 2 && input.dim(1) == in_,
             "Dense input must be [B, in_features]");
  const std::size_t batch = input.dim(0);
  Tensor out(Shape{batch, out_});
  if (quantized_) {
    // int8 path: quantize the activations row-wise, then block-dot against
    // the quantized weight rows.  No activation cache — backward is gone.
    const kernels::Q8Matrix qinput = kernels::quantize_rows_q8(input.data(), batch, in_);
    gemm_q8_nt(qinput, qweight_, out.data());
  } else {
    // Only a training-mode forward keeps the input for backward.
    if (training) cached_input_ = input;
    // out[B, out] = input[B, in] * W[out, in]^T
    gemm_nt(batch, out_, in_, input.data(), weight_.value.data(), out.data());
  }
  for (std::size_t b = 0; b < batch; ++b) {
    float* row = out.data() + b * out_;
    const float* bias = bias_.value.data();
    for (std::size_t j = 0; j < out_; ++j) row[j] += bias[j];
  }
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  TDFM_CHECK(!quantized_, "Dense: backward on a quantized (forward-only) layer");
  TDFM_CHECK(cached_input_.rank() == 2,
             "Dense: backward without a training-mode forward");
  const std::size_t batch = cached_input_.dim(0);
  TDFM_CHECK(grad_output.rank() == 2 && grad_output.dim(0) == batch &&
                 grad_output.dim(1) == out_,
             "Dense grad_output must be [B, out_features]");
  // dW[out, in] += dY[B, out]^T * X[B, in]
  gemm_tn(out_, in_, batch, grad_output.data(), cached_input_.data(),
          weight_.grad.data(), /*accumulate=*/true);
  // db[out] += column sums of dY
  for (std::size_t b = 0; b < batch; ++b) {
    const float* row = grad_output.data() + b * out_;
    float* db = bias_.grad.data();
    for (std::size_t j = 0; j < out_; ++j) db[j] += row[j];
  }
  // dX[B, in] = dY[B, out] * W[out, in]
  Tensor grad_input(Shape{batch, in_});
  gemm_nn(batch, in_, out_, grad_output.data(), weight_.value.data(),
          grad_input.data());
  return grad_input;
}

void Dense::quantize_for_inference() {
  if (quantized_) return;
  kernels::quantize_rows_q8(weight_.value.data(), out_, in_, qweight_);
  weight_.value = Tensor();
  weight_.grad = Tensor();
  cached_input_ = Tensor();
  quantized_ = true;
}

std::string Dense::name() const {
  return "Dense(" + std::to_string(in_) + "->" + std::to_string(out_) + ")";
}

}  // namespace tdfm::nn
