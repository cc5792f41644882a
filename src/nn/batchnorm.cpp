#include "nn/batchnorm.hpp"

#include <cmath>

namespace tdfm::nn {

BatchNorm2D::BatchNorm2D(std::size_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(Shape{channels}),
      beta_(Shape{channels}),
      running_mean_(Shape{channels}),
      running_var_(Shape{channels}) {
  gamma_.value.fill(1.0F);
  running_var_.fill(1.0F);
}

Tensor BatchNorm2D::forward(const Tensor& input, bool training) {
  TDFM_CHECK(input.rank() == 4 && input.dim(1) == channels_,
             "BatchNorm2D input shape mismatch");
  const std::size_t batch = input.dim(0);
  const std::size_t plane = input.dim(2) * input.dim(3);
  const std::size_t per_ch = batch * plane;
  Tensor out(input.shape());

  if (!training) {
    // Eval mode keeps no backward state (and drops a stale training cache).
    normalized_ = Tensor();
    batch_inv_std_ = Tensor();
    for (std::size_t c = 0; c < channels_; ++c) {
      const float inv_std = 1.0F / std::sqrt(running_var_[c] + eps_);
      const float g = gamma_.value[c], b = beta_.value[c], m = running_mean_[c];
      for (std::size_t n = 0; n < batch; ++n) {
        const float* src = input.data() + (n * channels_ + c) * plane;
        float* dst = out.data() + (n * channels_ + c) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          dst[i] = g * (src[i] - m) * inv_std + b;
        }
      }
    }
    return out;
  }

  normalized_ = Tensor(input.shape());
  batch_inv_std_ = Tensor(Shape{channels_});
  for (std::size_t c = 0; c < channels_; ++c) {
    double sum = 0.0;
    double sq = 0.0;
    for (std::size_t n = 0; n < batch; ++n) {
      const float* src = input.data() + (n * channels_ + c) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        sum += src[i];
        sq += static_cast<double>(src[i]) * src[i];
      }
    }
    const float mean = static_cast<float>(sum / per_ch);
    const float var =
        static_cast<float>(sq / per_ch - static_cast<double>(mean) * mean);
    const float inv_std = 1.0F / std::sqrt(std::max(var, 0.0F) + eps_);
    batch_inv_std_[c] = inv_std;
    running_mean_[c] = (1.0F - momentum_) * running_mean_[c] + momentum_ * mean;
    running_var_[c] = (1.0F - momentum_) * running_var_[c] + momentum_ * var;
    const float g = gamma_.value[c], b = beta_.value[c];
    for (std::size_t n = 0; n < batch; ++n) {
      const float* src = input.data() + (n * channels_ + c) * plane;
      float* xh = normalized_.data() + (n * channels_ + c) * plane;
      float* dst = out.data() + (n * channels_ + c) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        xh[i] = (src[i] - mean) * inv_std;
        dst[i] = g * xh[i] + b;
      }
    }
  }
  return out;
}

Tensor BatchNorm2D::backward(const Tensor& grad_output) {
  // Standard batch-norm adjoint:
  //   dx = (gamma * inv_std / m) * (m*dy - sum(dy) - x_hat * sum(dy*x_hat))
  TDFM_CHECK(normalized_.rank() == 4,
             "BatchNorm2D: backward without a training-mode forward");
  TDFM_CHECK(grad_output.shape() == normalized_.shape(),
             "BatchNorm2D grad_output shape mismatch");
  const Shape& shape = normalized_.shape();
  const std::size_t batch = shape[0];
  const std::size_t plane = shape[2] * shape[3];
  const auto m = static_cast<float>(batch * plane);
  Tensor grad(shape);
  for (std::size_t c = 0; c < channels_; ++c) {
    float sum_dy = 0.0F;
    float sum_dy_xh = 0.0F;
    for (std::size_t n = 0; n < batch; ++n) {
      const float* dy = grad_output.data() + (n * channels_ + c) * plane;
      const float* xh = normalized_.data() + (n * channels_ + c) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        sum_dy += dy[i];
        sum_dy_xh += dy[i] * xh[i];
      }
    }
    gamma_.grad[c] += sum_dy_xh;
    beta_.grad[c] += sum_dy;
    const float scale = gamma_.value[c] * batch_inv_std_[c] / m;
    for (std::size_t n = 0; n < batch; ++n) {
      const float* dy = grad_output.data() + (n * channels_ + c) * plane;
      const float* xh = normalized_.data() + (n * channels_ + c) * plane;
      float* dx = grad.data() + (n * channels_ + c) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        dx[i] = scale * (m * dy[i] - sum_dy - xh[i] * sum_dy_xh);
      }
    }
  }
  return grad;
}

}  // namespace tdfm::nn
