#include "nn/batchnorm.hpp"

#include <algorithm>
#include <cmath>

#include "nn/channel_lanes.hpp"

namespace tdfm::nn {

BatchNorm2D::BatchNorm2D(std::size_t channels, bool fuse_relu, float momentum,
                         float eps)
    : channels_(channels),
      relu_(fuse_relu),
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
    relu_mask_ = {};
    for (std::size_t c = 0; c < channels_; ++c) {
      const float inv_std = 1.0F / std::sqrt(running_var_[c] + eps_);
      const float g = gamma_.value[c], b = beta_.value[c], m = running_mean_[c];
      for (std::size_t n = 0; n < batch; ++n) {
        const float* src = input.data() + (n * channels_ + c) * plane;
        float* dst = out.data() + (n * channels_ + c) * plane;
        if (relu_) {
          for (std::size_t i = 0; i < plane; ++i) {
            const float y = g * (src[i] - m) * inv_std + b;
            dst[i] = y > 0.0F ? y : 0.0F;
          }
        } else {
          for (std::size_t i = 0; i < plane; ++i) {
            dst[i] = g * (src[i] - m) * inv_std + b;
          }
        }
      }
    }
    return out;
  }

  // x_hat keeps its storage across calls of one batch shape.
  if (normalized_.shape() != input.shape()) normalized_ = Tensor(input.shape());
  if (batch_inv_std_.numel() != channels_) batch_inv_std_ = Tensor(Shape{channels_});
  if (relu_) relu_mask_.resize(input.numel());
  // The statistics of kLanes channels side by side, each lane the
  // sequential double chain over (image, pixel) of the per-channel loop.
  for (std::size_t c0 = 0; c0 < channels_; c0 += channel_lanes::kLanes) {
    const std::size_t lanes = std::min(channel_lanes::kLanes, channels_ - c0);
    double sums[channel_lanes::kLanes], sqs[channel_lanes::kLanes];
    channel_lanes::moments(input.data(), batch, channels_, plane, c0, lanes, sums, sqs);
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::size_t c = c0 + l;
      const float mean = static_cast<float>(sums[l] / per_ch);
      const float var =
          static_cast<float>(sqs[l] / per_ch - static_cast<double>(mean) * mean);
      const float inv_std = 1.0F / std::sqrt(std::max(var, 0.0F) + eps_);
      batch_inv_std_[c] = inv_std;
      running_mean_[c] = (1.0F - momentum_) * running_mean_[c] + momentum_ * mean;
      running_var_[c] = (1.0F - momentum_) * running_var_[c] + momentum_ * var;
      const float g = gamma_.value[c], b = beta_.value[c];
      for (std::size_t n = 0; n < batch; ++n) {
        const float* src = input.data() + (n * channels_ + c) * plane;
        float* xh = normalized_.data() + (n * channels_ + c) * plane;
        float* dst = out.data() + (n * channels_ + c) * plane;
        if (relu_) {
          for (std::size_t i = 0; i < plane; ++i) {
            xh[i] = (src[i] - mean) * inv_std;
            const float y = g * xh[i] + b;
            dst[i] = y > 0.0F ? y : 0.0F;
          }
        } else {
          for (std::size_t i = 0; i < plane; ++i) {
            xh[i] = (src[i] - mean) * inv_std;
            dst[i] = g * xh[i] + b;
          }
        }
      }
    }
  }
  if (relu_) {
    // ReLU's mask y > 0, read off the output: it is y where y > 0 and +0
    // elsewhere.  One pass over the whole tensor, so byte stores vectorize
    // even on 4x4 planes.
    const float* __restrict__ o = out.data();
    std::uint8_t* __restrict__ mask = relu_mask_.data();
    const std::size_t count = out.numel();
    for (std::size_t i = 0; i < count; ++i) mask[i] = o[i] > 0.0F ? 1 : 0;
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
  const float* dy = grad_output.data();
  if (relu_) {
    // The fused ReLU's backward, ReLU::backward's dy * m, written into the
    // result's storage; the passes below read it as BatchNorm2D's dy and
    // overwrite each element with its dx.
    float* __restrict__ masked = grad.data();
    const std::uint8_t* __restrict__ mask = relu_mask_.data();
    const std::size_t count = grad.numel();
    for (std::size_t i = 0; i < count; ++i) {
      masked[i] = dy[i] * (mask[i] != 0 ? 1.0F : 0.0F);
    }
    dy = masked;
  }
  const float* xh = normalized_.data();
  float sums_dy[channel_lanes::kLanes], sums_dy_xh[channel_lanes::kLanes];
  for (std::size_t c0 = 0; c0 < channels_; c0 += channel_lanes::kLanes) {
    const std::size_t lanes = std::min(channel_lanes::kLanes, channels_ - c0);
    // GCC 12 at -O3 -march=native compiled the per-channel loop's
    // sum_dy_xh += dy * x_hat to vector products followed by in-order scalar
    // adds (no FMA) in its vectorized body, which covers every plane that
    // is a multiple of 8 px, and to FMA in its scalar remainder, which is
    // all of a 4-px or 1-px plane.  The lanes keep that split: products
    // rounded before the add on multiple-of-8 planes, the per-channel loop
    // itself on the others.
    if (plane % 8 == 0) {
      channel_lanes::grad_sums(dy, xh, batch, channels_, plane, c0, lanes, sums_dy,
                               sums_dy_xh);
    } else {
      for (std::size_t l = 0; l < lanes; ++l) {
        float sum_dy = 0.0F;
        float sum_dy_xh = 0.0F;
        for (std::size_t n = 0; n < batch; ++n) {
          const float* d = dy + (n * channels_ + c0 + l) * plane;
          const float* x = xh + (n * channels_ + c0 + l) * plane;
          for (std::size_t i = 0; i < plane; ++i) {
            sum_dy += d[i];
            sum_dy_xh += d[i] * x[i];
          }
        }
        sums_dy[l] = sum_dy;
        sums_dy_xh[l] = sum_dy_xh;
      }
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::size_t c = c0 + l;
      const float sum_dy = sums_dy[l];
      const float sum_dy_xh = sums_dy_xh[l];
      gamma_.grad[c] += sum_dy_xh;
      beta_.grad[c] += sum_dy;
      const float scale = gamma_.value[c] * batch_inv_std_[c] / m;
      for (std::size_t n = 0; n < batch; ++n) {
        const float* d = dy + (n * channels_ + c) * plane;
        const float* x = xh + (n * channels_ + c) * plane;
        float* dx = grad.data() + (n * channels_ + c) * plane;
        for (std::size_t i = 0; i < plane; ++i) {
          dx[i] = scale * (m * d[i] - sum_dy - x[i] * sum_dy_xh);
        }
      }
    }
  }
  return grad;
}

}  // namespace tdfm::nn
