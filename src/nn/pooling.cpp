#include "nn/pooling.hpp"

#include <cstdint>

namespace tdfm::nn {

namespace {

// One plane's max pooling with k x k windows (K > 0 fixes k at compile
// time).  Each window is visited in row-major order from its first element
// with a strict > compare-and-select, not a branch: the first maximum wins
// ties, and since no comparison with NaN holds, a NaN is taken only as the
// window's first element and then kept.  `argmax` (null in eval mode)
// receives `base` plus the winner's index in the plane.
template <std::size_t K>
void max_pool_plane(const float* plane, std::size_t k, std::size_t w, std::size_t oh,
                    std::size_t ow, float* out, std::uint32_t* argmax,
                    std::uint32_t base) {
  if constexpr (K > 0) k = K;
  for (std::size_t y = 0; y < oh; ++y) {
    for (std::size_t x = 0; x < ow; ++x) {
      const std::size_t first = y * k * w + x * k;
      float best = plane[first];
      std::size_t best_idx = first;
      for (std::size_t dy = 0; dy < k; ++dy) {
        for (std::size_t dx = 0; dx < k; ++dx) {
          const std::size_t idx = first + dy * w + dx;
          const float v = plane[idx];
          const bool greater = v > best;
          best = greater ? v : best;
          best_idx = greater ? idx : best_idx;
        }
      }
      out[y * ow + x] = best;
      if (argmax != nullptr) argmax[y * ow + x] = base + static_cast<std::uint32_t>(best_idx);
    }
  }
}

}  // namespace

Tensor MaxPool2D::forward(const Tensor& input, bool training) {
  TDFM_CHECK(input.rank() == 4, "MaxPool2D expects [B, C, H, W]");
  const std::size_t batch = input.dim(0), ch = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  TDFM_CHECK(h % k_ == 0 && w % k_ == 0, "pooling needs divisible spatial dims");
  const std::size_t oh = h / k_, ow = w / k_;
  Tensor out(Shape{batch, ch, oh, ow});
  // Only a training-mode forward records the argmax for backward.
  if (training) {
    input_shape_ = input.shape();
    argmax_.assign(out.numel(), 0);
  }
  for (std::size_t p = 0; p < batch * ch; ++p) {
    const float* plane = input.data() + p * h * w;
    float* o = out.data() + p * oh * ow;
    std::uint32_t* arg = training ? argmax_.data() + p * oh * ow : nullptr;
    const auto base = static_cast<std::uint32_t>(p * h * w);
    if (k_ == 2) {
      max_pool_plane<2>(plane, k_, w, oh, ow, o, arg, base);
    } else {
      max_pool_plane<0>(plane, k_, w, oh, ow, o, arg, base);
    }
  }
  return out;
}

Tensor MaxPool2D::backward(const Tensor& grad_output) {
  TDFM_CHECK(input_shape_.rank() == 4,
             "MaxPool2D: backward without a training-mode forward");
  TDFM_CHECK(grad_output.numel() == argmax_.size(), "MaxPool2D backward mismatch");
  Tensor grad(input_shape_);
  // Windows do not overlap, so each input element takes at most one
  // gradient: 0.0f + g, which turns a -0 gradient into +0.
  float* __restrict__ dst = grad.data();
  const float* __restrict__ src = grad_output.data();
  const std::uint32_t* __restrict__ arg = argmax_.data();
  for (std::size_t i = 0; i < argmax_.size(); ++i) dst[arg[i]] += src[i];
  return grad;
}

Tensor AvgPool2D::forward(const Tensor& input, bool training) {
  TDFM_CHECK(input.rank() == 4, "AvgPool2D expects [B, C, H, W]");
  const std::size_t batch = input.dim(0), ch = input.dim(1);
  const std::size_t h = input.dim(2), w = input.dim(3);
  TDFM_CHECK(h % k_ == 0 && w % k_ == 0, "pooling needs divisible spatial dims");
  const std::size_t oh = h / k_, ow = w / k_;
  if (training) input_shape_ = input.shape();
  Tensor out(Shape{batch, ch, oh, ow});
  const float inv = 1.0F / static_cast<float>(k_ * k_);
  std::size_t oi = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < ch; ++c) {
      const float* plane = input.data() + (b * ch + c) * h * w;
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x, ++oi) {
          float acc = 0.0F;
          for (std::size_t dy = 0; dy < k_; ++dy) {
            for (std::size_t dx = 0; dx < k_; ++dx) {
              acc += plane[(y * k_ + dy) * w + (x * k_ + dx)];
            }
          }
          out[oi] = acc * inv;
        }
      }
    }
  }
  return out;
}

Tensor AvgPool2D::backward(const Tensor& grad_output) {
  TDFM_CHECK(input_shape_.rank() == 4, "AvgPool2D: backward without a training-mode forward");
  Tensor grad(input_shape_);
  const std::size_t batch = input_shape_[0], ch = input_shape_[1];
  const std::size_t h = input_shape_[2], w = input_shape_[3];
  const std::size_t oh = h / k_, ow = w / k_;
  const float inv = 1.0F / static_cast<float>(k_ * k_);
  std::size_t oi = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < ch; ++c) {
      float* plane = grad.data() + (b * ch + c) * h * w;
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x, ++oi) {
          const float g = grad_output[oi] * inv;
          for (std::size_t dy = 0; dy < k_; ++dy) {
            for (std::size_t dx = 0; dx < k_; ++dx) {
              plane[(y * k_ + dy) * w + (x * k_ + dx)] += g;
            }
          }
        }
      }
    }
  }
  return grad;
}

Tensor GlobalAvgPool::forward(const Tensor& input, bool training) {
  TDFM_CHECK(input.rank() == 4, "GlobalAvgPool expects [B, C, H, W]");
  if (training) input_shape_ = input.shape();
  const std::size_t batch = input.dim(0), ch = input.dim(1);
  const std::size_t plane = input.dim(2) * input.dim(3);
  Tensor out(Shape{batch, ch});
  const float inv = 1.0F / static_cast<float>(plane);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < ch; ++c) {
      const float* p = input.data() + (b * ch + c) * plane;
      float acc = 0.0F;
      for (std::size_t i = 0; i < plane; ++i) acc += p[i];
      out.at(b, c) = acc * inv;
    }
  }
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  TDFM_CHECK(input_shape_.rank() == 4,
             "GlobalAvgPool: backward without a training-mode forward");
  Tensor grad(input_shape_);
  const std::size_t batch = input_shape_[0], ch = input_shape_[1];
  const std::size_t plane = input_shape_[2] * input_shape_[3];
  const float inv = 1.0F / static_cast<float>(plane);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t c = 0; c < ch; ++c) {
      float* p = grad.data() + (b * ch + c) * plane;
      const float g = grad_output.at(b, c) * inv;
      for (std::size_t i = 0; i < plane; ++i) p[i] = g;
    }
  }
  return grad;
}

}  // namespace tdfm::nn
