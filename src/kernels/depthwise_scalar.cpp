// Reference depthwise kernels: plain loops over each lane's plane, compiled
// like gemm_scalar.cpp (vectorization and FP contraction off), so every
// product feeds a separate addition.  Each lane works on its plane bordered
// by `pad` zeros in the scratch.
//
// Each loop repeats the per-element operation sequence of the im2col + GEMM
// path the checker compares against: the forward pass starts from +0 and
// adds the taps in (ky, kx) order as the nn kernel does, out-of-plane taps
// multiplying the border's zeros just as they multiply im2col's zeros; the
// input gradient adds one rounded product per tap that reaches an output,
// in tap order, as tn + col2im does (skipping zero filter taps like tn); the
// weight gradient is the nt kernel's sequential dot over the output pixels
// in row-major order.
#include <cstring>

#include "kernels/gemm_kernels.hpp"

namespace tdfm::kernels {

namespace {

// Copies plane [in_h][in_w] into the middle of a zeroed
// [in_h + 2 pad][in_w + 2 pad] grid.
void pad_plane(const DwGeometry& g, const float* plane, float* grid) {
  const std::size_t cols = g.in_w + 2 * g.pad;
  std::memset(grid, 0, (g.in_h + 2 * g.pad) * cols * sizeof(float));
  for (std::size_t y = 0; y < g.in_h; ++y) {
    std::memcpy(grid + (y + g.pad) * cols + g.pad, plane + y * g.in_w,
                g.in_w * sizeof(float));
  }
}

}  // namespace

void dw_forward_scalar(const DwGeometry& g, std::size_t lanes, const float* in,
                       const float* run, float* out, float* scratch) {
  const std::size_t k = g.kernel, s = g.stride, oh = g.out_h(), ow = g.out_w();
  const std::size_t cols = g.in_w + 2 * g.pad;
  const float* bias = run + g.taps() * kDwLanes;
  for (std::size_t l = 0; l < lanes; ++l) {
    pad_plane(g, in + l * g.in_h * g.in_w, scratch);
    float* o = out + l * oh * ow;
    for (std::size_t y = 0; y < oh; ++y) {
      for (std::size_t x = 0; x < ow; ++x) {
        float acc = 0.0F;
        for (std::size_t ky = 0; ky < k; ++ky) {
          const float* row = scratch + (y * s + ky) * cols + x * s;
          for (std::size_t kx = 0; kx < k; ++kx) {
            acc += run[(ky * k + kx) * kDwLanes + l] * row[kx];
          }
        }
        o[y * ow + x] = acc + bias[l];
      }
    }
  }
}

void dw_input_grad_scalar(const DwGeometry& g, std::size_t lanes,
                          const float* gout, const float* run, float* din,
                          float* scratch) {
  const std::size_t k = g.kernel, s = g.stride, oh = g.out_h(), ow = g.out_w();
  const std::size_t cols = g.in_w + 2 * g.pad;
  for (std::size_t l = 0; l < lanes; ++l) {
    // Scatter into the bordered grid tap by tap, so each element sums its
    // taps' products in tap order; the border is dropped.
    std::memset(scratch, 0, (g.in_h + 2 * g.pad) * cols * sizeof(float));
    const float* grad = gout + l * oh * ow;
    for (std::size_t ky = 0; ky < k; ++ky) {
      for (std::size_t kx = 0; kx < k; ++kx) {
        const float w = run[(ky * k + kx) * kDwLanes + l];
        if (w == 0.0F) continue;
        for (std::size_t y = 0; y < oh; ++y) {
          float* dst = scratch + (y * s + ky) * cols + kx;
          for (std::size_t x = 0; x < ow; ++x) dst[x * s] += w * grad[y * ow + x];
        }
      }
    }
    float* d = din + l * g.in_h * g.in_w;
    for (std::size_t y = 0; y < g.in_h; ++y) {
      std::memcpy(d + y * g.in_w, scratch + (y + g.pad) * cols + g.pad,
                  g.in_w * sizeof(float));
    }
  }
}

void dw_weight_grad_scalar(const DwGeometry& g, std::size_t lanes,
                           const float* in, const float* gout, float* dfilter,
                           float* dbias, float* scratch) {
  const std::size_t k = g.kernel, s = g.stride, taps = g.taps();
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t cols = g.in_w + 2 * g.pad;
  for (std::size_t l = 0; l < lanes; ++l) {
    pad_plane(g, in + l * g.in_h * g.in_w, scratch);
    const float* grad = gout + l * oh * ow;
    for (std::size_t ky = 0; ky < k; ++ky) {
      for (std::size_t kx = 0; kx < k; ++kx) {
        float acc = 0.0F;
        for (std::size_t y = 0; y < oh; ++y) {
          const float* row = scratch + (y * s + ky) * cols + kx;
          for (std::size_t x = 0; x < ow; ++x) acc += grad[y * ow + x] * row[x * s];
        }
        dfilter[l * taps + ky * k + kx] += acc;
      }
    }
    float sum = 0.0F;
    for (std::size_t i = 0; i < oh * ow; ++i) sum += grad[i];
    dbias[l] += sum;
  }
}

}  // namespace tdfm::kernels
