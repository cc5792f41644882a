// Reference depthwise kernels: plain loops over the padded plane, compiled
// like gemm_scalar.cpp (vectorization and FP contraction off), so every
// product feeds a separate addition.
//
// Each loop repeats the per-element operation sequence of the im2col + GEMM
// path the checker compares against: the forward pass starts from +0 and
// adds the taps in (ky, kx) order as the nn kernel does; the input gradient
// adds one rounded product per tap in tap order as tn + col2im does
// (skipping zero filter taps like tn); the weight gradient is the nt
// kernel's sequential dot over the output pixels in row-major order.
// Out-of-plane taps multiply the padded zeros just as they multiply
// im2col's zeros.
#include <cstring>

#include "kernels/gemm_kernels.hpp"

namespace tdfm::kernels {

void dw_forward_scalar(const DwPlan& plan, const float* in,
                       const float* filter, float bias, float* out,
                       float* scratch) {
  dw_pad(plan, in, scratch);
  const std::size_t taps = plan.tap_offset.size();
  for (std::size_t y = 0; y < plan.out_h; ++y) {
    const float* base = scratch + y * plan.row_step;
    float* orow = out + y * plan.out_w;
    for (std::size_t x = 0; x < plan.out_w; ++x) {
      float acc = 0.0F;
      for (std::size_t t = 0; t < taps; ++t) {
        acc += filter[t] * base[plan.tap_offset[t] + x];
      }
      orow[x] = acc + bias;
    }
  }
}

void dw_input_grad_scalar(const DwPlan& plan, const float* gout,
                          const float* filter, float* din, float* scratch) {
  std::memset(scratch, 0, plan.plane_floats * sizeof(float));
  const std::size_t taps = plan.tap_offset.size();
  for (std::size_t t = 0; t < taps; ++t) {
    const float w = filter[t];
    if (w == 0.0F) continue;
    for (std::size_t y = 0; y < plan.out_h; ++y) {
      float* __restrict__ dst = scratch + y * plan.row_step + plan.tap_offset[t];
      const float* __restrict__ grow = gout + y * plan.out_w;
      for (std::size_t x = 0; x < plan.out_w; ++x) dst[x] += w * grow[x];
    }
  }
  dw_unpad(plan, scratch, din);
}

void dw_weight_grad_scalar(const DwPlan& plan, const float* in,
                           const float* gout, float* dfilter, float* dbias,
                           float* scratch) {
  dw_pad(plan, in, scratch);
  const std::size_t taps = plan.tap_offset.size();
  for (std::size_t t = 0; t < taps; ++t) {
    float acc = 0.0F;
    for (std::size_t y = 0; y < plan.out_h; ++y) {
      const float* src = scratch + y * plan.row_step + plan.tap_offset[t];
      const float* grow = gout + y * plan.out_w;
      for (std::size_t x = 0; x < plan.out_w; ++x) acc += grow[x] * src[x];
    }
    dfilter[t] += acc;
  }
  float sum = 0.0F;
  for (std::size_t i = 0; i < plan.out_h * plan.out_w; ++i) sum += gout[i];
  *dbias += sum;
}

}  // namespace tdfm::kernels
