// SSE2 depthwise kernels: 4 output columns per vector, mul+add with
// contraction off, so each lane repeats the scalar kernel's operation
// sequence exactly — forward and input gradient are bit-identical to the
// scalar (and sse2 im2col) path.  The weight gradient's dot products
// reassociate across lanes, which the checker bounds.
#include "kernels/gemm_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <emmintrin.h>

#include <cstring>

namespace tdfm::kernels {

namespace {

inline float hsum128(__m128 v) {
  __m128 s = _mm_add_ps(v, _mm_movehl_ps(v, v));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

}  // namespace

void dw_forward_sse2(const DwPlan& plan, const float* in, const float* filter,
                     float bias, float* out, float* scratch) {
  dw_pad(plan, in, scratch);
  const std::size_t taps = plan.tap_offset.size();
  const std::size_t ow = plan.out_w;
  const __m128 bv = _mm_set1_ps(bias);
  for (std::size_t y = 0; y < plan.out_h; ++y) {
    const float* base = scratch + y * plan.row_step;
    float* orow = out + y * ow;
    for (std::size_t x0 = 0; x0 < ow; x0 += 4) {
      // Lanes past ow read padding or neighbouring data and are never stored.
      __m128 acc = _mm_setzero_ps();
      for (std::size_t t = 0; t < taps; ++t) {
        acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(filter[t]),
                                         _mm_loadu_ps(base + plan.tap_offset[t] + x0)));
      }
      acc = _mm_add_ps(acc, bv);
      if (x0 + 4 <= ow) {
        _mm_storeu_ps(orow + x0, acc);
      } else {
        alignas(16) float lanes[4];
        _mm_store_ps(lanes, acc);
        std::memcpy(orow + x0, lanes, (ow - x0) * sizeof(float));
      }
    }
  }
}

void dw_input_grad_sse2(const DwPlan& plan, const float* gout,
                        const float* filter, float* din, float* scratch) {
  std::memset(scratch, 0, plan.plane_floats * sizeof(float));
  const std::size_t taps = plan.tap_offset.size();
  const std::size_t ow = plan.out_w;
  for (std::size_t t = 0; t < taps; ++t) {
    const float w = filter[t];
    if (w == 0.0F) continue;  // as the tn kernel skips zero rows
    const __m128 wv = _mm_set1_ps(w);
    for (std::size_t y = 0; y < plan.out_h; ++y) {
      float* dst = scratch + y * plan.row_step + plan.tap_offset[t];
      const float* grow = gout + y * ow;
      std::size_t x = 0;
      for (; x + 4 <= ow; x += 4) {
        _mm_storeu_ps(dst + x, _mm_add_ps(_mm_loadu_ps(dst + x),
                                          _mm_mul_ps(wv, _mm_loadu_ps(grow + x))));
      }
      for (; x < ow; ++x) dst[x] += w * grow[x];
    }
  }
  dw_unpad(plan, scratch, din);
}

void dw_weight_grad_sse2(const DwPlan& plan, const float* in,
                         const float* gout, float* dfilter, float* dbias,
                         float* scratch) {
  dw_pad(plan, in, scratch);
  const std::size_t taps = plan.tap_offset.size();
  const std::size_t ow = plan.out_w;
  // Per tap: 4-lane partial dots over the whole vectors of each row, a
  // scalar sum over the row tails, then lanes + tail.
  for (std::size_t t = 0; t < taps; ++t) {
    __m128 acc = _mm_setzero_ps();
    float tail = 0.0F;
    for (std::size_t y = 0; y < plan.out_h; ++y) {
      const float* src = scratch + y * plan.row_step + plan.tap_offset[t];
      const float* grow = gout + y * ow;
      std::size_t x = 0;
      for (; x + 4 <= ow; x += 4) {
        acc = _mm_add_ps(acc, _mm_mul_ps(_mm_loadu_ps(grow + x),
                                         _mm_loadu_ps(src + x)));
      }
      for (; x < ow; ++x) tail += grow[x] * src[x];
    }
    dfilter[t] += hsum128(acc) + tail;
  }
  __m128 acc = _mm_setzero_ps();
  float tail = 0.0F;
  for (std::size_t y = 0; y < plan.out_h; ++y) {
    const float* grow = gout + y * ow;
    std::size_t x = 0;
    for (; x + 4 <= ow; x += 4) acc = _mm_add_ps(acc, _mm_loadu_ps(grow + x));
    for (; x < ow; ++x) tail += grow[x];
  }
  *dbias += hsum128(acc) + tail;
}

}  // namespace tdfm::kernels

#else  // non-x86: forward to the scalar kernels (cpuid reports unsupported)

namespace tdfm::kernels {

void dw_forward_sse2(const DwPlan& plan, const float* in, const float* filter,
                     float bias, float* out, float* scratch) {
  dw_forward_scalar(plan, in, filter, bias, out, scratch);
}
void dw_input_grad_sse2(const DwPlan& plan, const float* gout,
                        const float* filter, float* din, float* scratch) {
  dw_input_grad_scalar(plan, gout, filter, din, scratch);
}
void dw_weight_grad_sse2(const DwPlan& plan, const float* in,
                         const float* gout, float* dfilter, float* dbias,
                         float* scratch) {
  dw_weight_grad_scalar(plan, in, gout, dfilter, dbias, scratch);
}

}  // namespace tdfm::kernels

#endif
