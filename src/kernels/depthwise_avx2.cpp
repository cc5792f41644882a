// AVX2+FMA depthwise kernels, 8 output columns per vector with maskload /
// maskstore tails.  Compiled with -mavx2 -mfma and contraction off (see
// kernels/CMakeLists.txt), so every fused operation below is an explicit
// intrinsic:
//  - forward: an FMA chain from +0 over the taps in (ky, kx) order, then the
//    bias add — per lane exactly the avx2 nn micro-tile's chain, so the
//    output is bit-identical to im2col + this table's nn kernel;
//  - input gradient: gathered per element, one rounded product added per
//    tap in tap order (mul, then add), which is what the tn kernel's
//    fma(w, g, 0) followed by col2im's adds computes, so for finite filters
//    it is bit-identical to that path as well;
//  - weight gradient: per tap an 8-lane FMA dot over the plane, then a
//    horizontal sum — its own reduction shape, bounded by the checker.
#include "kernels/gemm_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace tdfm::kernels {

namespace {

// Mask with the first `rem` (1..7) lanes active (as in gemm_avx2.cpp).
inline __m256i tail_mask(std::size_t rem) {
  alignas(32) static const int table[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                            0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(table + 8 - rem));
}

inline float hsum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

// Output rows computed together: independent FMA chains per tap, so the
// chains' latency overlaps instead of adding up.
constexpr std::size_t kRows = 4;

}  // namespace

void dw_forward_avx2(const DwPlan& plan, const float* in, const float* filter,
                     float bias, float* out, float* scratch) {
  dw_pad(plan, in, scratch);
  const std::size_t taps = plan.tap_offset.size();
  const std::size_t* off = plan.tap_offset.data();
  const std::size_t ow = plan.out_w;
  const __m256 bv = _mm256_set1_ps(bias);
  for (std::size_t y0 = 0; y0 < plan.out_h; y0 += kRows) {
    const std::size_t rows = plan.out_h - y0 < kRows ? plan.out_h - y0 : kRows;
    const float* base = scratch + y0 * plan.row_step;
    for (std::size_t x0 = 0; x0 < ow; x0 += 8) {
      // Lanes past ow read padding or neighbouring data and are never stored.
      __m256 acc[kRows];
      for (std::size_t d = 0; d < kRows; ++d) acc[d] = _mm256_setzero_ps();
      for (std::size_t t = 0; t < taps; ++t) {
        const __m256 wv = _mm256_broadcast_ss(filter + t);
        const float* src = base + off[t] + x0;
        for (std::size_t d = 0; d < kRows; ++d) {
          if (d < rows) {
            acc[d] = _mm256_fmadd_ps(wv, _mm256_loadu_ps(src + d * plan.row_step),
                                     acc[d]);
          }
        }
      }
      for (std::size_t d = 0; d < rows; ++d) {
        float* dst = out + (y0 + d) * ow + x0;
        const __m256 v = _mm256_add_ps(acc[d], bv);
        if (x0 + 8 <= ow) {
          _mm256_storeu_ps(dst, v);
        } else {
          _mm256_maskstore_ps(dst, tail_mask(ow - x0), v);
        }
      }
    }
  }
}

void dw_input_grad_avx2(const DwPlan& plan, const float* gout,
                        const float* filter, float* din, float* scratch) {
  // Gather form: each 8-element run of a padded phase row sums, in tap
  // order, the products of the taps that reach it and is stored once — no
  // overlapping read-modify-write.  Element i of phase q (padded column
  // s*i + q) is reached by tap kx = q + m*s from output column i - m, and
  // phase row u of row phase p (padded row s*u + p) by tap ky = p + j*s
  // from output row u - j.  Pixels outside the gradient plane read its zero
  // border, adding w*0 = +-0, which leaves the sum unchanged for finite
  // filters.
  const DwGeometry& g = plan.geom;
  const std::size_t k = g.kernel, s = g.stride;
  const std::size_t grl = plan.grad_row_len;
  dw_pad_gradient(plan, gout, scratch);
  // Output pixel (y, x) of the bordered gradient, y and x offset by the lead.
  const float* grad = scratch + plan.plane_floats + plan.grad_lead * grl + plan.grad_lead;
  for (std::size_t p = 0; p < s; ++p) {
    for (std::size_t u0 = plan.row_begin[p]; u0 < plan.row_end[p]; u0 += kRows) {
      const std::size_t rows = plan.row_end[p] - u0 < kRows ? plan.row_end[p] - u0 : kRows;
      for (std::size_t q = 0; q < s; ++q) {
        for (std::size_t i0 = plan.col_begin[q]; i0 < plan.col_end[q]; i0 += 8) {
          __m256 acc[kRows];
          for (std::size_t d = 0; d < kRows; ++d) acc[d] = _mm256_setzero_ps();
          for (std::size_t ky = p, j = 0; ky < k; ky += s, ++j) {
            // Output row u0 - j, possibly in the top border (j <= lead).
            const float* grow = grad + u0 * grl + i0 - j * grl;
            for (std::size_t kx = q, m = 0; kx < k; kx += s, ++m) {
              const float w = filter[ky * k + kx];
              if (w == 0.0F) continue;  // as the tn kernel skips zero rows
              const __m256 wv = _mm256_set1_ps(w);
              for (std::size_t d = 0; d < kRows; ++d) {
                if (d < rows) {
                  acc[d] = _mm256_add_ps(
                      acc[d], _mm256_mul_ps(wv, _mm256_loadu_ps(grow + d * grl - m)));
                }
              }
            }
          }
          for (std::size_t d = 0; d < rows; ++d) {
            float* dst = scratch + ((u0 + d) * s + p) * s * plan.row_len +
                         q * plan.row_len;
            _mm256_storeu_ps(dst + i0, acc[d]);
          }
        }
      }
    }
  }
  dw_unpad(plan, scratch, din);
}

void dw_weight_grad_avx2(const DwPlan& plan, const float* in,
                         const float* gout, float* dfilter, float* dbias,
                         float* scratch) {
  dw_pad(plan, in, scratch);
  const std::size_t taps = plan.tap_offset.size();
  const std::size_t ow = plan.out_w;
  // Tail lanes load as zero from both operands, so they add exact zeros.
  const std::size_t full = ow / 8 * 8;
  const __m256i tail = tail_mask(full < ow ? ow - full : 1);
  // Up to kBlock taps share each gradient load, one accumulator per tap (a
  // 3x3 filter is one block); each tap's chain runs over the rows and
  // vectors in order, then reduces horizontally.
  constexpr std::size_t kBlock = 9;
  for (std::size_t t0 = 0; t0 < taps; t0 += kBlock) {
    const std::size_t n = taps - t0 < kBlock ? taps - t0 : kBlock;
    const std::size_t* off = plan.tap_offset.data() + t0;
    __m256 acc[kBlock];
    for (std::size_t j = 0; j < kBlock; ++j) acc[j] = _mm256_setzero_ps();
    for (std::size_t y = 0; y < plan.out_h; ++y) {
      const float* base = scratch + y * plan.row_step;
      const float* grow = gout + y * ow;
      for (std::size_t x0 = 0; x0 < full; x0 += 8) {
        const __m256 gv = _mm256_loadu_ps(grow + x0);
        for (std::size_t j = 0; j < kBlock; ++j) {
          if (j < n) acc[j] = _mm256_fmadd_ps(gv, _mm256_loadu_ps(base + off[j] + x0), acc[j]);
        }
      }
      if (full < ow) {
        const __m256 gv = _mm256_maskload_ps(grow + full, tail);
        for (std::size_t j = 0; j < kBlock; ++j) {
          if (j < n) {
            acc[j] = _mm256_fmadd_ps(gv, _mm256_maskload_ps(base + off[j] + full, tail),
                                     acc[j]);
          }
        }
      }
    }
    for (std::size_t j = 0; j < n; ++j) dfilter[t0 + j] += hsum256(acc[j]);
  }
  __m256 acc = _mm256_setzero_ps();
  for (std::size_t y = 0; y < plan.out_h; ++y) {
    const float* grow = gout + y * ow;
    for (std::size_t x0 = 0; x0 < full; x0 += 8) {
      acc = _mm256_add_ps(acc, _mm256_loadu_ps(grow + x0));
    }
    if (full < ow) acc = _mm256_add_ps(acc, _mm256_maskload_ps(grow + full, tail));
  }
  *dbias += hsum256(acc);
}

}  // namespace tdfm::kernels

#else  // non-x86: forward to the scalar kernels (cpuid reports unsupported)

namespace tdfm::kernels {

void dw_forward_avx2(const DwPlan& plan, const float* in, const float* filter,
                     float bias, float* out, float* scratch) {
  dw_forward_scalar(plan, in, filter, bias, out, scratch);
}
void dw_input_grad_avx2(const DwPlan& plan, const float* gout,
                        const float* filter, float* din, float* scratch) {
  dw_input_grad_scalar(plan, gout, filter, din, scratch);
}
void dw_weight_grad_avx2(const DwPlan& plan, const float* in,
                         const float* gout, float* dfilter, float* dbias,
                         float* scratch) {
  dw_weight_grad_scalar(plan, in, gout, dfilter, dbias, scratch);
}

}  // namespace tdfm::kernels

#endif
