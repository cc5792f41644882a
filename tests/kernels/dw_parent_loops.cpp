// The parent depthwise loops, verbatim but for names.  Like the kernel TUs
// this file is compiled with -ffp-contract=off, so each product rounds
// before its addition exactly as in the library, and without vectorization,
// as the scalar kernel TU was; the avx2 copies enable their instruction set
// per function and are only called where cpuid reports it.
#include "dw_parent_loops.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace tdfm::kernels_test {

namespace {

std::size_t round8(std::size_t n) { return (n + 7) / 8 * 8; }

// Phase q of padded indexes s*i + q, for i in [begin, end), inside
// [pad, pad + n): appends the span and returns begin + its length rounded up
// to whole 8-lane vectors.
std::size_t phase_span(std::size_t q, std::size_t s, std::size_t pad,
                       std::size_t n, std::vector<std::size_t>& begins,
                       std::vector<std::size_t>& ends) {
  const std::size_t begin = q >= pad ? 0 : (pad - q + s - 1) / s;
  const std::size_t end = q >= pad + n ? begin : (pad + n - q + s - 1) / s;
  begins.push_back(begin);
  ends.push_back(end);
  return begin + round8(end - begin);
}

}  // namespace

ParentDwPlan parent_dw_plan(const ParentDwGeometry& g) {
  ParentDwPlan plan;
  plan.geom = g;
  plan.out_h = g.out_h();
  plan.out_w = g.out_w();
  const std::size_t s = g.stride;
  std::size_t widest = 0;  // furthest whole-vector store into a phase row
  std::size_t lowest = 0;  // phase row index past the last interior row
  for (std::size_t q = 0; q < s; ++q) {
    widest = std::max(widest, phase_span(q, s, g.pad, g.in_w, plan.col_begin,
                                         plan.col_end));
    phase_span(q, s, g.pad, g.in_h, plan.row_begin, plan.row_end);
    lowest = std::max(lowest, plan.row_end.back());
  }
  // Widest reads: element round8(ow) - 1 + (kernel - 1) / stride of a phase
  // row (sliding window), and the gather's whole-vector stores.
  plan.row_len = std::max({(g.in_w + 2 * g.pad + s - 1) / s,
                           round8(plan.out_w) + (g.kernel - 1) / s, widest});
  plan.row_step = s * s * plan.row_len;
  plan.plane_floats = (g.in_h + 2 * g.pad) * s * plan.row_len;
  plan.grad_lead = (g.kernel - 1) / s;
  plan.grad_rows = plan.grad_lead + std::max(plan.out_h, lowest);
  plan.grad_row_len = plan.grad_lead + std::max(widest, plan.out_w);
  plan.scratch_floats = plan.plane_floats + plan.grad_rows * plan.grad_row_len;
  for (std::size_t ky = 0; ky < g.kernel; ++ky) {
    for (std::size_t kx = 0; kx < g.kernel; ++kx) {
      plan.tap_offset.push_back((ky * s + kx % s) * plan.row_len + kx / s);
    }
  }
  return plan;
}

static void parent_dw_pad(const ParentDwPlan& plan, const float* in, float* scratch) {
  const ParentDwGeometry& g = plan.geom;
  const std::size_t s = g.stride;
  std::memset(scratch, 0, plan.plane_floats * sizeof(float));
  for (std::size_t y = 0; y < g.in_h; ++y) {
    const float* src = in + y * g.in_w;
    float* row = scratch + (y + g.pad) * s * plan.row_len;
    if (s == 1) {
      std::memcpy(row + g.pad, src, g.in_w * sizeof(float));
      continue;
    }
    // Phase q holds padded columns q, q + s, ...; column c is src[c - pad].
    for (std::size_t q = 0; q < s; ++q) {
      float* dst = row + q * plan.row_len;
      std::size_t i = 0;
      for (std::size_t c = q; c < g.pad + g.in_w; c += s, ++i) {
        if (c >= g.pad) dst[i] = src[c - g.pad];
      }
    }
  }
}

static void parent_dw_unpad(const ParentDwPlan& plan, const float* scratch, float* out) {
  const ParentDwGeometry& g = plan.geom;
  const std::size_t s = g.stride;
  for (std::size_t y = 0; y < g.in_h; ++y) {
    float* dst = out + y * g.in_w;
    const float* row = scratch + (y + g.pad) * s * plan.row_len;
    if (s == 1) {
      std::memcpy(dst, row + g.pad, g.in_w * sizeof(float));
      continue;
    }
    for (std::size_t q = 0; q < s; ++q) {
      const float* src = row + q * plan.row_len;
      std::size_t i = 0;
      for (std::size_t c = q; c < g.pad + g.in_w; c += s, ++i) {
        if (c >= g.pad) dst[c - g.pad] = src[i];
      }
    }
  }
}

void dw_parent_forward_scalar(const ParentDwPlan& plan, const float* in,
                       const float* filter, float bias, float* out,
                       float* scratch) {
  parent_dw_pad(plan, in, scratch);
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

void dw_parent_input_grad_scalar(const ParentDwPlan& plan, const float* gout,
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
  parent_dw_unpad(plan, scratch, din);
}

void dw_parent_weight_grad_scalar(const ParentDwPlan& plan, const float* in,
                           const float* gout, float* dfilter, float* dbias,
                           float* scratch) {
  parent_dw_pad(plan, in, scratch);
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

#if defined(__x86_64__) || defined(__i386__)

namespace {

// Mask with the first `rem` (1..7) lanes active (as in gemm_avx2.cpp).
__attribute__((target("avx2,fma")))
inline __m256i tail_mask(std::size_t rem) {
  alignas(32) static const int table[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                            0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(table + 8 - rem));
}

__attribute__((target("avx2,fma")))
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

void parent_dw_pad_gradient(const ParentDwPlan& plan, const float* gout, float* scratch) {
  float* grad = scratch + plan.plane_floats;
  std::memset(grad, 0, plan.grad_rows * plan.grad_row_len * sizeof(float));
  for (std::size_t y = 0; y < plan.out_h; ++y) {
    std::memcpy(grad + (y + plan.grad_lead) * plan.grad_row_len + plan.grad_lead,
                gout + y * plan.out_w, plan.out_w * sizeof(float));
  }
}

}  // namespace

__attribute__((target("avx2,fma")))
void dw_parent_forward_avx2(const ParentDwPlan& plan, const float* in, const float* filter,
                     float bias, float* out, float* scratch) {
  parent_dw_pad(plan, in, scratch);
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

__attribute__((target("avx2,fma")))
void dw_parent_input_grad_avx2(const ParentDwPlan& plan, const float* gout,
                        const float* filter, float* din, float* scratch) {
  // Gather form: each 8-element run of a padded phase row sums, in tap
  // order, the products of the taps that reach it and is stored once — no
  // overlapping read-modify-write.  Element i of phase q (padded column
  // s*i + q) is reached by tap kx = q + m*s from output column i - m, and
  // phase row u of row phase p (padded row s*u + p) by tap ky = p + j*s
  // from output row u - j.  Pixels outside the gradient plane read its zero
  // border, adding w*0 = +-0, which leaves the sum unchanged for finite
  // filters.
  const ParentDwGeometry& g = plan.geom;
  const std::size_t k = g.kernel, s = g.stride;
  const std::size_t grl = plan.grad_row_len;
  parent_dw_pad_gradient(plan, gout, scratch);
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
  parent_dw_unpad(plan, scratch, din);
}

__attribute__((target("avx2,fma")))
void dw_parent_weight_grad_avx2(const ParentDwPlan& plan, const float* in,
                         const float* gout, float* dfilter, float* dbias,
                         float* scratch) {
  parent_dw_pad(plan, in, scratch);
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


#else  // non-x86: the avx2 table is unsupported and never checked

void dw_parent_forward_avx2(const ParentDwPlan& plan, const float* in,
                            const float* filter, float bias, float* out,
                            float* scratch) {
  dw_parent_forward_scalar(plan, in, filter, bias, out, scratch);
}
void dw_parent_input_grad_avx2(const ParentDwPlan& plan, const float* gout,
                               const float* filter, float* din, float* scratch) {
  dw_parent_input_grad_scalar(plan, gout, filter, din, scratch);
}
void dw_parent_weight_grad_avx2(const ParentDwPlan& plan, const float* in,
                                const float* gout, float* dfilter, float* dbias,
                                float* scratch) {
  dw_parent_weight_grad_scalar(plan, in, gout, dfilter, dbias, scratch);
}

#endif

}  // namespace tdfm::kernels_test
