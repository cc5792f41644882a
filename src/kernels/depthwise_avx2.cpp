// AVX2+FMA depthwise kernels: one channel per lane, kDwLanes channels per
// vector, on the channel-lane grids of depthwise.cpp.  Compiled with -mavx2
// -mfma and contraction off (see kernels/CMakeLists.txt), so every fused
// operation below is an explicit intrinsic.  Per lane each kernel repeats
// the operation sequence of the per-plane avx2 loops it replaced:
//  - forward: an FMA chain from +0 over the taps in (ky, kx) order, the
//    border's zeros included, then the bias add — the avx2 nn micro-tile's
//    chain, so the output is bit-identical to im2col + this table's nn;
//  - input gradient: gathered per element, one rounded product added per
//    tap in tap order (mul, then add), reading the zero border for outputs
//    outside the plane.  A zero filter tap is masked to add +0, where the
//    tn kernel skips it: the sum starts at +0 and never becomes -0, so
//    adding +0 changes nothing, and a NaN or Inf gradient under a zero tap
//    cannot leak in.  For finite filters this is tn's fma(w, g, 0) followed
//    by col2im's adds;
//  - weight gradient: output column x feeds x-lane x mod 8, each x-lane an
//    FMA chain over (y, x div 8) from +0, then the x-lanes summed in
//    hsum256's tree ((a0+a4)+(a2+a6)) + ((a1+a5)+(a3+a7)) — the per-plane
//    loop's 8-column vectors and horizontal sum.  An x-lane past the last
//    column of a row adds +0, as the masked tail load did.
#include "kernels/gemm_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include "kernels/transpose8.hpp"

namespace tdfm::kernels {

namespace {

constexpr std::size_t L = kDwLanes;

// Writes `lanes` planes [lanes][rows][cols] into the channel-lane grid
// dst[grid_rows][grid_cols][L] at offset (lead, lead), zeros everywhere else
// (the border and the lanes past the run).
void pack_lanes(const float* src, std::size_t lanes, std::size_t rows,
                std::size_t cols, float* dst, std::size_t grid_rows,
                std::size_t grid_cols, std::size_t lead) {
  const __m256 zero = _mm256_setzero_ps();
  for (std::size_t r = 0; r < grid_rows; ++r) {
    float* row = dst + r * grid_cols * L;
    const bool inside = r >= lead && r < lead + rows;
    for (std::size_t c = 0; c < grid_cols; ++c) {
      if (!inside || c < lead || c >= lead + cols) _mm256_storeu_ps(row + c * L, zero);
    }
  }
  const std::size_t plane = rows * cols;
  std::size_t i = 0;
  if (lanes == L) {
    // Eight pixels of every lane at a time; pixel i sits at grid (r, c).
    std::size_t r = 0, c = 0;
    for (; i + 8 <= plane; i += 8) {
      __m256 v[8];
      load_transposed(src, plane, i, v);
      for (const __m256& px : v) {
        _mm256_storeu_ps(dst + ((r + lead) * grid_cols + lead + c) * L, px);
        if (++c == cols) {
          c = 0;
          ++r;
        }
      }
    }
  }
  for (; i < plane; ++i) {
    float* px = dst + ((i / cols + lead) * grid_cols + lead + i % cols) * L;
    for (std::size_t l = 0; l < L; ++l) px[l] = l < lanes ? src[l * plane + i] : 0.0F;
  }
}

// Copies the first `lanes` lanes of a [pixels][L] grid out to planes
// [lanes][pixels].
void unpack_lanes(const float* src, std::size_t lanes, std::size_t pixels,
                  float* dst) {
  std::size_t i = 0;
  for (; i + 8 <= pixels; i += 8) {
    __m256 v[8];
    for (std::size_t p = 0; p < 8; ++p) v[p] = _mm256_loadu_ps(src + (i + p) * L);
    transpose8(v);
    for (std::size_t l = 0; l < lanes; ++l) _mm256_storeu_ps(dst + l * pixels + i, v[l]);
  }
  for (; i < pixels; ++i) {
    for (std::size_t l = 0; l < lanes; ++l) dst[l * pixels + i] = src[i * L + l];
  }
}

// hsum256's tree over the x-lanes: ((a0+a4)+(a2+a6)) + ((a1+a5)+(a3+a7)).
inline __m256 xlane_tree(const __m256 (&a)[8]) {
  const __m256 s0 = _mm256_add_ps(a[0], a[4]);
  const __m256 s1 = _mm256_add_ps(a[1], a[5]);
  const __m256 s2 = _mm256_add_ps(a[2], a[6]);
  const __m256 s3 = _mm256_add_ps(a[3], a[7]);
  return _mm256_add_ps(_mm256_add_ps(s0, s2), _mm256_add_ps(s1, s3));
}

// One x-lane chain per output column mod 8 over the [oh][ow][L] gradient
// grid, then the tree: with `kWithInput` the dot with the input window whose
// pixel (y, x) sits at window + y * row_step + x * col_step, else the
// gradient's sum (the bias).  An x-lane that no column of a row reaches
// skips the row; the reference loops add +0 there, which changes no bit of
// an accumulator that starts at +0 and only adds.
template <bool kWithInput>
__m256 xlane_sum(const float* grad, const float* window, std::size_t oh,
                 std::size_t ow, std::size_t col_step, std::size_t row_step) {
  __m256 acc[8];
  for (__m256& a : acc) a = _mm256_setzero_ps();
  const std::size_t full = ow / 8 * 8;
  const std::size_t tail = ow - full;
  const auto step = [&](__m256& a, const float* g, const float* w) {
    a = kWithInput ? _mm256_fmadd_ps(_mm256_loadu_ps(g), _mm256_loadu_ps(w), a)
                   : _mm256_add_ps(a, _mm256_loadu_ps(g));
  };
  for (std::size_t y = 0; y < oh; ++y) {
    const float* grow = grad + y * ow * L;
    const float* wrow = window + y * row_step;
    for (std::size_t x0 = 0; x0 < full; x0 += 8) {
      for (std::size_t j = 0; j < 8; ++j) {
        step(acc[j], grow + (x0 + j) * L, wrow + (x0 + j) * col_step);
      }
    }
    for (std::size_t j = 0; j < tail; ++j) {
      step(acc[j], grow + (full + j) * L, wrow + (full + j) * col_step);
    }
  }
  return xlane_tree(acc);
}

// N output pixels of one row at once (independent chains, so their latency
// overlaps): the first one's window at `src`, the next `step` floats on.
template <std::size_t N>
void forward_pixels(const float* src, std::size_t step, const float* run,
                    std::size_t k, std::size_t row_floats, __m256 bias, float* dst) {
  __m256 acc[N];
  for (__m256& a : acc) a = _mm256_setzero_ps();
  const float* w = run;
  for (std::size_t ky = 0; ky < k; ++ky) {
    const float* r = src + ky * row_floats;
    for (std::size_t kx = 0; kx < k; ++kx, w += L) {
      const __m256 wv = _mm256_loadu_ps(w);
      for (std::size_t d = 0; d < N; ++d) {
        acc[d] = _mm256_fmadd_ps(wv, _mm256_loadu_ps(r + kx * L + d * step), acc[d]);
      }
    }
  }
  for (std::size_t d = 0; d < N; ++d) _mm256_storeu_ps(dst + d * L, _mm256_add_ps(acc[d], bias));
}

// N input pixels of one parity class and row at once: the first one's
// output (u, v) at `base`, the next one grid pixel on; stored `step` floats
// apart.
template <std::size_t N>
void input_grad_pixels(const float* base, const float* run, const float* masks,
                       std::size_t k, std::size_t s, std::size_t ry, std::size_t rx,
                       std::size_t row_floats, float* dst, std::size_t step) {
  __m256 acc[N];
  for (__m256& a : acc) a = _mm256_setzero_ps();
  for (std::size_t ky = ry, j = 0; ky < k; ky += s, ++j) {
    for (std::size_t kx = rx, m = 0; kx < k; kx += s, ++m) {
      const std::size_t t = ky * k + kx;
      const __m256 wv = _mm256_loadu_ps(run + t * L);
      const __m256 mask = _mm256_loadu_ps(masks + t * L);
      const float* src = base - j * row_floats - m * L;
      for (std::size_t d = 0; d < N; ++d) {
        acc[d] = _mm256_add_ps(
            acc[d], _mm256_and_ps(_mm256_mul_ps(wv, _mm256_loadu_ps(src + d * L)), mask));
      }
    }
  }
  for (std::size_t d = 0; d < N; ++d) _mm256_storeu_ps(dst + d * step, acc[d]);
}

// Runs `block.template operator()<N>(i)` over [0, n) in blocks of 8, 4, 2
// and 1 items.
template <typename Block>
void in_blocks(std::size_t n, Block&& block) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) block.template operator()<8>(i);
  for (; i + 4 <= n; i += 4) block.template operator()<4>(i);
  for (; i + 2 <= n; i += 2) block.template operator()<2>(i);
  for (; i < n; ++i) block.template operator()<1>(i);
}

}  // namespace

void dw_forward_avx2(const DwGeometry& g, std::size_t lanes, const float* in,
                     const float* run, float* out, float* scratch) {
  const DwLaneLayout lay = dw_lane_layout(g);
  const std::size_t k = g.kernel, s = g.stride, oh = g.out_h(), ow = g.out_w();
  const std::size_t row_floats = lay.pad_cols * L;
  float* grid = scratch;
  float* outg = scratch + lay.pad_rows * row_floats;
  pack_lanes(in, lanes, g.in_h, g.in_w, grid, lay.pad_rows, lay.pad_cols, g.pad);
  const __m256 bias = _mm256_loadu_ps(run + g.taps() * L);
  const std::size_t step = s * L;  // floats between neighbouring outputs' windows
  for (std::size_t y = 0; y < oh; ++y) {
    const float* window_row = grid + y * s * row_floats;
    float* orow = outg + y * ow * L;
    in_blocks(ow, [&]<std::size_t N>(std::size_t x) {
      forward_pixels<N>(window_row + x * step, step, run, k, row_floats, bias, orow + x * L);
    });
  }
  unpack_lanes(outg, lanes, oh * ow, out);
}

void dw_input_grad_avx2(const DwGeometry& g, std::size_t lanes,
                        const float* gout, const float* run, float* din,
                        float* scratch) {
  // Input pixel (iy, ix) of parity class (ry, rx) = ((iy + pad) mod s,
  // (ix + pad) mod s) is reached by taps ky = ry + j*s, kx = rx + m*s from
  // output (u - j, v - m), u = (iy + pad) / s, v = (ix + pad) / s: within one
  // class every tap reads at a fixed offset from the pixel's (u, v), and
  // neighbouring pixels of a row sit one grid pixel apart.
  const DwLaneLayout lay = dw_lane_layout(g);
  const std::size_t k = g.kernel, s = g.stride, p = g.pad;
  const std::size_t taps = g.taps();
  const std::size_t row_floats = lay.grad_cols * L;
  float* grad = scratch;
  float* ding = grad + lay.grad_rows * row_floats;
  float* masks = ding + g.in_h * g.in_w * L;
  pack_lanes(gout, lanes, g.out_h(), g.out_w(), grad, lay.grad_rows, lay.grad_cols,
             lay.grad_lead);
  for (std::size_t t = 0; t < taps; ++t) {
    _mm256_storeu_ps(masks + t * L, _mm256_cmp_ps(_mm256_loadu_ps(run + t * L),
                                                  _mm256_setzero_ps(), _CMP_NEQ_UQ));
  }
  // Grid pixel of output (u, v): u and v offset by the lead.
  const float* origin = grad + lay.grad_lead * (row_floats + L);
  for (std::size_t ry = 0; ry < s; ++ry) {
    for (std::size_t rx = 0; rx < s; ++rx) {
      // First input row/column of the class: (i + p) mod s == r.
      const std::size_t iy0 = (ry + s - p % s) % s;
      const std::size_t ix0 = (rx + s - p % s) % s;
      if (ix0 >= g.in_w) continue;
      const std::size_t count = (g.in_w - ix0 + s - 1) / s;  // class pixels per row
      for (std::size_t iy = iy0; iy < g.in_h; iy += s) {
        const float* base = origin + (iy + p) / s * row_floats + (ix0 + p) / s * L;
        float* drow = ding + (iy * g.in_w + ix0) * L;
        in_blocks(count, [&]<std::size_t N>(std::size_t i) {
          input_grad_pixels<N>(base + i * L, run, masks, k, s, ry, rx, row_floats,
                               drow + i * s * L, s * L);
        });
      }
    }
  }
  unpack_lanes(ding, lanes, g.in_h * g.in_w, din);
}

void dw_weight_grad_avx2(const DwGeometry& g, std::size_t lanes,
                         const float* in, const float* gout, float* dfilter,
                         float* dbias, float* scratch) {
  const DwLaneLayout lay = dw_lane_layout(g);
  const std::size_t k = g.kernel, s = g.stride, oh = g.out_h(), ow = g.out_w();
  const std::size_t taps = g.taps();
  const std::size_t row_floats = lay.pad_cols * L;
  float* grid = scratch;
  float* grad = grid + lay.pad_rows * row_floats;
  float* sums = grad + oh * ow * L;  // [taps + 1][L]: each tap's sum, the bias's
  pack_lanes(in, lanes, g.in_h, g.in_w, grid, lay.pad_rows, lay.pad_cols, g.pad);
  pack_lanes(gout, lanes, oh, ow, grad, oh, ow, 0);
  for (std::size_t ky = 0; ky < k; ++ky) {
    for (std::size_t kx = 0; kx < k; ++kx) {
      _mm256_storeu_ps(sums + (ky * k + kx) * L,
                       xlane_sum<true>(grad, grid + ky * row_floats + kx * L, oh, ow,
                                       s * L, s * row_floats));
    }
  }
  _mm256_storeu_ps(sums + taps * L, xlane_sum<false>(grad, grid, oh, ow, 0, 0));
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t t = 0; t < taps; ++t) dfilter[l * taps + t] += sums[t * L + l];
    dbias[l] += sums[taps * L + l];
  }
}

}  // namespace tdfm::kernels

#else  // non-x86: forward to the scalar kernels (cpuid reports unsupported)

namespace tdfm::kernels {

void dw_forward_avx2(const DwGeometry& g, std::size_t lanes, const float* in,
                     const float* run, float* out, float* scratch) {
  dw_forward_scalar(g, lanes, in, run, out, scratch);
}
void dw_input_grad_avx2(const DwGeometry& g, std::size_t lanes,
                        const float* gout, const float* run, float* din,
                        float* scratch) {
  dw_input_grad_scalar(g, lanes, gout, run, din, scratch);
}
void dw_weight_grad_avx2(const DwGeometry& g, std::size_t lanes,
                         const float* in, const float* gout, float* dfilter,
                         float* dbias, float* scratch) {
  dw_weight_grad_scalar(g, lanes, in, gout, dfilter, dbias, scratch);
}

}  // namespace tdfm::kernels

#endif
