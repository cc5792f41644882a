#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/error.hpp"
#include "kernels/kernels.hpp"

namespace tdfm {

namespace {
// 1x1, stride 1, no padding: the patch matrix is the image itself, one row
// per channel plane.
bool is_pointwise(const ConvGeometry& g) {
  return g.kernel == 1 && g.stride == 1 && g.pad == 0;
}

// The in-plane outputs of one stride-1 tap that reads `shift` rows or
// columns away from its output pixel: those at [lo, hi) of `out` outputs
// over an input extent of `in` (lo == hi when the tap misses the plane).
std::pair<std::size_t, std::size_t> tap_span(std::ptrdiff_t shift, std::size_t in,
                                             std::size_t out) {
  const auto sout = static_cast<std::ptrdiff_t>(out);
  const std::ptrdiff_t lo = std::clamp<std::ptrdiff_t>(-shift, 0, sout);
  const std::ptrdiff_t hi =
      std::clamp<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(in) - shift, lo, sout);
  return {static_cast<std::size_t>(lo), static_cast<std::size_t>(hi)};
}

// im2col for stride 1 with output planes the size of the input (2*pad + 1
// == k).  Output pixel o = y*w + x of tap (ky, kx) then reads input o +
// dy*w + dx with dy = ky - pad and dx = kx - pad, a constant shift, so the
// in-plane pixels [y0, y1) x [x0, x1) are one block copy.  The block also
// carries the cells between one output row's x1 and the next one's x0,
// wrapped in from the neighbouring input rows; they and the rows outside
// [y0, y1) are zeroed after the copy.  Every write stays inside the tap
// row's h*w cells.
void im2col_same_size(const ConvGeometry& g, const float* image, float* columns,
                      std::size_t row_stride, std::size_t col_offset) {
  const std::size_t h = g.in_h;
  const std::size_t w = g.in_w;
  const std::size_t cells = h * w;
  float* out_row = columns + col_offset;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    const float* plane = image + c * cells;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      const auto dy = static_cast<std::ptrdiff_t>(ky) - static_cast<std::ptrdiff_t>(g.pad);
      const auto [y0, y1] = tap_span(dy, h, h);
      for (std::size_t kx = 0; kx < g.kernel; ++kx, out_row += row_stride) {
        const auto dx = static_cast<std::ptrdiff_t>(kx) - static_cast<std::ptrdiff_t>(g.pad);
        const auto [x0, x1] = tap_span(dx, w, w);
        if (y0 == y1 || x0 == x1) {
          std::fill(out_row, out_row + cells, 0.0F);
          continue;
        }
        const std::size_t first = y0 * w + x0;
        const std::size_t last = (y1 - 1) * w + x1;  // one past the block
        const std::ptrdiff_t shift = dy * static_cast<std::ptrdiff_t>(w) + dx;
        std::memcpy(out_row + first,
                    plane + static_cast<std::size_t>(static_cast<std::ptrdiff_t>(first) + shift),
                    (last - first) * sizeof(float));
        std::fill(out_row, out_row + first, 0.0F);
        for (std::size_t y = y0; y + 1 < y1; ++y) {
          std::fill(out_row + y * w + x1, out_row + (y + 1) * w + x0, 0.0F);
        }
        std::fill(out_row + last, out_row + cells, 0.0F);
      }
    }
  }
}

}  // namespace

void im2col(const ConvGeometry& g, const float* image, float* columns,
            std::size_t row_stride, std::size_t col_offset) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  if (row_stride == 0) row_stride = oh * ow;
  if (is_pointwise(g)) {
    const std::size_t plane = g.in_h * g.in_w;
    for (std::size_t c = 0; c < g.in_c; ++c) {
      std::memcpy(columns + c * row_stride + col_offset, image + c * plane,
                  plane * sizeof(float));
    }
    return;
  }
  if (g.stride == 1 && ow == g.in_w) {
    im2col_same_size(g, image, columns, row_stride, col_offset);
    return;
  }
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    const float* plane = image + c * g.in_h * g.in_w;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
        float* out_row = columns + row * row_stride + col_offset;
        for (std::size_t y = 0; y < oh; ++y) {
          // Signed source row: may fall in the zero padding.
          const std::ptrdiff_t sy =
              static_cast<std::ptrdiff_t>(y * g.stride + ky) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (sy < 0 || sy >= static_cast<std::ptrdiff_t>(g.in_h)) {
            for (std::size_t x = 0; x < ow; ++x) out_row[y * ow + x] = 0.0F;
            continue;
          }
          const float* src = plane + static_cast<std::size_t>(sy) * g.in_w;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t sx =
                static_cast<std::ptrdiff_t>(x * g.stride + kx) -
                static_cast<std::ptrdiff_t>(g.pad);
            out_row[y * ow + x] =
                (sx < 0 || sx >= static_cast<std::ptrdiff_t>(g.in_w))
                    ? 0.0F
                    : src[static_cast<std::size_t>(sx)];
          }
        }
      }
    }
  }
}

bool reads_in_place(const ConvGeometry& g) {
  return g.stride == 1 && 2 * g.pad + 1 == g.kernel && g.out_w() % 8 == 0;
}

InPlacePatches::InPlacePatches(const ConvGeometry& g) : g_(g) {
  TDFM_CHECK(reads_in_place(g), "InPlacePatches: the geometry needs im2col");
  const std::size_t bw = g.in_w + 2 * g.pad;
  const std::size_t bplane = (g.in_h + 2 * g.pad) * bw;
  bordered_floats_ = g.in_c * bplane;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx) {
        row_off_.push_back(c * bplane + ky * bw + kx);
      }
    }
  }
  for (std::size_t y = 0; y < g.out_h(); ++y) {
    for (std::size_t x = 0; x < g.out_w(); x += 8) col_off_.push_back(y * bw + x);
  }
}

void InPlacePatches::fill_interior(const float* image, float* dst) const {
  const std::size_t bw = g_.in_w + 2 * g_.pad;
  float* row = dst + g_.pad * bw + g_.pad;
  for (std::size_t c = 0; c < g_.in_c; ++c, row += 2 * g_.pad * bw) {
    for (std::size_t y = 0; y < g_.in_h; ++y, row += bw, image += g_.in_w) {
      std::memcpy(row, image, g_.in_w * sizeof(float));
    }
  }
}

namespace {

// im2row for a k x k filter that is not pointwise; K > 0 fixes k at compile
// time (the model zoo's k = 3) so a tap row is a fixed-length copy.  The
// taps of output pixel (y, x) read rows sy + ky and columns sx + kx; the
// in-image ones are ky in [ky0, ky1) and kx in [kx0, kx1), worked out once
// per output row and column instead of per tap.
template <std::size_t K>
void im2row_taps(const ConvGeometry& g, const float* image, float* dst) {
  const std::size_t k = K > 0 ? K : g.kernel;
  const std::size_t plane = g.in_h * g.in_w;
  const auto sk = static_cast<std::ptrdiff_t>(k);
  const auto taps = [sk](std::ptrdiff_t s, std::size_t extent) {
    const std::ptrdiff_t lo = std::clamp<std::ptrdiff_t>(-s, 0, sk);
    const std::ptrdiff_t hi =
        std::clamp<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(extent) - s, lo, sk);
    return std::pair<std::size_t, std::size_t>(lo, hi);
  };
  for (std::size_t y = 0; y < g.out_h(); ++y) {
    const std::ptrdiff_t sy = static_cast<std::ptrdiff_t>(y * g.stride) -
                              static_cast<std::ptrdiff_t>(g.pad);
    const auto [ky0, ky1] = taps(sy, g.in_h);
    for (std::size_t x = 0; x < g.out_w(); ++x) {
      const std::ptrdiff_t sx = static_cast<std::ptrdiff_t>(x * g.stride) -
                                static_cast<std::ptrdiff_t>(g.pad);
      const auto [kx0, kx1] = taps(sx, g.in_w);
      if (ky0 == 0 && ky1 == k && kx0 == 0 && kx1 == k) {
        // Interior pixel: every tap row is a run of k floats.
        const float* src = image + static_cast<std::size_t>(sy) * g.in_w +
                           static_cast<std::size_t>(sx);
        for (std::size_t c = 0; c < g.in_c; ++c, src += plane) {
          for (std::size_t ky = 0; ky < k; ++ky, dst += k) {
            const float* run = src + ky * g.in_w;
            for (std::size_t kx = 0; kx < k; ++kx) dst[kx] = run[kx];
          }
        }
        continue;
      }
      for (std::size_t c = 0; c < g.in_c; ++c) {
        const float* chan = image + c * plane;
        for (std::size_t ky = 0; ky < k; ++ky, dst += k) {
          if (ky < ky0 || ky >= ky1) {
            for (std::size_t kx = 0; kx < k; ++kx) dst[kx] = 0.0F;
            continue;
          }
          const float* run =
              chan + static_cast<std::size_t>(sy + static_cast<std::ptrdiff_t>(ky)) * g.in_w;
          for (std::size_t kx = 0; kx < kx0; ++kx) dst[kx] = 0.0F;
          for (std::size_t kx = kx0; kx < kx1; ++kx) {
            dst[kx] = run[sx + static_cast<std::ptrdiff_t>(kx)];
          }
          for (std::size_t kx = kx1; kx < k; ++kx) dst[kx] = 0.0F;
        }
      }
    }
  }
}

}  // namespace

void im2row(const ConvGeometry& g, const float* image, float* rows_out) {
  if (is_pointwise(g)) {
    // The patch rows are the image transposed, [C, H*W] -> [H*W, C].  The
    // strided reads stay in the C cache lines of the current pixels.
    const std::size_t plane = g.in_h * g.in_w;
    for (std::size_t p = 0; p < plane; ++p) {
      for (std::size_t c = 0; c < g.in_c; ++c) {
        rows_out[p * g.in_c + c] = image[c * plane + p];
      }
    }
  } else if (g.kernel == 3) {
    im2row_taps<3>(g, image, rows_out);
  } else {
    im2row_taps<0>(g, image, rows_out);
  }
}

void col2im(const ConvGeometry& g, const float* columns, float* image_grad,
            std::size_t row_stride, std::size_t col_offset) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  if (row_stride == 0) row_stride = oh * ow;
  if (is_pointwise(g)) {
    // One addition per element, as in the general loop below.
    const std::size_t plane = g.in_h * g.in_w;
    for (std::size_t c = 0; c < g.in_c; ++c) {
      const float* src = columns + c * row_stride + col_offset;
      float* dst = image_grad + c * plane;
      for (std::size_t i = 0; i < plane; ++i) dst[i] += src[i];
    }
    return;
  }
  if (g.stride == 1) {
    // Each element gathers its taps in (ky, kx) order: the additions of
    // the loop below, stored once.
    kernels::active_table().col2im_s1({g.in_h, g.in_w, g.kernel, 1, g.pad}, g.in_c,
                                      columns + col_offset, row_stride, image_grad);
    return;
  }
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    float* plane = image_grad + c * g.in_h * g.in_w;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const float* in_row = columns + row * row_stride + col_offset;
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t sy =
              static_cast<std::ptrdiff_t>(y * g.stride + ky) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (sy < 0 || sy >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
          float* dst = plane + static_cast<std::size_t>(sy) * g.in_w;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t sx =
                static_cast<std::ptrdiff_t>(x * g.stride + kx) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (sx < 0 || sx >= static_cast<std::ptrdiff_t>(g.in_w)) continue;
            dst[static_cast<std::size_t>(sx)] += in_row[y * ow + x];
          }
        }
      }
    }
  }
}

}  // namespace tdfm
