#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace tdfm {

namespace {
// 1x1, stride 1, no padding: the patch matrix is the image itself, one row
// per channel plane.
bool is_pointwise(const ConvGeometry& g) {
  return g.kernel == 1 && g.stride == 1 && g.pad == 0;
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
          if (g.stride == 1) {
            // Stride-1 rows are a contiguous slide: source index is x + kx -
            // pad, so the valid span is one memcpy with zeroed flanks.
            const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(kx) -
                                         static_cast<std::ptrdiff_t>(g.pad);
            const std::size_t x0 = static_cast<std::size_t>(
                std::max<std::ptrdiff_t>(0, -shift));
            const std::size_t x1 = static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
                static_cast<std::ptrdiff_t>(g.in_w) - shift, 0,
                static_cast<std::ptrdiff_t>(ow)));
            float* dst = out_row + y * ow;
            for (std::size_t x = 0; x < x0; ++x) dst[x] = 0.0F;
            if (x1 > x0) {
              std::memcpy(dst + x0, src + static_cast<std::size_t>(
                                              static_cast<std::ptrdiff_t>(x0) + shift),
                          (x1 - x0) * sizeof(float));
            }
            for (std::size_t x = x1; x < ow; ++x) dst[x] = 0.0F;
            continue;
          }
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
