// The stride-1 col2im gather on AVX2 (kernels.hpp, Col2ImFn): up to 8
// adjacent pixels of an input row per vector, 4 channels side by side.
//
// Each lane repeats the plain loop's element (col2im_scalar.cpp): its
// starting value, plus the patch cell of every tap that reads it from an
// in-plane output pixel, in (ky, kx) order.  A tap row misses the plane for
// a whole vector or for none of it, but a tap column can miss it for the
// lanes at a row's ends, and a row narrower than the vector leaves lanes
// past its last pixel.  Those lanes load through a mask and keep their
// accumulator by blend: adding the masked load's +0 instead would turn an
// accumulated -0 into +0.  A load's lane-0 address lies inside the image's
// patch rows even when that lane is masked (a tap column tx > pad is tx
// rows past the matrix start), so no pointer leaves the buffer; masked
// lanes read nothing.  The vectors beat the plain loops at every plane the
// model zoo has, 1x1 included, so there is no plain-loop path here.
#include "kernels/gemm_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <vector>

namespace tdfm::kernels {

namespace {

// How many of a vector's lanes a tap column reaches.
enum class Reach : unsigned char { kNone, kSome, kAll };

// Per vector of an input row (pixels x0 = 8 v onwards) and tap column tx:
// lane l reads output column x0 + pad + l - tx, live (-1) when that lies in
// [0, ow) and the lane is on the row's pixels.  `row` marks the lanes on
// the row's pixels.  The same for every row and channel.
struct LaneMasks {
  std::size_t k = 0;
  std::vector<int> live, row;
  std::vector<Reach> reach;

  LaneMasks(const DwGeometry& g, std::size_t vectors)
      : k(g.kernel), live(vectors * k * 8), row(vectors * 8), reach(vectors * k) {
    const auto ow = static_cast<std::ptrdiff_t>(g.out_w());
    for (std::size_t v = 0; v < vectors; ++v) {
      const auto x0 = static_cast<std::ptrdiff_t>(8 * v);
      const auto width = std::min<std::ptrdiff_t>(8, static_cast<std::ptrdiff_t>(g.in_w) - x0);
      for (std::ptrdiff_t l = 0; l < 8; ++l) row[v * 8 + l] = l < width ? -1 : 0;
      for (std::size_t tx = 0; tx < k; ++tx) {
        // Live lanes: [lo, hi).
        const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(tx) - x0 -
                                     static_cast<std::ptrdiff_t>(g.pad);
        const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, shift);
        const std::ptrdiff_t hi = std::min(width, ow + shift);
        for (std::ptrdiff_t l = 0; l < 8; ++l) {
          live[(v * k + tx) * 8 + l] = l >= lo && l < hi ? -1 : 0;
        }
        reach[v * k + tx] = lo >= hi                 ? Reach::kNone
                            : lo == 0 && hi == 8     ? Reach::kAll
                                                     : Reach::kSome;
      }
    }
  }
  [[nodiscard]] __m256i live_mask(std::size_t v, std::size_t tx) const {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(live.data() + (v * k + tx) * 8));
  }
  [[nodiscard]] __m256i row_mask(std::size_t v) const {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row.data() + v * 8));
  }
};

// C channels' planes side by side, one vector of each per step: their
// chains are independent, so C of them hide the latency of the adds.
template <int C>
void gather_planes(const DwGeometry& g, const float* columns, std::size_t row_stride,
                   float* image_grad, const LaneMasks& masks, std::size_t vectors) {
  const std::size_t k = g.kernel, oh = g.out_h(), ow = g.out_w();
  const std::size_t tap_rows = k * k * row_stride;  // one channel's patch rows
  const std::size_t plane = g.in_h * g.in_w;
  for (std::size_t y = 0; y < g.in_h; ++y) {
    const TapRange ky = tap_range(y, g.pad, k, oh);
    for (std::size_t v = 0; v < vectors; ++v) {
      const std::size_t x0 = 8 * v;
      const bool whole = x0 + 8 <= g.in_w;
      float* dst = image_grad + y * g.in_w + x0;
      __m256 acc[C];
      for (int c = 0; c < C; ++c) {
        acc[c] = whole ? _mm256_loadu_ps(dst + c * plane)
                       : _mm256_maskload_ps(dst + c * plane, masks.row_mask(v));
      }
      for (std::size_t ty = ky.first; ty < ky.last; ++ty) {
        // Tap (ty, tx) at lane 0 reads output (y + pad - ty, x0 + pad - tx).
        const float* src = columns + ty * k * row_stride + (y + g.pad - ty) * ow + x0 + g.pad;
        for (std::size_t tx = 0; tx < k; ++tx, src += row_stride - 1) {
          const Reach reach = masks.reach[v * k + tx];
          if (reach == Reach::kAll) {
            for (int c = 0; c < C; ++c) {
              acc[c] = _mm256_add_ps(acc[c], _mm256_loadu_ps(src + c * tap_rows));
            }
          } else if (reach == Reach::kSome) {
            const __m256i mask = masks.live_mask(v, tx);
            for (int c = 0; c < C; ++c) {
              const __m256 sum =
                  _mm256_add_ps(acc[c], _mm256_maskload_ps(src + c * tap_rows, mask));
              acc[c] = _mm256_blendv_ps(acc[c], sum, _mm256_castsi256_ps(mask));
            }
          }
        }
      }
      for (int c = 0; c < C; ++c) {
        if (whole) {
          _mm256_storeu_ps(dst + c * plane, acc[c]);
        } else {
          _mm256_maskstore_ps(dst + c * plane, masks.row_mask(v), acc[c]);
        }
      }
    }
  }
}

}  // namespace

void col2im_s1_avx2(const DwGeometry& g, std::size_t channels,
                    const float* columns, std::size_t row_stride,
                    float* image_grad) {
  const std::size_t vectors = (g.in_w + 7) / 8;
  const LaneMasks masks(g, vectors);
  const std::size_t tap_rows = g.kernel * g.kernel * row_stride;
  const std::size_t plane = g.in_h * g.in_w;
  std::size_t c = 0;
  for (; c + 4 <= channels; c += 4) {
    gather_planes<4>(g, columns + c * tap_rows, row_stride, image_grad + c * plane,
                     masks, vectors);
  }
  const float* rest = columns + c * tap_rows;
  float* rest_grad = image_grad + c * plane;
  switch (channels - c) {
    case 3: gather_planes<3>(g, rest, row_stride, rest_grad, masks, vectors); break;
    case 2: gather_planes<2>(g, rest, row_stride, rest_grad, masks, vectors); break;
    case 1: gather_planes<1>(g, rest, row_stride, rest_grad, masks, vectors); break;
    default: break;
  }
}

}  // namespace tdfm::kernels

#else  // non-x86: forward to the plain loops (cpuid reports avx2 unsupported)

namespace tdfm::kernels {

void col2im_s1_avx2(const DwGeometry& g, std::size_t channels,
                    const float* columns, std::size_t row_stride,
                    float* image_grad) {
  col2im_s1_scalar(g, channels, columns, row_stride, image_grad);
}

}  // namespace tdfm::kernels

#endif
