// The stride-1 col2im gather as plain loops (kernels.hpp, Col2ImFn): the
// scalar table's entry.  Compiled like gemm_scalar.cpp
// (vectorization and FP contraction off).
//
// Each input element starts from its value in the buffer, adds the patch
// cell of every tap that reads it from an in-plane output pixel, in (ky, kx)
// order, and is stored once: the additions of tdfm::col2im's generic loop
// (tap row by tap row), in the same order per element.  A tap that reads
// the element from the padding is not added at all, so an element whose
// taps all miss keeps its bits, -0 included.
#include "kernels/gemm_kernels.hpp"

namespace tdfm::kernels {

void col2im_s1_scalar(const DwGeometry& g, std::size_t channels,
                      const float* columns, std::size_t row_stride,
                      float* image_grad) {
  const std::size_t k = g.kernel, oh = g.out_h(), ow = g.out_w();
  for (std::size_t c = 0; c < channels; ++c) {
    const float* taps = columns + c * k * k * row_stride;
    float* plane = image_grad + c * g.in_h * g.in_w;
    for (std::size_t y = 0; y < g.in_h; ++y) {
      const TapRange ky = tap_range(y, g.pad, k, oh);
      for (std::size_t x = 0; x < g.in_w; ++x) {
        const TapRange kx = tap_range(x, g.pad, k, ow);
        float acc = plane[y * g.in_w + x];
        for (std::size_t ty = ky.first; ty < ky.last; ++ty) {
          const float* row = taps + ty * k * row_stride + (y + g.pad - ty) * ow + x + g.pad;
          for (std::size_t tx = kx.first; tx < kx.last; ++tx) {
            acc += row[tx * row_stride - tx];
          }
        }
        plane[y * g.in_w + x] = acc;
      }
    }
  }
}

}  // namespace tdfm::kernels
