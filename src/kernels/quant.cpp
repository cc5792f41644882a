#include "kernels/quant.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/gemm_kernels.hpp"
#include "kernels/kernels.hpp"

namespace tdfm::kernels {

void quantize_q8_rows_scalar(const float* src, std::size_t rows,
                             std::size_t cols, std::int8_t* codes,
                             float* scales) {
  const std::size_t blocks = (cols + kQ8Block - 1) / kQ8Block;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* in = src + r * cols;
    for (std::size_t blk = 0; blk < blocks; ++blk) {
      const std::size_t base = blk * kQ8Block;
      const std::size_t len = std::min(kQ8Block, cols - base);
      float amax = 0.0F;
      for (std::size_t t = 0; t < len; ++t) {
        amax = std::max(amax, std::fabs(in[base + t]));  // NaN never wins
      }
      // amax == 0 (all-zero block): scale 0, every code 0 — exact.
      const float inv = amax > 0.0F ? 127.0F / amax : 0.0F;
      scales[r * blocks + blk] = amax / 127.0F;
      std::int8_t* q = codes + (r * blocks + blk) * kQ8Block;
      for (std::size_t t = 0; t < len; ++t) {
        const float scaled = in[base + t] * inv;
        q[t] = std::isfinite(scaled)
                   ? static_cast<std::int8_t>(
                         std::clamp<long>(std::lround(scaled), -127, 127))
                   : std::int8_t{-127};
      }
      for (std::size_t t = len; t < kQ8Block; ++t) q[t] = 0;
    }
  }
}

void quantize_rows_q8(const float* src, std::size_t rows, std::size_t cols,
                      Q8Matrix& out) {
  out.rows = rows;
  out.cols = cols;
  out.blocks_per_row = (cols + kQ8Block - 1) / kQ8Block;
  out.data.resize(rows * out.blocks_per_row * kQ8Block);
  out.scales.resize(rows * out.blocks_per_row);
  active_table().quantize_q8(src, rows, cols, out.data.data(),
                             out.scales.data());
}

Q8Matrix quantize_rows_q8(const float* src, std::size_t rows, std::size_t cols) {
  Q8Matrix out;
  quantize_rows_q8(src, rows, cols, out);
  return out;
}

void dequantize_rows_q8(const Q8Matrix& m, float* dst) {
  for (std::size_t r = 0; r < m.rows; ++r) {
    float* out = dst + r * m.cols;
    for (std::size_t blk = 0; blk < m.blocks_per_row; ++blk) {
      const std::size_t base = blk * kQ8Block;
      const std::size_t len = std::min(kQ8Block, m.cols - base);
      const float scale = m.scales[r * m.blocks_per_row + blk];
      const std::int8_t* q =
          m.data.data() + (r * m.blocks_per_row + blk) * kQ8Block;
      for (std::size_t t = 0; t < len; ++t) {
        out[base + t] = scale * static_cast<float>(q[t]);
      }
    }
  }
}

}  // namespace tdfm::kernels
