// q8_0 block quantization (llama.cpp-style).
//
// A row of k floats becomes ceil(k/32) blocks; each block stores 32 int8
// codes plus one fp32 scale = max|v| / 127.  Tail blocks are zero-padded, so
// a padded block contributes exactly 0 to any dot product and quantized
// operands of mismatched-but-equal logical width stay comparable.  Per fp32
// weight: 1 byte of code + 4/32 bytes of scale ≈ 1.125 bytes, a ~3.9x size
// reduction (the "4x smaller" served networks of the serving layer).
//
// Quantization is deterministic and exact, one rule for every kernel table
// (quantize_rows_q8 dispatches through KernelTable::quantize_q8; the plain
// loop in quant.cpp is the scalar reference):
//   - amax = max |v| over the block's elements, NaN elements ignored;
//   - scale = amax / 127, inverse = 127 / amax (0 for an all-zero block);
//   - code = v * inverse rounded half away from zero (std::lround's rule,
//     independent of the FP environment), clamped to [-127, 127];
//   - a scaled value that is not finite gets code -127.  That covers a NaN
//     element; an Inf element (amax = Inf, so scale = +Inf and the inverse
//     is 0: Inf * 0 is NaN, while the block's finite elements get 0); and
//     every element of a block whose amax is so small that 127 / amax
//     overflows.  (-127 is what the clamp made of glibc's lround result for
//     such values, LONG_MIN, which C++ leaves unspecified; keeping it keeps
//     every existing q8 output.)
// Codes are never -128, but the matmul accepts the full int8 range (the
// pipeline's weight-corruption drill writes arbitrary bytes).
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernels/aligned.hpp"

namespace tdfm::kernels {

inline constexpr std::size_t kQ8Block = 32;

/// A row-major matrix quantized row-wise: every row is an independent
/// sequence of q8_0 blocks over its `cols` entries.
struct Q8Matrix {
  std::size_t rows = 0;
  std::size_t cols = 0;            ///< logical (unpadded) row width
  std::size_t blocks_per_row = 0;  ///< ceil(cols / 32)
  AlignedBuffer<std::int8_t> data;  ///< [rows * blocks_per_row * 32]
  AlignedBuffer<float> scales;      ///< [rows * blocks_per_row]

  [[nodiscard]] bool empty() const { return rows == 0; }
};

/// Quantizes `rows` x `cols` row-major floats into `out`, reusing its
/// storage when large enough (hot-path activation quantization).
void quantize_rows_q8(const float* src, std::size_t rows, std::size_t cols,
                      Q8Matrix& out);

/// Convenience allocating overload (weight quantization, tests).
[[nodiscard]] Q8Matrix quantize_rows_q8(const float* src, std::size_t rows,
                                        std::size_t cols);

/// Reconstructs `rows * cols` floats (scale * code); round-trip error per
/// element is at most half a quantization step, scale/2.
void dequantize_rows_q8(const Q8Matrix& m, float* dst);

}  // namespace tdfm::kernels
