// im2col / col2im transforms.
//
// Convolution is implemented as GEMM over an unrolled patch matrix: each
// output pixel's receptive field becomes one column of a
// [C*kh*kw, out_h*out_w] matrix, so conv forward is a single
// [out_c, C*kh*kw] x [C*kh*kw, out_h*out_w] GEMM per image.  col2im is the
// adjoint, used to push gradients back to the input image.
#pragma once

#include <cstddef>

namespace tdfm {

/// Geometry of a 2-d convolution (square stride/padding per axis).
struct ConvGeometry {
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t pad = 1;

  [[nodiscard]] std::size_t out_h() const {
    return (in_h + 2 * pad - kernel) / stride + 1;
  }
  [[nodiscard]] std::size_t out_w() const {
    return (in_w + 2 * pad - kernel) / stride + 1;
  }
  /// Rows of the patch matrix: one per (channel, ky, kx).
  [[nodiscard]] std::size_t patch_rows() const { return in_c * kernel * kernel; }
  /// Columns of the patch matrix: one per output pixel.
  [[nodiscard]] std::size_t patch_cols() const { return out_h() * out_w(); }
};

/// Unrolls one image [C, H, W] into the patch matrix
/// [C*k*k, out_h*out_w] (row-major).  Out-of-bounds taps read as zero.
///
/// For batched convolution the patch matrices of several images live side
/// by side in one wide matrix [C*k*k, B*out_h*out_w] (nn::Conv2D batches the
/// images of small output planes this way): `row_stride` is that matrix's
/// row length and `col_offset` the image's first column.  The defaults
/// (0, 0) mean a stand-alone [C*k*k, out_h*out_w] matrix.
void im2col(const ConvGeometry& g, const float* image, float* columns,
            std::size_t row_stride = 0, std::size_t col_offset = 0);

/// Transposed unrolling: one *row* per output pixel, laid out
/// [out_h*out_w, C*k*k] with taps ordered (c, ky, kx) — the same order as a
/// Conv2D weight row — so quantized convolution can q8-quantize each patch
/// row and dot it against quantized weight rows directly (tensor/qgemm.hpp),
/// no transpose needed.  Out-of-bounds taps read as zero.  The patch rows of
/// consecutive images stack: image i of a group starts at row i*out_h*out_w
/// (nn::Conv2D's grouped quantized forward).
void im2row(const ConvGeometry& g, const float* image, float* rows_out);

/// Adjoint of im2col: scatters the patch-matrix gradient back into the
/// image gradient [C, H, W].  The output buffer is accumulated into, so the
/// caller zeroes it first when appropriate.  `row_stride`/`col_offset`
/// address one image's slice of a batched patch matrix, as in im2col.
void col2im(const ConvGeometry& g, const float* columns, float* image_grad,
            std::size_t row_stride = 0, std::size_t col_offset = 0);

}  // namespace tdfm
