// im2col / col2im transforms.
//
// Convolution is implemented as GEMM over an unrolled patch matrix: each
// output pixel's receptive field becomes one column of a
// [C*kh*kw, out_h*out_w] matrix, so conv forward is a single
// [out_c, C*kh*kw] x [C*kh*kw, out_h*out_w] GEMM per image.  col2im is the
// adjoint, used to push gradients back to the input image.
//
// Stride-1 geometries whose output plane is the size of the input, with
// output rows of whole 8-pixel blocks (reads_in_place), need no unrolled
// copy: every tap row is the image shifted by a constant, so InPlacePatches
// addresses the matrix in a copy of the image with a zero border and the
// GEMMs of tensor/gemm.hpp read it there, seeing the bits im2col writes.
#pragma once

#include <cstddef>
#include <vector>

#include "kernels/kernels.hpp"

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

/// Whether a GEMM can read g's patch matrix in place, with no im2col:
/// stride 1, output planes the size of the input (2*pad + 1 == k), and
/// output rows of whole 8-pixel blocks (out_w % 8 == 0).
[[nodiscard]] bool reads_in_place(const ConvGeometry& g);

/// The patch matrix of one image of a reads_in_place geometry, addressed in
/// its bordered copy: the [C, H + 2*pad, W + 2*pad] planes holding the image
/// in their interior and +0.0f in the pad-wide border.  Tap row (c, ky, kx)
/// of output pixel (y, x) is bordered cell (c, y + ky, x + kx): the input
/// value im2col copies there, or a border cell holding the 0.0F it writes.
/// So the GEMMs over it (tensor/gemm.hpp) read the bits of im2col's matrix.
/// With pad 0 (1x1) the bordered copy is the image itself.
class InPlacePatches {
 public:
  explicit InPlacePatches(const ConvGeometry& g);

  /// patch_rows(): one per (c, ky, kx).
  [[nodiscard]] std::size_t taps() const { return row_off_.size(); }
  /// patch_cols(): one per output pixel.
  [[nodiscard]] std::size_t pixels() const { return 8 * col_off_.size(); }
  /// Floats of one image's bordered copy.
  [[nodiscard]] std::size_t bordered_floats() const { return bordered_floats_; }
  /// Copies `image` [C, H, W] into the interior of its bordered copy `dst`.
  /// No border cell is written: they must hold +0.0f already, as in a
  /// zero-filled buffer whose interiors alone are ever written.
  void fill_interior(const float* image, float* dst) const;
  /// The patch matrix read from bordered copy `bordered`.
  [[nodiscard]] kernels::ConvPatches view(const float* bordered) const {
    return {bordered, row_off_.data(), col_off_.data()};
  }

 private:
  ConvGeometry g_;
  std::size_t bordered_floats_;
  std::vector<std::size_t> row_off_;  ///< per tap row (c, ky, kx)
  std::vector<std::size_t> col_off_;  ///< per 8-pixel block
};

/// Adjoint of im2col: scatters the patch-matrix gradient back into the
/// image gradient [C, H, W].  The output buffer is accumulated into, so the
/// caller zeroes it first when appropriate.  `row_stride`/`col_offset`
/// address one image's slice of a batched patch matrix, as in im2col.
void col2im(const ConvGeometry& g, const float* columns, float* image_grad,
            std::size_t row_stride = 0, std::size_t col_offset = 0);

}  // namespace tdfm
