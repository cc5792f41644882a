// Conv2D's GEMM paths vs the per-image im2col reference (the depthwise
// kernels have their own checker, dw_checker_test.cpp).
//
// Grouped Conv2D: images whose output plane is under 64 px share one GEMM.
// The forward pass must be memcmp-equal to per-image GEMMs at every table;
// gradients within tolerance of the per-image reference, and exactly equal
// where the plane keeps the per-image path (>= 64 px).  A quantized Conv2D
// groups the same way (one im2row -> quantize -> q8 GEMM per group), and its
// forward pass must be memcmp-equal to one image at a time.
//
// In-place patches: every table's convolution forms of nn and nt, which
// read the patch matrix from a bordered copy of the image, must be
// memcmp-equal (any NaN matching any NaN) to im2col + the same table's nn
// and nt, with and without accumulation, on inputs and gradients holding
// +-0, +-Inf and NaN.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "checker.hpp"
#include "core/rng.hpp"
#include "kernels/kernels.hpp"
#include "nn/conv2d.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"

namespace tdfm {
namespace {

using kernels_test::bit_equal;
using kernels_test::bit_equal_or_nan;
using kernels_test::expect_allclose;
using kernels_test::KernelGuard;

struct ConvCase {
  std::size_t in_c, out_c, hw, kernel, stride, pad, batch;
};

TEST(ConvChecker, GroupedConv2DMatchesPerImagePath) {
  KernelGuard kernel_guard;
  const ConvCase cases[] = {
      {8, 8, 4, 1, 1, 0, 9},  // 1x1 on 4x4: groups of 4, the last one short
      {6, 5, 2, 3, 1, 1, 5},  // 2x2 plane: one short group of 16
      {3, 4, 5, 3, 2, 1, 7},  // 3x3 output plane: groups of 8
      {2, 3, 1, 1, 1, 0, 3},  // 1x1 plane
      {4, 3, 8, 3, 1, 1, 3},  // 8x8 = 64 px: the per-image path, patches in place
      {3, 8, 16, 3, 1, 1, 2},  // 16x16, patches in place
      {8, 5, 8, 1, 1, 0, 2},   // 1x1 on 8x8, the image read in place
      {3, 4, 8, 3, 2, 1, 2},   // stride 2 on 8x8: per image, im2col
  };
  for (const ConvCase& cc : cases) {
    const ConvGeometry cg{cc.in_c, cc.hw, cc.hw, cc.kernel, cc.stride, cc.pad};
    const std::size_t pr = cg.patch_rows();
    const std::size_t pc = cg.patch_cols();
    const std::size_t in_stride = cc.in_c * cc.hw * cc.hw;
    const std::size_t out_stride = cc.out_c * pc;
    const bool per_image = pc >= 64;
    for (const kernels::KernelKind kind : kernels::supported_kernels()) {
      kernels::set_active_kernel(kind);
      const std::string what = std::string(kernels::kernel_name(kind)) + " " +
                               std::to_string(cc.in_c) + "->" +
                               std::to_string(cc.out_c) + " plane " +
                               std::to_string(pc) + " batch " +
                               std::to_string(cc.batch);
      Rng rng(cc.in_c * 7 + cc.hw * 13 + cc.batch);
      nn::Conv2D conv(cc.in_c, cc.out_c, cc.hw, cc.hw, cc.kernel, cc.stride,
                      cc.pad, rng);
      Tensor x(Shape{cc.batch, cc.in_c, cc.hw, cc.hw});
      for (float& v : x.flat()) v = rng.normal();
      Tensor gy(Shape{cc.batch, cc.out_c, cg.out_h(), cg.out_w()});
      for (float& v : gy.flat()) v = rng.normal();
      const std::vector<nn::Parameter*> params = conv.parameters();
      const float* w = params[0]->value.data();
      const float* bias = params[1]->value.data();

      const Tensor y = conv.forward(x, true);
      const Tensor gx = conv.backward(gy);
      const Tensor y_eval = conv.forward(x, false);

      // Per-image reference, in the pre-grouping loop's operation order.
      std::vector<float> ref_y(cc.batch * out_stride);
      std::vector<float> ref_gx(cc.batch * in_stride, 0.0F);
      std::vector<float> ref_dw(cc.out_c * pr, 0.0F);
      std::vector<float> ref_db(cc.out_c, 0.0F);
      std::vector<float> columns(pr * pc), grad_columns(pr * pc), dw_b(cc.out_c * pr);
      for (std::size_t b = 0; b < cc.batch; ++b) {
        im2col(cg, x.data() + b * in_stride, columns.data());
        float* yb = ref_y.data() + b * out_stride;
        gemm_nn(cc.out_c, pc, pr, w, columns.data(), yb);
        for (std::size_t oc = 0; oc < cc.out_c; ++oc) {
          for (std::size_t j = 0; j < pc; ++j) yb[oc * pc + j] += bias[oc];
        }
        const float* gb = gy.data() + b * out_stride;
        gemm_nt(cc.out_c, pr, pc, gb, columns.data(), dw_b.data());
        for (std::size_t i = 0; i < dw_b.size(); ++i) ref_dw[i] += dw_b[i];
        for (std::size_t oc = 0; oc < cc.out_c; ++oc) {
          float acc = 0.0F;
          for (std::size_t j = 0; j < pc; ++j) acc += gb[oc * pc + j];
          ref_db[oc] += acc;
        }
        gemm_tn(pr, pc, cc.out_c, w, gb, grad_columns.data());
        col2im(cg, grad_columns.data(), ref_gx.data() + b * in_stride);
      }

      EXPECT_TRUE(bit_equal(y.data(), ref_y.data(), ref_y.size()))
          << "forward, " << what;
      EXPECT_TRUE(bit_equal(y_eval.data(), ref_y.data(), ref_y.size()))
          << "eval forward, " << what;
      const float* dw = params[0]->grad.data();
      const float* db = params[1]->grad.data();
      const std::size_t terms = cc.batch * pc;
      expect_allclose(dw, ref_dw.data(), ref_dw.size(), terms, "dW, " + what);
      expect_allclose(db, ref_db.data(), ref_db.size(), terms, "db, " + what);
      expect_allclose(gx.data(), ref_gx.data(), ref_gx.size(), cc.out_c,
                      "dX, " + what);
      if (per_image) {
        EXPECT_TRUE(bit_equal(dw, ref_dw.data(), ref_dw.size())) << what;
        EXPECT_TRUE(bit_equal(db, ref_db.data(), ref_db.size())) << what;
        EXPECT_TRUE(bit_equal(gx.data(), ref_gx.data(), ref_gx.size())) << what;
      }
    }
  }
}

TEST(ConvChecker, GroupedQuantizedConv2DMatchesPerImagePath) {
  KernelGuard kernel_guard;
  const ConvCase cases[] = {
      {8, 8, 4, 1, 1, 0, 9},   // 1x1 on 4x4: groups of 4, the last one short
      {6, 5, 2, 3, 1, 1, 17},  // 2x2 plane: a full group of 16 and a short one
      {3, 4, 5, 3, 2, 1, 7},   // 3x3 output plane: groups of 8
      {40, 9, 1, 1, 1, 0, 3},  // 1x1 plane, two q8 blocks per patch row
      {4, 3, 8, 3, 1, 1, 3},   // 8x8 = 64 px: the per-image path
  };
  for (const ConvCase& cc : cases) {
    const ConvGeometry cg{cc.in_c, cc.hw, cc.hw, cc.kernel, cc.stride, cc.pad};
    const std::size_t in_stride = cc.in_c * cc.hw * cc.hw;
    const std::size_t out_stride = cc.out_c * cg.patch_cols();
    Rng rng(cc.in_c * 11 + cc.hw * 3 + cc.batch);
    nn::Conv2D conv(cc.in_c, cc.out_c, cc.hw, cc.hw, cc.kernel, cc.stride, cc.pad, rng);
    conv.quantize_for_inference();
    Tensor x(Shape{cc.batch, cc.in_c, cc.hw, cc.hw});
    for (float& v : x.flat()) v = rng.normal();
    for (const kernels::KernelKind kind : kernels::supported_kernels()) {
      kernels::set_active_kernel(kind);
      const Tensor y = conv.forward(x, false);
      for (std::size_t b = 0; b < cc.batch; ++b) {
        Tensor xb(Shape{1, cc.in_c, cc.hw, cc.hw});
        std::memcpy(xb.data(), x.data() + b * in_stride, in_stride * sizeof(float));
        const Tensor yb = conv.forward(xb, false);
        EXPECT_TRUE(bit_equal(y.data() + b * out_stride, yb.data(), out_stride))
            << kernels::kernel_name(kind) << " " << cc.in_c << "->" << cc.out_c
            << " plane " << cg.patch_cols() << " image " << b << " of " << cc.batch;
      }
    }
  }
}

TEST(ConvChecker, InPlaceGemmsMatchIm2colPathBitForBit) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  struct Case {
    std::size_t in_c, h, w, kernel;
  };
  const Case cases[] = {
      // The zoo's in-place geometries at width 8: the 3x3 convs on 16x16
      // and 8x8 planes and the 1x1 convs of ResNet50 and MobileNet there.
      {3, 16, 16, 3}, {8, 16, 16, 3}, {16, 16, 16, 3}, {8, 8, 8, 3},
      {16, 8, 8, 3},  {32, 8, 8, 3},  {8, 16, 16, 1},  {16, 16, 16, 1},
      {16, 8, 8, 1},  {32, 8, 8, 1},
      // W = 8 with odd H: pixel counts of 8 * odd leave nt an 8-float step
      // after its 16-float ones.
      {3, 9, 8, 3}, {13, 3, 8, 3}, {1, 1, 8, 1},
      // W = 24, C = 1 and 13, a 5x5 filter.
      {1, 5, 24, 3}, {13, 4, 24, 1}, {3, 6, 24, 5}, {1, 8, 8, 3}, {13, 8, 8, 3},
  };
  for (const Case& cc : cases) {
    const ConvGeometry g{cc.in_c, cc.h, cc.w, cc.kernel, 1, cc.kernel / 2};
    ASSERT_TRUE(reads_in_place(g));
    const InPlacePatches patches(g);
    const std::size_t pr = g.patch_rows();
    const std::size_t pc = g.patch_cols();
    ASSERT_EQ(patches.taps(), pr);
    ASSERT_EQ(patches.pixels(), pc);
    Rng rng(cc.in_c * 131 + cc.h * 17 + cc.w * 3 + cc.kernel);
    std::vector<float> image(cc.in_c * cc.h * cc.w);
    for (float& v : image) v = rng.normal();
    // Signed zeros, infinities and NaN in the input, on its edges (which
    // the border pads) and inside.
    const float specials[] = {0.0F, -0.0F, kInf, -kInf, kNaN};
    for (std::size_t i = 0; i < std::size(specials); ++i) {
      image[(i * 37 + 1) % image.size()] = specials[i];
    }
    image.back() = -0.0F;
    std::vector<float> bordered(patches.bordered_floats(), 0.0F);
    patches.fill_interior(image.data(), bordered.data());
    std::vector<float> columns(pr * pc);
    im2col(g, image.data(), columns.data());
    const kernels::ConvPatches view = patches.view(bordered.data());
    for (const std::size_t out_c : {1, 7, 9, 16}) {
      std::vector<float> w(out_c * pr);
      for (float& v : w) v = rng.normal();
      std::vector<float> dy(out_c * pc);
      for (float& v : dy) v = rng.normal();
      for (std::size_t i = 0; i < std::size(specials); ++i) {
        dy[(i * 53 + 5) % dy.size()] = specials[(i + 2) % std::size(specials)];
      }
      for (const kernels::KernelKind kind : kernels::supported_kernels()) {
        const kernels::KernelTable& table = kernels::kernel_table(kind);
        for (const bool accumulate : {false, true}) {
          const std::string what =
              std::string(kernels::kernel_name(kind)) + " C=" + std::to_string(cc.in_c) +
              " " + std::to_string(cc.h) + "x" + std::to_string(cc.w) + " k" +
              std::to_string(cc.kernel) + " out_c=" + std::to_string(out_c) +
              (accumulate ? " accumulate" : "");
          std::vector<float> y0(out_c * pc), dw0(out_c * pr);
          for (float& v : y0) v = rng.normal();
          for (float& v : dw0) v = rng.normal();
          // Forward: C[out_c, pc] = W * patches.
          std::vector<float> y = y0, ref_y = y0;
          table.nn_conv(0, out_c, pc, pr, w.data(), view, y.data(), accumulate);
          table.nn(0, out_c, out_c, pc, pr, w.data(), columns.data(), ref_y.data(),
                   accumulate);
          EXPECT_TRUE(bit_equal_or_nan(y.data(), ref_y.data(), y.size()))
              << "nn, " << what;
          // Weight gradient: C[out_c, pr] = dY * patches^T.
          std::vector<float> dw = dw0, ref_dw = dw0;
          table.nt_conv(0, out_c, pr, pc, dy.data(), view, dw.data(), accumulate);
          table.nt(0, out_c, out_c, pr, pc, dy.data(), columns.data(), ref_dw.data(),
                   accumulate);
          EXPECT_TRUE(bit_equal_or_nan(dw.data(), ref_dw.data(), dw.size()))
              << "nt, " << what;
        }
      }
    }
  }
}

}  // namespace
}  // namespace tdfm
