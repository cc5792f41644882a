#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/rng.hpp"
#include "kernels/kernels.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"

namespace tdfm {
namespace {

// Naive reference GEMMs.
void ref_nn(std::size_t m, std::size_t n, std::size_t k, const float* a,
            const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) acc += double(a[i * k + p]) * b[p * n + j];
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

std::vector<float> random_matrix(std::size_t n, Rng& rng) {
  std::vector<float> m(n);
  for (auto& x : m) x = rng.normal();
  return m;
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(GemmShapes, NNMatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(m * 1000 + n * 10 + k);
  const auto a = random_matrix(m * k, rng);
  const auto b = random_matrix(k * n, rng);
  std::vector<float> c(m * n), ref(m * n);
  gemm_nn(m, n, k, a.data(), b.data(), c.data());
  ref_nn(m, n, k, a.data(), b.data(), ref.data());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-3F * (std::fabs(ref[i]) + 1.0F));
  }
}

TEST_P(GemmShapes, NTMatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(m + n + k);
  const auto a = random_matrix(m * k, rng);
  const auto bt = random_matrix(n * k, rng);  // stored [n, k]
  // Build B = bt^T in row-major [k, n] for the reference.
  std::vector<float> b(k * n);
  for (std::size_t p = 0; p < k; ++p) {
    for (std::size_t j = 0; j < n; ++j) b[p * n + j] = bt[j * k + p];
  }
  std::vector<float> c(m * n), ref(m * n);
  gemm_nt(m, n, k, a.data(), bt.data(), c.data());
  ref_nn(m, n, k, a.data(), b.data(), ref.data());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-3F * (std::fabs(ref[i]) + 1.0F));
  }
}

TEST_P(GemmShapes, TNMatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(7 * m + 3 * n + k);
  const auto at = random_matrix(k * m, rng);  // stored [k, m]
  const auto b = random_matrix(k * n, rng);
  std::vector<float> a(m * k);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) a[i * k + p] = at[p * m + i];
  }
  std::vector<float> c(m * n), ref(m * n);
  gemm_tn(m, n, k, at.data(), b.data(), c.data());
  ref_nn(m, n, k, a.data(), b.data(), ref.data());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-3F * (std::fabs(ref[i]) + 1.0F));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GemmShapes,
    ::testing::Values(std::make_tuple(1U, 1U, 1U), std::make_tuple(3U, 5U, 7U),
                      std::make_tuple(16U, 16U, 16U), std::make_tuple(8U, 256U, 72U),
                      std::make_tuple(65U, 70U, 130U),  // crosses block borders
                      std::make_tuple(1U, 300U, 9U)));

TEST(Gemm, AccumulateAddsToExisting) {
  Rng rng(5);
  const auto a = random_matrix(4, rng);
  const auto b = random_matrix(4, rng);
  std::vector<float> c(4, 1.0F), once(4);
  gemm_nn(2, 2, 2, a.data(), b.data(), once.data());
  gemm_nn(2, 2, 2, a.data(), b.data(), c.data(), /*accumulate=*/true);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(c[i], once[i] + 1.0F, 1e-5F);
}

TEST(Gemm, OverwriteClearsExisting) {
  Rng rng(6);
  const auto a = random_matrix(4, rng);
  const auto b = random_matrix(4, rng);
  std::vector<float> c(4, 42.0F), once(4);
  gemm_nn(2, 2, 2, a.data(), b.data(), once.data());
  gemm_nn(2, 2, 2, a.data(), b.data(), c.data(), /*accumulate=*/false);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(c[i], once[i], 1e-6F);
}

// ------------------------------------------------------------------ im2col

TEST(Im2Col, GeometryMath) {
  const ConvGeometry g{3, 16, 16, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 16U);
  EXPECT_EQ(g.out_w(), 16U);
  EXPECT_EQ(g.patch_rows(), 27U);
  EXPECT_EQ(g.patch_cols(), 256U);
  const ConvGeometry strided{8, 16, 16, 3, 2, 1};
  EXPECT_EQ(strided.out_h(), 8U);
  const ConvGeometry pointwise{8, 4, 4, 1, 1, 0};
  EXPECT_EQ(pointwise.out_h(), 4U);
  EXPECT_EQ(pointwise.patch_rows(), 8U);
}

TEST(Im2Col, IdentityKernelCenterTapReproducesImage) {
  // With a 3x3 kernel, the centre tap row (ky=kx=1) of the patch matrix is
  // exactly the input image.
  const ConvGeometry g{1, 4, 4, 3, 1, 1};
  std::vector<float> img(16);
  for (std::size_t i = 0; i < 16; ++i) img[i] = static_cast<float>(i + 1);
  std::vector<float> cols(g.patch_rows() * g.patch_cols());
  im2col(g, img.data(), cols.data());
  const float* center = cols.data() + 4 * g.patch_cols();  // row ky=1,kx=1
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(center[i], img[i]);
}

TEST(Im2Col, PaddingReadsZero) {
  const ConvGeometry g{1, 2, 2, 3, 1, 1};
  std::vector<float> img{1.0F, 2.0F, 3.0F, 4.0F};
  std::vector<float> cols(g.patch_rows() * g.patch_cols());
  im2col(g, img.data(), cols.data());
  // Top-left output pixel, top-left kernel tap reaches (-1, -1): zero pad.
  EXPECT_EQ(cols[0], 0.0F);
}

TEST(Im2Col, Col2ImIsAdjoint) {
  // The defining adjoint property: <im2col(x), y> == <x, col2im(y)> for all
  // x, y.  This validates every geometry parameter simultaneously.
  Rng rng(9);
  for (const auto& g : {ConvGeometry{2, 6, 6, 3, 1, 1}, ConvGeometry{3, 8, 8, 3, 2, 1},
                        ConvGeometry{1, 5, 5, 1, 1, 0}, ConvGeometry{2, 4, 4, 3, 1, 0}}) {
    const std::size_t img_n = g.in_c * g.in_h * g.in_w;
    const std::size_t col_n = g.patch_rows() * g.patch_cols();
    std::vector<float> x(img_n), y(col_n), ix(col_n), ay(img_n, 0.0F);
    for (auto& v : x) v = rng.normal();
    for (auto& v : y) v = rng.normal();
    im2col(g, x.data(), ix.data());
    col2im(g, y.data(), ay.data());
    double lhs = 0.0, rhs = 0.0;
    for (std::size_t i = 0; i < col_n; ++i) lhs += double(ix[i]) * y[i];
    for (std::size_t i = 0; i < img_n; ++i) rhs += double(x[i]) * ay[i];
    EXPECT_NEAR(lhs, rhs, 1e-3 * (std::fabs(lhs) + 1.0));
  }
}

TEST(Im2Col, StridedDestinationMatchesContiguous) {
  const ConvGeometry g{2, 4, 4, 3, 1, 1};
  Rng rng(10);
  std::vector<float> img(g.in_c * g.in_h * g.in_w);
  for (auto& v : img) v = rng.normal();
  const std::size_t pc = g.patch_cols();
  std::vector<float> contiguous(g.patch_rows() * pc);
  im2col(g, img.data(), contiguous.data());
  // Write into a twice-as-wide matrix at column offset pc.
  std::vector<float> wide(g.patch_rows() * 2 * pc, -1.0F);
  im2col(g, img.data(), wide.data(), 2 * pc, pc);
  for (std::size_t r = 0; r < g.patch_rows(); ++r) {
    for (std::size_t c = 0; c < pc; ++c) {
      EXPECT_EQ(wide[r * 2 * pc + pc + c], contiguous[r * pc + c]);
    }
  }
}

// The patch-matrix cell of tap (c, ky, kx) at output pixel (y, x): its
// column offset within the image's slice, and the input pixel it reads
// (-1 when the tap falls in the padding).
struct NaiveTap {
  std::size_t row, col;
  std::ptrdiff_t src;
};

/// Every tap of every output pixel in (c, ky, kx, y, x) order: the plain
/// definition of im2col and, in the same order, of col2im's additions.
std::vector<NaiveTap> naive_taps(const ConvGeometry& g) {
  std::vector<NaiveTap> taps;
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_c; ++c) {
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
        for (std::size_t y = 0; y < g.out_h(); ++y) {
          for (std::size_t x = 0; x < g.out_w(); ++x) {
            const auto sy = static_cast<std::ptrdiff_t>(y * g.stride + ky) -
                            static_cast<std::ptrdiff_t>(g.pad);
            const auto sx = static_cast<std::ptrdiff_t>(x * g.stride + kx) -
                            static_cast<std::ptrdiff_t>(g.pad);
            const bool inside = sy >= 0 && sy < static_cast<std::ptrdiff_t>(g.in_h) &&
                                sx >= 0 && sx < static_cast<std::ptrdiff_t>(g.in_w);
            const std::ptrdiff_t plane =
                static_cast<std::ptrdiff_t>(c * g.in_h * g.in_w);
            taps.push_back({row, y * g.out_w() + x,
                            inside ? plane + sy * static_cast<std::ptrdiff_t>(g.in_w) + sx
                                   : -1});
          }
        }
      }
    }
  }
  return taps;
}

/// Convolution geometries for the naive-reference checks: stride 1 and 2,
/// k 1/3/5 with every pad 0..k-1, every plane from 1x1 to 17x17 (square and
/// not, filters larger than the plane included), in_c cycling through 1..4.
std::vector<ConvGeometry> im2col_geometries() {
  std::vector<ConvGeometry> out;
  for (const std::size_t stride : {1, 2}) {
    for (const std::size_t k : {1, 3, 5}) {
      for (std::size_t pad = 0; pad < k; ++pad) {
        for (std::size_t h = 1; h <= 17; ++h) {
          for (std::size_t w = 1; w <= 17; ++w) {
            if (h + 2 * pad < k || w + 2 * pad < k) continue;
            out.push_back({1 + (3 * h + w + k + pad) % 4, h, w, k, stride, pad});
          }
        }
      }
    }
  }
  return out;
}

std::string describe(const ConvGeometry& g) {
  return "in_c " + std::to_string(g.in_c) + " plane " + std::to_string(g.in_h) + "x" +
         std::to_string(g.in_w) + " k" + std::to_string(g.kernel) + " s" +
         std::to_string(g.stride) + " p" + std::to_string(g.pad);
}

// Output buffers carry this many NaN guard floats before and after them.
constexpr std::size_t kGuard = 8;

TEST(Im2Col, MatchesNaiveReferenceBitForBit) {
  // The patch matrix is written over NaN, alone and as the middle image of
  // a 3-image group (row_stride/col_offset); every cell of the image's
  // slice must match the definition and nothing else may change, guards
  // included.
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  Rng rng(91);
  for (const ConvGeometry& g : im2col_geometries()) {
    std::vector<float> image(g.in_c * g.in_h * g.in_w);
    for (auto& v : image) v = rng.normal();
    const std::size_t pr = g.patch_rows(), pc = g.patch_cols();
    const std::vector<NaiveTap> taps = naive_taps(g);
    for (const std::size_t group : {1, 3}) {
      const std::size_t row_stride = group * pc;
      const std::size_t col_offset = group > 1 ? pc : 0;
      std::vector<float> want(pr * row_stride + 2 * kGuard, kNaN);
      for (const NaiveTap& t : taps) {
        want[kGuard + t.row * row_stride + col_offset + t.col] =
            t.src < 0 ? 0.0F : image[static_cast<std::size_t>(t.src)];
      }
      std::vector<float> got(want.size(), kNaN);
      im2col(g, image.data(), got.data() + kGuard, group > 1 ? row_stride : 0, col_offset);
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(float)))
          << describe(g) << " group " << group;
    }
  }
}

TEST(Im2Col, Col2ImMatchesNaiveReferenceBitForBit) {
  // col2im adds into a gradient that already holds values, so the order of
  // each element's additions shows in its bits: the definition adds taps in
  // (ky, kx) order.  The patch values of padding taps are nonzero and must
  // be dropped.  Alone and as the middle image of a 3-image group, at every
  // kernel table (stride 1 runs the table's gather); guards must stay NaN.
  // Starting and patch values include -0, +-Inf and NaN, and in a second
  // pass every value is -0, which only -0 + -0 keeps: a padding tap that
  // added +0 instead of being skipped would show.  The NaN has its sign set,
  // like the one Inf + -Inf makes, so every NaN a sum meets has one bit
  // pattern and its bits cannot depend on which operand an add returns.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = -std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {-0.0F, kInf, -kInf, nan};
  Rng rng(92);
  // One pool of patch values, as large as the largest group matrix.
  const std::vector<ConvGeometry> geometries = im2col_geometries();
  std::size_t largest = 0;
  for (const ConvGeometry& g : geometries) {
    largest = std::max(largest, g.patch_rows() * 3 * g.patch_cols());
  }
  std::vector<float> mixed(largest);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    mixed[i] = i % 7 == 3 ? specials[i / 7 % 4] : rng.normal();
  }
  const std::vector<float> negative_zeros(largest, -0.0F);
  const kernels::KernelKind saved = kernels::active_kernel();
  for (const kernels::KernelKind kind : kernels::supported_kernels()) {
    kernels::set_active_kernel(kind);
    for (const ConvGeometry& g : geometries) {
      const std::size_t pc = g.patch_cols();
      const std::size_t img = g.in_c * g.in_h * g.in_w;
      const std::vector<NaiveTap> taps = naive_taps(g);
      for (const bool zeros : {false, true}) {
        const std::vector<float>& columns = zeros ? negative_zeros : mixed;
        std::vector<float> start(img + 2 * kGuard, nan);
        for (std::size_t i = 0; i < img; ++i) {
          start[kGuard + i] = zeros ? -0.0F : i % 5 == 2 ? specials[i / 5 % 4] : rng.normal();
        }
        for (const std::size_t group : {1, 3}) {
          const std::size_t row_stride = group * pc;
          const std::size_t col_offset = group > 1 ? pc : 0;
          std::vector<float> want = start;
          for (const NaiveTap& t : taps) {
            if (t.src < 0) continue;
            want[kGuard + static_cast<std::size_t>(t.src)] +=
                columns[t.row * row_stride + col_offset + t.col];
          }
          std::vector<float> got = start;
          col2im(g, columns.data(), got.data() + kGuard, group > 1 ? row_stride : 0,
                 col_offset);
          EXPECT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(float)))
              << kernels::kernel_name(kind) << " " << describe(g) << " group " << group
              << (zeros ? " all -0" : "");
        }
      }
    }
  }
  kernels::set_active_kernel(saved);
}

}  // namespace
}  // namespace tdfm
