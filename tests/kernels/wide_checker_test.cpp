// The avx2 table's fp32 GEMMs at 16 lanes against the same tiles at 8
// lanes (kernels/gemm_tiles.hpp): every output must be memcmp-equal, any
// NaN matching any NaN, since each element keeps the 8-lane chain.  The
// sweep covers every row count up to 17, every column count up to 33, k in
// every residue class mod 16 up to 257, accumulation on and off, +-0, +-Inf
// and NaN in both operands, exact zeros in tn's A (its zero-skipping path),
// a row range split off the tile grid, and the in-place patch matrix on
// planes 8, 16 and 24 px wide.  It runs where the host has AVX-512F, DQ and
// VL and skips elsewhere.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "checker.hpp"
#include "core/rng.hpp"
#include "kernels/gemm_kernels.hpp"
#include "kernels/kernels.hpp"
#include "tensor/im2col.hpp"

namespace tdfm {
namespace {

using kernels_test::bit_equal_or_nan;

#define TDFM_REQUIRE_16_LANES()                                            \
  if (!kernels_test::host_runs_16_lanes()) {                               \
    GTEST_SKIP() << "host lacks AVX-512F, DQ or VL: no 16-lane entries";   \
  }

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

std::vector<float> random_values(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.normal();
  return v;
}

// A few +-0, +-Inf and NaN at spread-out positions, so most outputs stay
// finite and still compare bit for bit.
void add_specials(std::vector<float>& v, std::size_t salt) {
  const float specials[] = {0.0F, -0.0F, kInf, -kInf, kNaN};
  for (std::size_t i = 0; i < std::size(specials); ++i) {
    v[(salt + i * 131) % v.size()] = specials[i];
  }
}

struct Pair {
  const char* name;
  kernels::GemmRowsFn narrow;
  kernels::GemmRowsFn wide;
};

TEST(WideChecker, DispatchPicksTheWideEntries) {
  TDFM_REQUIRE_16_LANES();
  const kernels::KernelTable& t = kernels::kernel_table(kernels::KernelKind::kAvx2);
  EXPECT_EQ(t.nn, &kernels::gemm_nn_rows_avx512);
  EXPECT_EQ(t.nt, &kernels::gemm_nt_rows_avx512);
  EXPECT_EQ(t.tn, &kernels::gemm_tn_rows_avx512);
  EXPECT_EQ(t.nn_conv, &kernels::gemm_nn_conv_rows_avx512);
  EXPECT_EQ(t.nt_conv, &kernels::gemm_nt_conv_rows_avx512);
  EXPECT_EQ(t.q8_nt, &kernels::gemm_q8_rows_avx2);
  EXPECT_EQ(kernels::vector_bits(kernels::KernelKind::kAvx2), 512);
  EXPECT_EQ(kernels::vector_bits(kernels::KernelKind::kScalar), 32);
}

TEST(WideChecker, PlainGemmsMatchEightLanesBitForBit) {
  TDFM_REQUIRE_16_LANES();
  const Pair pairs[] = {
      {"nn", kernels::gemm_nn_rows_avx2, kernels::gemm_nn_rows_avx512},
      {"nt", kernels::gemm_nt_rows_avx2, kernels::gemm_nt_rows_avx512},
      {"tn", kernels::gemm_tn_rows_avx2, kernels::gemm_tn_rows_avx512},
  };
  // k mod 16 in {0, 1-7, 8, 9-15}, with whole 16-steps before each.
  const std::size_t ks[] = {1, 3, 7, 8, 9, 15, 16, 17, 24, 31, 40, 64, 72, 137, 144, 257};
  std::size_t failures = 0;
  for (const bool specials : {false, true}) {
    for (std::size_t m = 1; m <= 17; ++m) {
      for (std::size_t n = 1; n <= 33; ++n) {
        for (const std::size_t k : ks) {
          Rng rng(m * 1009 + n * 37 + k * 3 + (specials ? 1 : 0));
          // Sized for every variant: nn A[m,k] B[k,n]; nt B[n,k]; tn A[k,m].
          std::vector<float> a = random_values(m * k, rng);
          std::vector<float> b = random_values(k * n, rng);
          const std::vector<float> c0 = random_values(m * n, rng);
          if (specials) {
            add_specials(a, m + k);
            add_specials(b, n + 2 * k);
          }
          for (const Pair& pr : pairs) {
            std::vector<float> a_used = a;
            // tn: zeros in A send some tiles down the zero-skipping path.
            if (pr.name[0] == 't' && (m + n + k) % 2 == 0) a_used[(m * k) / 3] = 0.0F;
            for (const bool accumulate : {false, true}) {
              std::vector<float> ref = c0, got = c0, split = c0;
              pr.narrow(0, m, m, n, k, a_used.data(), b.data(), ref.data(), accumulate);
              pr.wide(0, m, m, n, k, a_used.data(), b.data(), got.data(), accumulate);
              // A row range off the tile grid: each element's chain stays.
              const std::size_t s = (m * 5) / 7;
              pr.wide(0, s, m, n, k, a_used.data(), b.data(), split.data(), accumulate);
              pr.wide(s, m, m, n, k, a_used.data(), b.data(), split.data(), accumulate);
              const bool ok = bit_equal_or_nan(got.data(), ref.data(), got.size()) &&
                              bit_equal_or_nan(split.data(), ref.data(), split.size());
              if (!ok && ++failures <= 10) {
                ADD_FAILURE() << pr.name << " m=" << m << " n=" << n << " k=" << k
                              << (accumulate ? " accumulate" : "")
                              << (specials ? " specials" : "");
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(failures, 0U);
}

TEST(WideChecker, InPlaceGemmsMatchEightLanesBitForBit) {
  TDFM_REQUIRE_16_LANES();
  struct Case {
    std::size_t in_c, h, w, kernel;
  };
  // Planes 8 px wide (each 16-pixel pair two rows apart), 16 (every pair
  // side by side) and 24 (some pairs split across rows), odd heights for a
  // lone final 8-pixel block, and a 1x1 filter.
  std::vector<Case> cases;
  for (const std::size_t c : {1, 3, 16}) {
    for (const std::size_t w : {8, 16, 24}) {
      for (const std::size_t h : {3, 8}) cases.push_back({c, h, w, 3});
    }
    cases.push_back({c, 5, 16, 1});
  }
  const std::size_t out_cs[] = {1, 3, 4, 5, 8, 9, 16, 17};
  std::size_t failures = 0;
  for (const Case& cc : cases) {
    const ConvGeometry g{cc.in_c, cc.h, cc.w, cc.kernel, 1, cc.kernel / 2};
    ASSERT_TRUE(reads_in_place(g));
    const InPlacePatches patches(g);
    const std::size_t taps = patches.taps();
    const std::size_t pixels = patches.pixels();
    Rng rng(cc.in_c * 131 + cc.h * 17 + cc.w * 3 + cc.kernel);
    std::vector<float> image = random_values(cc.in_c * cc.h * cc.w, rng);
    add_specials(image, cc.w);
    std::vector<float> bordered(patches.bordered_floats(), 0.0F);
    patches.fill_interior(image.data(), bordered.data());
    const kernels::ConvPatches view = patches.view(bordered.data());
    for (const std::size_t out_c : out_cs) {
      std::vector<float> w = random_values(out_c * taps, rng);
      std::vector<float> dy = random_values(out_c * pixels, rng);
      add_specials(dy, out_c + 2);
      for (const bool accumulate : {false, true}) {
        const std::string what = "C=" + std::to_string(cc.in_c) + " " +
                                 std::to_string(cc.h) + "x" + std::to_string(cc.w) +
                                 " k" + std::to_string(cc.kernel) +
                                 " out_c=" + std::to_string(out_c) +
                                 (accumulate ? " accumulate" : "");
        // Forward: C[out_c, pixels] = W * patches.
        const std::vector<float> y0 = random_values(out_c * pixels, rng);
        std::vector<float> y_ref = y0, y = y0;
        kernels::gemm_nn_conv_rows_avx2(0, out_c, pixels, taps, w.data(), view,
                                        y_ref.data(), accumulate);
        kernels::gemm_nn_conv_rows_avx512(0, out_c, pixels, taps, w.data(), view, y.data(),
                                          accumulate);
        if (!bit_equal_or_nan(y.data(), y_ref.data(), y.size()) && ++failures <= 10) {
          ADD_FAILURE() << "nn_conv, " << what;
        }
        // Weight gradient: C[out_c, taps] = dY * patches^T.
        const std::vector<float> dw0 = random_values(out_c * taps, rng);
        std::vector<float> dw_ref = dw0, dw = dw0;
        kernels::gemm_nt_conv_rows_avx2(0, out_c, taps, pixels, dy.data(), view,
                                        dw_ref.data(), accumulate);
        const std::size_t s = (out_c * 5) / 7;
        kernels::gemm_nt_conv_rows_avx512(0, s, taps, pixels, dy.data(), view, dw.data(),
                                          accumulate);
        kernels::gemm_nt_conv_rows_avx512(s, out_c, taps, pixels, dy.data(), view, dw.data(),
                                          accumulate);
        if (!bit_equal_or_nan(dw.data(), dw_ref.data(), dw.size()) && ++failures <= 10) {
          ADD_FAILURE() << "nt_conv, " << what;
        }
      }
    }
  }
  EXPECT_EQ(failures, 0U);
}

}  // namespace
}  // namespace tdfm
