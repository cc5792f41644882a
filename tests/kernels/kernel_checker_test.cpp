// Kernel checker: every dispatchable kernel vs the scalar reference.
//
// Covers the three fp32 GEMM variants, the im2col conv inner loop, q8_0
// quantization and the q8_0 quantized matmul, over degenerate shapes
// (m/n/k = 1, reduction lengths straddling the 32-element q8 block size)
// plus randomized shapes, and im2row against im2col at every model-zoo conv
// geometry.  Each table's tn entry and both builds of the avx2 nn, nt and
// tn entries (8 and 16 lanes, called directly) are also held bit for bit
// to the loops they replaced (gemm_parent_loops.hpp).  Also pins the
// determinism contract from kernels/kernels.hpp: within one kernel choice,
// results are bit-identical across row partitions and thread counts; the q8
// entries are bit-identical across kernel choices too.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "checker.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "kernels/gemm_kernels.hpp"
#include "kernels/kernels.hpp"
#include "kernels/quant.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/qgemm.hpp"
#include "gemm_parent_loops.hpp"

namespace tdfm {
namespace {

using kernels_test::expect_allclose;
using kernels_test::KernelGuard;
using kernels_test::ThreadGuard;

struct GemmShape {
  std::size_t m, n, k;
};

/// Degenerate shapes first (every dimension hits 1; k straddles the q8
/// block size and the 8/16-wide vector strips), then randomized ones.
std::vector<GemmShape> checker_shapes() {
  std::vector<GemmShape> shapes = {
      {1, 1, 1},  {1, 5, 3},  {7, 1, 9},   {5, 8, 1},    {8, 8, 31},
      {8, 8, 32}, {8, 8, 33}, {9, 7, 64},  {16, 16, 40}, {1, 1, 257},
  };
  std::mt19937 gen(42);
  std::uniform_int_distribution<std::size_t> dim(1, 70);
  for (int i = 0; i < 10; ++i) shapes.push_back({dim(gen), dim(gen), dim(gen)});
  return shapes;
}

std::vector<float> random_matrix(std::size_t n, Rng& rng) {
  std::vector<float> m(n);
  for (auto& x : m) x = rng.normal();
  return m;
}

kernels::GemmRowsFn variant_fn(const kernels::KernelTable& table, int variant) {
  switch (variant) {
    case 0: return table.nn;
    case 1: return table.nt;
    default: return table.tn;
  }
}

constexpr const char* kVariantNames[] = {"nn", "nt", "tn"};

TEST(KernelDispatch, NamesExactlyTheScalarAndAvx2Tables) {
  using kernels::KernelKind;
  EXPECT_FALSE(kernels::parse_kernel("sse2").has_value());
  EXPECT_STREQ(kernels::kernel_name(KernelKind::kScalar), "scalar");
  EXPECT_STREQ(kernels::kernel_name(KernelKind::kAvx2), "avx2");
  for (const KernelKind kind : {KernelKind::kScalar, KernelKind::kAvx2}) {
    EXPECT_EQ(kernels::parse_kernel(kernels::kernel_name(kind)), kind)
        << kernels::kernel_name(kind);
  }
  std::vector<KernelKind> want{KernelKind::kScalar};
  if (kernels::kernel_supported(KernelKind::kAvx2)) want.push_back(KernelKind::kAvx2);
  EXPECT_EQ(kernels::supported_kernels(), want);
}

TEST(KernelChecker, Fp32VariantsMatchScalarReference) {
  const auto& ref_table = kernels::kernel_table(kernels::KernelKind::kScalar);
  for (const GemmShape& s : checker_shapes()) {
    Rng rng(s.m * 10007 + s.n * 101 + s.k);
    // One operand pool per shape: big enough for every variant's layout
    // (nn: A[m,k] B[k,n]; nt: B[n,k]; tn: A[k,m]).
    const auto a = random_matrix(s.m * s.k, rng);
    const auto b = random_matrix(s.k * s.n, rng);
    const auto c0 = random_matrix(s.m * s.n, rng);  // accumulate seed
    for (const kernels::KernelKind kind : kernels::supported_kernels()) {
      if (kind == kernels::KernelKind::kScalar) continue;
      const auto& table = kernels::kernel_table(kind);
      for (int v = 0; v < 3; ++v) {
        for (const bool accumulate : {false, true}) {
          std::vector<float> got = c0;
          std::vector<float> ref = c0;
          variant_fn(table, v)(0, s.m, s.m, s.n, s.k, a.data(), b.data(),
                               got.data(), accumulate);
          variant_fn(ref_table, v)(0, s.m, s.m, s.n, s.k, a.data(), b.data(),
                                   ref.data(), accumulate);
          expect_allclose(
              got.data(), ref.data(), s.m * s.n, s.k,
              std::string(kernels::kernel_name(kind)) + " " +
                  kVariantNames[v] + (accumulate ? "+acc" : "") + " m=" +
                  std::to_string(s.m) + " n=" + std::to_string(s.n) +
                  " k=" + std::to_string(s.k));
        }
      }
    }
  }
}

TEST(KernelChecker, RowPartitionIsBitIdentical) {
  // The contract behind thread-safety of results: computing [0, m) in one
  // call must equal computing it as arbitrary row chunks, bit for bit.
  const GemmShape s{23, 37, 65};
  Rng rng(7);
  const auto a = random_matrix(s.m * s.k, rng);
  const auto b = random_matrix(s.k * s.n, rng);
  for (const kernels::KernelKind kind : kernels::supported_kernels()) {
    const auto& table = kernels::kernel_table(kind);
    for (int v = 0; v < 3; ++v) {
      std::vector<float> whole(s.m * s.n);
      std::vector<float> chunked(s.m * s.n);
      const auto fn = variant_fn(table, v);
      fn(0, s.m, s.m, s.n, s.k, a.data(), b.data(), whole.data(), false);
      const std::size_t cuts[] = {0, 5, 6, 17, s.m};
      for (std::size_t i = 0; i + 1 < std::size(cuts); ++i) {
        fn(cuts[i], cuts[i + 1], s.m, s.n, s.k, a.data(), b.data(),
           chunked.data(), false);
      }
      EXPECT_EQ(0, std::memcmp(whole.data(), chunked.data(),
                               whole.size() * sizeof(float)))
          << kernels::kernel_name(kind) << " " << kVariantNames[v];
    }
  }
}

/// One build of a GEMM entry, called directly rather than through
/// dispatch, and the loop it must match bit for bit (gemm_parent_loops.hpp).
/// `nan_loose` lets any NaN match any NaN (checker.hpp).
struct ParentCase {
  const char* build;
  kernels::GemmRowsFn fn;
  kernels::GemmRowsFn parent;
  bool nan_loose;
};

/// The avx2 table's builds of one entry that this host runs, each against
/// the avx2 parent loop: the 8-lane one where AVX2 and FMA run, which is
/// what AVX2-only hosts dispatch, and the 16-lane one where AVX-512F, DQ
/// and VL run too.
std::vector<ParentCase> avx2_builds(kernels::GemmRowsFn narrow, kernels::GemmRowsFn wide,
                                    kernels::GemmRowsFn parent, bool wide_nan_loose) {
  std::vector<ParentCase> builds;
  if (kernels::kernel_supported(kernels::KernelKind::kAvx2)) {
    builds.push_back({"avx2 8-lane", narrow, parent, false});
  }
  if (kernels_test::host_runs_16_lanes()) {
    builds.push_back({"avx2 16-lane", wide, parent, wide_nan_loose});
  }
  return builds;
}

/// Runs every build and its parent loop on the same operands, accumulate
/// off and on, whole and (with `chunks`) in row chunks of 7, and compares C
/// plus 8 guard floats past its end.
void expect_matches_parent(const std::vector<ParentCase>& builds, bool chunks,
                           std::size_t m, std::size_t n, std::size_t k, const float* a,
                           const float* b, const float* c0, const std::string& what) {
  for (const ParentCase& pc : builds) {
    for (const bool accumulate : {false, true}) {
      std::vector<float> want(c0, c0 + m * n);
      want.resize(m * n + 8, std::numeric_limits<float>::quiet_NaN());
      std::vector<float> got = want;
      std::vector<float> chunked = want;
      pc.parent(0, m, m, n, k, a, b, want.data(), accumulate);
      pc.fn(0, m, m, n, k, a, b, got.data(), accumulate);
      const auto same = [&](const std::vector<float>& x) {
        return pc.nan_loose ? kernels_test::bit_equal_or_nan(x.data(), want.data(), x.size())
                            : kernels_test::bit_equal(x.data(), want.data(), x.size());
      };
      EXPECT_TRUE(same(got)) << pc.build << (accumulate ? " +acc " : " ") << what
                             << " m=" << m << " n=" << n << " k=" << k;
      if (!chunks) continue;
      for (std::size_t r0 = 0; r0 < m; r0 += 7) {
        pc.fn(r0, std::min(m, r0 + 7), m, n, k, a, b, chunked.data(), accumulate);
      }
      EXPECT_TRUE(same(chunked)) << "row chunks, " << pc.build
                                 << (accumulate ? " +acc " : " ") << what << " m=" << m
                                 << " n=" << n << " k=" << k;
    }
  }
}

/// tn: the scalar entry against its parent loop, and both avx2 builds
/// against theirs, each by memcmp.
void expect_tn_matches_parent(std::size_t m, std::size_t n, std::size_t k,
                              const float* a, const float* b, const float* c0,
                              const std::string& what) {
  static const std::vector<ParentCase> builds = [] {
    std::vector<ParentCase> all = {
        {"scalar", kernels::kernel_table(kernels::KernelKind::kScalar).tn,
         kernels_test::tn_parent_scalar, false}};
    for (const ParentCase& pc :
         avx2_builds(kernels::gemm_tn_rows_avx2, kernels::gemm_tn_rows_avx512,
                     kernels_test::tn_parent_avx2, /*wide_nan_loose=*/false)) {
      all.push_back(pc);
    }
    return all;
  }();
  expect_matches_parent(builds, /*chunks=*/false, m, n, k, a, b, c0, what);
}

TEST(KernelChecker, TnMatchesParentLoopBitForBit) {
  // The avx2 tn builds are register-blocked 8-row tiles; every element must
  // keep the parent p-outer loop's chain (FMA over full vectors, mul then
  // add in tail columns, zero A elements skipped), so the tile is checked
  // bit for bit against that loop.  Rows 1..17 reach every row tail alone
  // and after full tiles, columns 1..33 every n % 8.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  Rng rng(71);
  const auto pool_a = random_matrix(40 * 17, rng);
  const auto pool_b = random_matrix(40 * 33, rng);
  const auto pool_c = random_matrix(17 * 33, rng);
  for (std::size_t m = 1; m <= 17; ++m) {
    for (std::size_t n = 1; n <= 33; ++n) {
      for (std::size_t k = 1; k <= 40; ++k) {
        std::vector<float> a(pool_a.begin(), pool_a.begin() + static_cast<std::ptrdiff_t>(k * m));
        expect_tn_matches_parent(m, n, k, a.data(), pool_b.data(), pool_c.data(), "dense");
        // Signed zeros in the first row (a tile row once m >= 8), the middle
        // row and the last row (a tail row unless m % 8 == 0).
        for (const std::size_t i : {std::size_t{0}, m / 2, m - 1}) {
          a[(i * 7 % k) * m + i] = i % 2 == 0 ? 0.0F : -0.0F;
        }
        expect_tn_matches_parent(m, n, k, a.data(), pool_b.data(), pool_c.data(), "zeros");
      }
    }
  }
  // The zoo's Conv2D input-gradient shapes (pr x cols x out_c at width 8):
  // dense weights, then a few zero weights.
  for (const GemmShape& s : {GemmShape{72, 256, 16}, GemmShape{144, 64, 16},
                             GemmShape{27, 256, 8}}) {
    auto a = random_matrix(s.k * s.m, rng);
    const auto b = random_matrix(s.k * s.n, rng);
    const auto c0 = random_matrix(s.m * s.n, rng);
    expect_tn_matches_parent(s.m, s.n, s.k, a.data(), b.data(), c0.data(), "zoo");
    a[3 * s.m + 5] = 0.0F;
    a[(s.k - 1) * s.m + s.m - 1] = -0.0F;
    expect_tn_matches_parent(s.m, s.n, s.k, a.data(), b.data(), c0.data(), "zoo zeros");
  }
  // Infinities and NaN in B rows where A holds zeros: a skipped element
  // never multiplies them, the other rows of the same tiles do.  13 rows are
  // one full tile and a 5-row tail, 21 columns two vectors and a 5-lane tail.
  {
    const std::size_t m = 13, n = 21, k = 9;
    auto a = random_matrix(k * m, rng);
    auto b = random_matrix(k * n, rng);
    const auto c0 = random_matrix(m * n, rng);
    a[2 * m + 1] = 0.0F;    // tile row
    a[5 * m + 11] = -0.0F;  // tail row
    a[7 * m + 4] = 0.0F;
    a[7 * m + 12] = -0.0F;
    for (const std::size_t p : {std::size_t{2}, std::size_t{5}, std::size_t{7}}) {
      b[p * n + 0] = kInf;
      b[p * n + 8] = -kInf;
      b[p * n + 20] = kNaN;
      b[p * n + (3 * p) % n] = p == 5 ? -kInf : kNaN;
    }
    expect_tn_matches_parent(m, n, k, a.data(), b.data(), c0.data(), "specials");
    // The same with every A element of rows 1, 4, 11 and 12 zero.
    for (std::size_t p = 0; p < k; ++p) {
      for (const std::size_t i : {1, 4, 11, 12}) a[p * m + i] = p % 2 == 0 ? 0.0F : -0.0F;
    }
    expect_tn_matches_parent(m, n, k, a.data(), b.data(), c0.data(), "zero rows");
  }
  // Products that underflow to -0 (or +0) onto a C of -0: the FMA chain,
  // the mul-then-add tail and the zero skip each leave their own sign.
  {
    const std::size_t m = 11, n = 19, k = 6;
    std::vector<float> a(k * m), b(k * n);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = i % 3 == 0 ? 1e-30F : -1e-30F;
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = i % 5 == 0 ? -1e-30F : 1e-30F;
    const std::vector<float> c0(m * n, -0.0F);
    expect_tn_matches_parent(m, n, k, a.data(), b.data(), c0.data(), "underflow");
    a[4 * m + 2] = 0.0F;
    a[1 * m + 9] = -0.0F;
    expect_tn_matches_parent(m, n, k, a.data(), b.data(), c0.data(), "underflow zeros");
  }
}

/// nt: both avx2 builds against the avx2 parent loop (the scalar nt entry
/// is the parent loop itself).  The 16-lane build compares NaN-loosely: it
/// keeps every chain, but which NaN an FMA or add returns when both
/// operands are NaN follows the instruction form the compiler picks
/// (checker.hpp), and at 16 lanes two of the specials shapes below keep a
/// NaN of the other sign.
void expect_nt_matches_parent(std::size_t m, std::size_t n, std::size_t k,
                              const float* a, const float* b, const float* c0,
                              const std::string& what) {
  static const std::vector<ParentCase> builds =
      avx2_builds(kernels::gemm_nt_rows_avx2, kernels::gemm_nt_rows_avx512,
                  kernels_test::nt_parent_avx2, /*wide_nan_loose=*/true);
  expect_matches_parent(builds, /*chunks=*/true, m, n, k, a, b, c0, what);
}

/// nn: both avx2 builds against the avx2 parent loop, by memcmp.
void expect_nn_matches_parent(std::size_t m, std::size_t n, std::size_t k,
                              const float* a, const float* b, const float* c0,
                              const std::string& what) {
  static const std::vector<ParentCase> builds =
      avx2_builds(kernels::gemm_nn_rows_avx2, kernels::gemm_nn_rows_avx512,
                  kernels_test::nn_parent_avx2, /*wide_nan_loose=*/false);
  expect_matches_parent(builds, /*chunks=*/true, m, n, k, a, b, c0, what);
}

TEST(KernelChecker, NnMatchesParentLoopBitForBit) {
  // Every element of both avx2 builds must keep the parent tile's chain:
  // lane j's FMA chain over p in order, a masked tail as an FMA on
  // zero-filled lanes.  Rows 1..17 reach every row tail alone and after
  // full tiles, columns 1..33 every n % 16, k 1 to 33.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  Rng rng(73);
  for (const std::size_t k : {1, 2, 7, 16, 33}) {
    for (std::size_t m = 1; m <= 17; ++m) {
      for (std::size_t n = 1; n <= 33; ++n) {
        const auto a = random_matrix(m * k, rng);
        const auto b = random_matrix(k * n, rng);
        const auto c0 = random_matrix(m * n, rng);
        expect_nn_matches_parent(m, n, k, a.data(), b.data(), c0.data(), "tails");
      }
    }
  }
  // Conv2D's forwards W * patches (out_c x pixels x taps at width 8),
  // ConvNet's Dense backward-input shape and a MobileNet 1x1 group, then
  // signed zeros, infinities and NaN in both operands.
  for (const GemmShape& s : {GemmShape{8, 1024, 27}, GemmShape{16, 256, 72},
                             GemmShape{16, 64, 144}, GemmShape{32, 256, 64},
                             GemmShape{64, 64, 64}}) {
    auto a = random_matrix(s.m * s.k, rng);
    auto b = random_matrix(s.k * s.n, rng);
    const auto c0 = random_matrix(s.m * s.n, rng);
    expect_nn_matches_parent(s.m, s.n, s.k, a.data(), b.data(), c0.data(), "zoo");
    const float specials[] = {0.0F, -0.0F, kInf, -kInf, kNaN};
    for (std::size_t i = 0; i < std::size(specials); ++i) {
      a[(i * 131) % a.size()] = specials[i];
      b[(i * 97 + s.n - 1) % b.size()] = specials[(i + 2) % std::size(specials)];
    }
    expect_nn_matches_parent(s.m, s.n, s.k, a.data(), b.data(), c0.data(), "specials");
  }
  // Products that underflow to -0 onto a C of -0.
  {
    const std::size_t m = 11, n = 21, k = 6;
    std::vector<float> a(m * k), b(k * n);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = i % 3 == 0 ? 1e-30F : -1e-30F;
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = i % 5 == 0 ? -1e-30F : 1e-30F;
    const std::vector<float> c0(m * n, -0.0F);
    expect_nn_matches_parent(m, n, k, a.data(), b.data(), c0.data(), "underflow");
  }
}

TEST(KernelChecker, NtMatchesParentLoopBitForBit) {
  // The avx2 nt builds run row blocks of A, 4-column tiles of B inside them
  // and row tiles innermost; every element must keep the parent row-by-row
  // loop's nt_cols chain.  k runs through every tail of the 16- and 8-wide
  // steps, n through every column tail; the zoo's shapes and long rows make
  // several row blocks.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  Rng rng(72);
  for (const std::size_t k : {1, 7, 8, 9, 15, 16, 17, 33}) {
    for (std::size_t m = 1; m <= 19; m += 3) {
      for (std::size_t n = 1; n <= 9; ++n) {
        const auto a = random_matrix(m * k, rng);
        const auto b = random_matrix(n * k, rng);
        const auto c0 = random_matrix(m * n, rng);
        expect_nt_matches_parent(m, n, k, a.data(), b.data(), c0.data(), "tails");
      }
    }
  }
  // Conv2D's weight gradients dY * patches^T (out_c x pr x cols at width 8,
  // the 1x1 layers' image groups) and ConvNet's Dense forward (batch 32),
  // then rows of 1040 and 5000 floats (3 rows and 1 row per block).
  for (const GemmShape& s : {GemmShape{8, 27, 256}, GemmShape{16, 72, 256},
                             GemmShape{16, 144, 64}, GemmShape{64, 64, 64},
                             GemmShape{128, 128, 64}, GemmShape{32, 64, 256},
                             GemmShape{64, 32, 64}, GemmShape{37, 10, 1040},
                             GemmShape{5, 6, 5000}}) {
    auto a = random_matrix(s.m * s.k, rng);
    auto b = random_matrix(s.n * s.k, rng);
    const auto c0 = random_matrix(s.m * s.n, rng);
    expect_nt_matches_parent(s.m, s.n, s.k, a.data(), b.data(), c0.data(), "zoo");
    // Signed zeros, infinities and NaN in both operands, in the vector body
    // and the scalar tail of a row.
    const float specials[] = {0.0F, -0.0F, kInf, -kInf, kNaN};
    for (std::size_t i = 0; i < std::size(specials); ++i) {
      a[(i * 131) % a.size()] = specials[i];
      b[(i * 97 + s.k - 1) % b.size()] = specials[(i + 2) % std::size(specials)];
    }
    expect_nt_matches_parent(s.m, s.n, s.k, a.data(), b.data(), c0.data(), "specials");
  }
  // Products that underflow to -0 onto a C of -0, and rows of exact zeros.
  {
    const std::size_t m = 11, n = 7, k = 21;
    std::vector<float> a(m * k), b(n * k);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = i % 3 == 0 ? 1e-30F : -1e-30F;
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = i % 5 == 0 ? -1e-30F : 1e-30F;
    for (std::size_t p = 0; p < k; ++p) a[4 * k + p] = p % 2 == 0 ? 0.0F : -0.0F;
    const std::vector<float> c0(m * n, -0.0F);
    expect_nt_matches_parent(m, n, k, a.data(), b.data(), c0.data(), "underflow");
  }
}

TEST(KernelChecker, ConvIm2colInnerLoopMatchesScalar) {
  // The conv forward path is im2col followed by a [out_c, C*k*k] x
  // [C*k*k, oh*ow] nn GEMM; check that GEMM across kernels on real patch
  // data (zero-padded borders included).
  ConvGeometry g;
  g.in_c = 3;
  g.in_h = g.in_w = 11;  // odd spatial size: border taps out of bounds
  g.kernel = 3;
  g.stride = 2;
  g.pad = 1;
  const std::size_t out_c = 9;
  Rng rng(11);
  const auto image = random_matrix(g.in_c * g.in_h * g.in_w, rng);
  const auto weight = random_matrix(out_c * g.patch_rows(), rng);
  std::vector<float> columns(g.patch_rows() * g.patch_cols());
  im2col(g, image.data(), columns.data());

  const std::size_t m = out_c, n = g.patch_cols(), k = g.patch_rows();
  std::vector<float> ref(m * n);
  kernels::kernel_table(kernels::KernelKind::kScalar)
      .nn(0, m, m, n, k, weight.data(), columns.data(), ref.data(), false);
  for (const kernels::KernelKind kind : kernels::supported_kernels()) {
    std::vector<float> got(m * n);
    kernels::kernel_table(kind).nn(0, m, m, n, k, weight.data(),
                                   columns.data(), got.data(), false);
    expect_allclose(got.data(), ref.data(), m * n, k,
                    std::string("conv im2col gemm, ") +
                        kernels::kernel_name(kind));
  }
}

TEST(KernelChecker, Im2rowIsIm2colTranspose) {
  // im2row feeds the quantized conv path; it must be exactly the transpose
  // of im2col, the fp32 path's unrolling (same taps, (c, ky, kx) order along
  // rows), with padding taps written as zeros over a poisoned buffer.
  std::vector<ConvGeometry> cases;
  // Every model-zoo conv geometry (models/model_zoo.cpp, nn/blocks.cpp):
  // 3x3 pad 1 at stride 1 and 2, and 1x1 pad 0 at stride 1 and 2, on the
  // 16/8/4/2/1-px planes the zoo's stages run at (channel counts at width 8).
  for (const std::size_t hw : {16, 8, 4, 2, 1}) {
    for (const std::size_t in_c : {3, 8, 16}) {
      cases.push_back({in_c, hw, hw, 3, 1, 1});
      cases.push_back({in_c, hw, hw, 1, 1, 0});
      if (hw > 1) {
        cases.push_back({in_c, hw, hw, 3, 2, 1});
        cases.push_back({in_c, hw, hw, 1, 2, 0});
      }
    }
  }
  // Non-square planes, stride 2 without padding, pad 0 at stride 1,
  // pointwise with odd channel and plane counts, and filters larger than
  // the plane.
  cases.push_back({2, 7, 9, 3, 1, 1});
  cases.push_back({2, 9, 7, 3, 2, 0});
  cases.push_back({3, 6, 6, 3, 1, 0});
  cases.push_back({19, 5, 5, 1, 1, 0});
  cases.push_back({5, 3, 7, 1, 1, 0});
  cases.push_back({2, 2, 2, 3, 1, 1});
  cases.push_back({3, 3, 3, 5, 1, 2});
  cases.push_back({2, 2, 3, 5, 2, 2});
  cases.push_back({4, 1, 1, 3, 1, 1});
  for (const ConvGeometry& g : cases) {
    Rng rng(g.in_c * 131 + g.in_h * 17 + g.in_w + g.kernel * 7 + g.stride);
    const auto image = random_matrix(g.in_c * g.in_h * g.in_w, rng);
    const std::size_t pr = g.patch_rows(), pc = g.patch_cols();
    std::vector<float> columns(pr * pc);
    im2col(g, image.data(), columns.data());
    std::vector<float> want(pc * pr);
    for (std::size_t r = 0; r < pr; ++r) {
      for (std::size_t c = 0; c < pc; ++c) want[c * pr + r] = columns[r * pc + c];
    }
    std::vector<float> rows(pc * pr, std::numeric_limits<float>::quiet_NaN());
    im2row(g, image.data(), rows.data());
    EXPECT_EQ(0, std::memcmp(rows.data(), want.data(), want.size() * sizeof(float)))
        << "in_c " << g.in_c << " plane " << g.in_h << "x" << g.in_w << " k"
        << g.kernel << " s" << g.stride << " p" << g.pad;
  }
}

TEST(KernelChecker, DispatchedGemmBitIdenticalAcrossThreadCounts) {
  // The threaded entry points (tensor/gemm.hpp) chunk rows across the pool;
  // within one kernel choice the result must not depend on the chunking.
  // Besides a generic shape, the zoo's Conv2D input-gradient shapes, which
  // the avx2 tn kernel splits into 8-row tiles at any row partition.
  KernelGuard kernel_guard;
  ThreadGuard thread_guard;
  for (const GemmShape& s : {GemmShape{33, 29, 77}, GemmShape{72, 256, 16},
                             GemmShape{144, 64, 16}, GemmShape{27, 256, 8}}) {
    Rng rng(17 + s.m);
    const auto a = random_matrix(s.m * s.k, rng);
    const auto b = random_matrix(s.k * s.n, rng);
    for (const kernels::KernelKind kind : kernels::supported_kernels()) {
      kernels::set_active_kernel(kind);
      std::vector<std::vector<float>> by_threads;
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        core::ThreadPool::set_global_threads(threads);
        std::vector<float> nn(s.m * s.n), nt(s.m * s.n), tn(s.m * s.n);
        gemm_nn(s.m, s.n, s.k, a.data(), b.data(), nn.data());
        gemm_nt(s.m, s.n, s.k, a.data(), b.data(), nt.data());
        gemm_tn(s.m, s.n, s.k, a.data(), b.data(), tn.data());
        std::vector<float> all;
        all.insert(all.end(), nn.begin(), nn.end());
        all.insert(all.end(), nt.begin(), nt.end());
        all.insert(all.end(), tn.begin(), tn.end());
        by_threads.push_back(std::move(all));
      }
      EXPECT_EQ(0, std::memcmp(by_threads[0].data(), by_threads[1].data(),
                               by_threads[0].size() * sizeof(float)))
          << kernels::kernel_name(kind) << ": 1 vs 4 threads, m=" << s.m
          << " n=" << s.n << " k=" << s.k;
    }
  }
}

TEST(KernelChecker, QuantizedMatmulBitIdenticalAcrossKernelsAndThreads) {
  // The q8 contract is stronger than fp32: exact integer block dots plus a
  // fixed float accumulation order make the result one canonical bit
  // pattern, whatever kernel or thread count produced it.
  KernelGuard kernel_guard;
  ThreadGuard thread_guard;
  for (const GemmShape& s : checker_shapes()) {
    Rng rng(s.m + 31 * s.n + 997 * s.k);
    const auto a = random_matrix(s.m * s.k, rng);
    const auto b = random_matrix(s.n * s.k, rng);  // nt layout: B[n, k]
    const kernels::Q8Matrix qa = kernels::quantize_rows_q8(a.data(), s.m, s.k);
    const kernels::Q8Matrix qb = kernels::quantize_rows_q8(b.data(), s.n, s.k);

    std::vector<float> canonical(s.m * s.n);
    kernels::kernel_table(kernels::KernelKind::kScalar)
        .q8_nt(0, s.m, s.n, qa.blocks_per_row, qa.data.data(),
               qa.scales.data(), qb.data.data(), qb.scales.data(),
               canonical.data());
    for (const kernels::KernelKind kind : kernels::supported_kernels()) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        kernels::set_active_kernel(kind);
        core::ThreadPool::set_global_threads(threads);
        std::vector<float> got(s.m * s.n);
        gemm_q8_nt(qa, qb, got.data());
        EXPECT_EQ(0, std::memcmp(canonical.data(), got.data(),
                                 got.size() * sizeof(float)))
            << kernels::kernel_name(kind) << " threads=" << threads
            << " m=" << s.m << " n=" << s.n << " k=" << s.k;
      }
    }
  }
}

/// One quantizer input: `rows` x `cols` floats.
struct QuantCase {
  std::string what;
  std::size_t rows, cols;
  std::vector<float> values;
};

/// Rows that exercise every branch of the q8 rule (kernels/quant.hpp).
std::vector<QuantCase> quantize_cases() {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
  std::vector<QuantCase> cases;
  Rng rng(61);
  // Random rows at every tail length 1..31, plus whole blocks.
  for (std::size_t cols = 1; cols <= 100; ++cols) {
    cases.push_back({"random", 3, cols, random_matrix(3 * cols, rng)});
  }
  // Exact ties: amax 127 makes the inverse 1 and amax 63.5 makes it 2, so
  // k + 0.5 lands exactly halfway after scaling.
  for (const float amax : {127.0F, 63.5F}) {
    const float step = 127.0F / amax;
    std::vector<float> ties;
    for (int k = -127; k < 127; ++k) {
      ties.push_back(amax);
      ties.push_back((static_cast<float>(k) + 0.5F) / step);
    }
    cases.push_back({"ties", 1, ties.size(), ties});
  }
  // Signed zeros, alone and next to values.
  cases.push_back({"zeros", 2, 35, std::vector<float>(70, -0.0F)});
  {
    std::vector<float> v(64, 0.0F);
    for (std::size_t i = 0; i < v.size(); i += 2) v[i] = -0.0F;
    v[7] = 1.5F;
    v[40] = -2.0F;
    cases.push_back({"signed zeros", 1, v.size(), v});
  }
  // Subnormals: an all-subnormal block (127 / amax overflows, so the rule
  // gives -127 everywhere) and subnormals next to normal values.
  {
    std::vector<float> v(96);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = kDenorm * static_cast<float>(i % 17) * (i % 2 == 0 ? 1.0F : -1.0F);
    }
    v[70] = 1e-30F;
    cases.push_back({"subnormals", 1, v.size(), v});
    v.assign(v.size(), 1e-38F);
    v[3] = 2e-38F;
    cases.push_back({"tiny normals", 2, 48, v});
  }
  // NaN and infinities, in full and tail blocks.
  for (const float special : {kNaN, kInf, -kInf}) {
    std::vector<float> v = random_matrix(3 * 45, rng);
    v[0] = special;
    v[44] = special;      // row 0's tail block
    v[45 + 31] = special;  // row 1, last element of block 0
    for (std::size_t i = 90; i < 135; ++i) v[i] = special;  // row 2: all
    cases.push_back({"special " + std::to_string(special), 3, 45, v});
  }
  {
    std::vector<float> v = random_matrix(64, rng);
    v[1] = kNaN;
    v[2] = kInf;
    v[3] = -kInf;
    v[33] = kNaN;
    cases.push_back({"mixed specials", 1, 64, v});
  }
  return cases;
}

TEST(KernelChecker, QuantizeMatchesScalarReferenceBitForBit) {
  const auto& ref_table = kernels::kernel_table(kernels::KernelKind::kScalar);
  for (const QuantCase& qc : quantize_cases()) {
    const std::size_t blocks = (qc.cols + kernels::kQ8Block - 1) / kernels::kQ8Block;
    std::vector<std::int8_t> ref_codes(qc.rows * blocks * kernels::kQ8Block, 99);
    std::vector<float> ref_scales(qc.rows * blocks, -1.0F);
    ref_table.quantize_q8(qc.values.data(), qc.rows, qc.cols, ref_codes.data(),
                          ref_scales.data());
    for (const kernels::KernelKind kind : kernels::supported_kernels()) {
      // Poisoned outputs: every code and scale must be written.
      std::vector<std::int8_t> codes(ref_codes.size(), 77);
      std::vector<float> scales(ref_scales.size(), -2.0F);
      kernels::kernel_table(kind).quantize_q8(qc.values.data(), qc.rows, qc.cols,
                                              codes.data(), scales.data());
      const std::string what = std::string(kernels::kernel_name(kind)) + " " +
                               qc.what + " " + std::to_string(qc.rows) + "x" +
                               std::to_string(qc.cols);
      EXPECT_EQ(0, std::memcmp(codes.data(), ref_codes.data(), codes.size()))
          << "codes, " << what;
      EXPECT_EQ(0, std::memcmp(scales.data(), ref_scales.data(),
                               scales.size() * sizeof(float)))
          << "scales, " << what;
    }
  }
}

/// A q8 operand whose codes cycle through all 256 int8 values (-128 too:
/// quantization never writes it, the weight-corruption drill does).
kernels::Q8Matrix every_code_matrix(std::size_t rows, std::size_t blocks,
                                    std::size_t offset, Rng& rng) {
  kernels::Q8Matrix q;
  q.rows = rows;
  q.cols = blocks * kernels::kQ8Block;
  q.blocks_per_row = blocks;
  q.data.resize(rows * q.cols);
  q.scales.resize(rows * blocks);
  for (std::size_t i = 0; i < q.data.size(); ++i) {
    // 37 is odd, so any 256 consecutive entries hold every code once.
    q.data[i] = static_cast<std::int8_t>(static_cast<std::uint8_t>((i * 37 + offset) & 0xFF));
  }
  for (std::size_t i = 0; i < q.scales.size(); ++i) q.scales[i] = rng.normal();
  return q;
}

TEST(KernelChecker, QuantizedMatmulCoversEveryInt8Code) {
  // Rows 1..9 and columns 1..15 hit every row tail (1..3) and column tail
  // (1..7) of the avx2 kernel's 4-row x 8-column tiles, alone and after
  // full tiles; 20 blocks span two of its 16-block runs.  Bit-identical to
  // the scalar kernel at every table and thread count.
  KernelGuard kernel_guard;
  ThreadGuard thread_guard;
  Rng rng(67);
  for (const std::size_t blocks : {std::size_t{1}, std::size_t{8}, std::size_t{20}}) {
    for (std::size_t m = 1; m <= 9; ++m) {
      for (std::size_t n = 1; n <= 15; ++n) {
        const kernels::Q8Matrix qa = every_code_matrix(m, blocks, 5 * n, rng);
        const kernels::Q8Matrix qb = every_code_matrix(n, blocks, 3 * m + 1, rng);
        std::vector<float> canonical(m * n);
        kernels::kernel_table(kernels::KernelKind::kScalar)
            .q8_nt(0, m, n, blocks, qa.data.data(), qa.scales.data(),
                   qb.data.data(), qb.scales.data(), canonical.data());
        for (const kernels::KernelKind kind : kernels::supported_kernels()) {
          kernels::set_active_kernel(kind);
          for (std::size_t threads = 1; threads <= 4; ++threads) {
            core::ThreadPool::set_global_threads(threads);
            std::vector<float> got(m * n, -1.0F);
            gemm_q8_nt(qa, qb, got.data());
            EXPECT_EQ(0, std::memcmp(canonical.data(), got.data(),
                                     got.size() * sizeof(float)))
                << kernels::kernel_name(kind) << " threads=" << threads
                << " m=" << m << " n=" << n << " blocks=" << blocks;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace tdfm
