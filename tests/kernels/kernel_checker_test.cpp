// Kernel checker: every dispatchable kernel vs the scalar reference.
//
// Covers the three fp32 GEMM variants, the im2col conv inner loop, and the
// q8_0 quantized matmul, over degenerate shapes (m/n/k = 1, reduction
// lengths straddling the 32-element q8 block size) plus randomized shapes.
// Also pins the determinism contract from kernels/kernels.hpp: within one
// kernel choice, results are bit-identical across row partitions and thread
// counts; the q8 kernel is bit-identical across kernel choices too.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "checker.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "kernels/kernels.hpp"
#include "kernels/quant.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/qgemm.hpp"

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
  // of im2col (same taps, (c, ky, kx) order along rows).
  ConvGeometry g;
  g.in_c = 2;
  g.in_h = 7;
  g.in_w = 9;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  Rng rng(13);
  const auto image = random_matrix(g.in_c * g.in_h * g.in_w, rng);
  const std::size_t pr = g.patch_rows(), pc = g.patch_cols();
  std::vector<float> columns(pr * pc), rows(pc * pr);
  im2col(g, image.data(), columns.data());
  im2row(g, image.data(), rows.data());
  for (std::size_t r = 0; r < pr; ++r) {
    for (std::size_t c = 0; c < pc; ++c) {
      ASSERT_EQ(columns[r * pc + c], rows[c * pr + r])
          << "tap " << r << ", pixel " << c;
    }
  }
}

TEST(KernelChecker, DispatchedGemmBitIdenticalAcrossThreadCounts) {
  // The threaded entry points (tensor/gemm.hpp) chunk rows across the pool;
  // within one kernel choice the result must not depend on the chunking.
  KernelGuard kernel_guard;
  ThreadGuard thread_guard;
  const GemmShape s{33, 29, 77};
  Rng rng(17);
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
        << kernels::kernel_name(kind) << ": 1 vs 4 threads";
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

}  // namespace
}  // namespace tdfm
