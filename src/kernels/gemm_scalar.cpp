// Reference kernels: the exact loop nests the library trained with before
// dispatch existed, now expressed over a row range.  This TU is compiled with
// vectorization and FP contraction disabled (see kernels/CMakeLists.txt), so
// every product feeds a separate addition — the canonical mul-then-add
// semantics the checker compares the vector kernels against.
#include <algorithm>
#include <cstring>

#include "kernels/gemm_kernels.hpp"
#include "kernels/quant.hpp"

namespace tdfm::kernels {

namespace {
// Block sizes chosen so one A-block plus one B-block fit comfortably in L1/L2
// for the matrix sizes this library produces (k up to a few thousand from
// im2col, n up to a few hundred output channels).
constexpr std::size_t kBlockM = 64;
constexpr std::size_t kBlockN = 256;
constexpr std::size_t kBlockK = 256;
}  // namespace

void gemm_nn_rows_scalar(std::size_t r0, std::size_t r1, std::size_t /*m*/,
                         std::size_t n, std::size_t k, const float* a,
                         const float* b, float* c, bool accumulate) {
  if (!accumulate) std::memset(c + r0 * n, 0, (r1 - r0) * n * sizeof(float));
  for (std::size_t i0 = r0; i0 < r1; i0 += kBlockM) {
    const std::size_t i1 = std::min(i0 + kBlockM, r1);
    for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
      const std::size_t p1 = std::min(p0 + kBlockK, k);
      for (std::size_t j0 = 0; j0 < n; j0 += kBlockN) {
        const std::size_t j1 = std::min(j0 + kBlockN, n);
        for (std::size_t i = i0; i < i1; ++i) {
          float* __restrict__ crow = c + i * n;
          for (std::size_t p = p0; p < p1; ++p) {
            const float av = a[i * k + p];
            const float* __restrict__ brow = b + p * n;
            for (std::size_t j = j0; j < j1; ++j) {
              crow[j] += av * brow[j];
            }
          }
        }
      }
    }
  }
}

void gemm_nt_rows_scalar(std::size_t r0, std::size_t r1, std::size_t /*m*/,
                         std::size_t n, std::size_t k, const float* a,
                         const float* b, float* c, bool accumulate) {
  // C[i,j] = dot(A[i,:], B[j,:]) — both operands are traversed row-wise, so
  // a straightforward dot-product loop is already cache-friendly.
  for (std::size_t i = r0; i < r1; ++i) {
    const float* __restrict__ arow = a + i * k;
    float* __restrict__ crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* __restrict__ brow = b + j * k;
      float acc = 0.0F;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = accumulate ? crow[j] + acc : acc;
    }
  }
}

void gemm_tn_rows_scalar(std::size_t r0, std::size_t r1, std::size_t m,
                         std::size_t n, std::size_t k, const float* a,
                         const float* b, float* c, bool accumulate) {
  // C[i,j] = sum_p A[p,i] * B[p,j].  Iterate p outermost so both A and B are
  // read row-wise; C rows are revisited but usually fit in cache (m*n small
  // for weight gradients).  Each row still visits p in ascending order, so
  // per-element addition order is partition-independent.
  if (!accumulate) std::memset(c + r0 * n, 0, (r1 - r0) * n * sizeof(float));
  for (std::size_t p = 0; p < k; ++p) {
    const float* __restrict__ arow = a + p * m;
    const float* __restrict__ brow = b + p * n;
    for (std::size_t i = r0; i < r1; ++i) {
      const float av = arow[i];
      if (av == 0.0F) continue;  // ReLU-sparse activations skip whole rows
      float* __restrict__ crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

// The convolution forms: each element runs the chain of the plain loop
// above, reading B through the patch offsets one 8-pixel block at a time.
void gemm_nn_conv_rows_scalar(std::size_t r0, std::size_t r1, std::size_t n,
                              std::size_t k, const float* a,
                              const ConvPatches& b, float* c, bool accumulate) {
  // gemm_nn_rows_scalar's chain: C[i, j] starts at zero (or its value) and
  // adds a[i, p] * B[p, j] in ascending p.
  if (!accumulate) std::memset(c + r0 * n, 0, (r1 - r0) * n * sizeof(float));
  for (std::size_t i = r0; i < r1; ++i) {
    float* __restrict__ crow = c + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a[i * k + p];
      const float* tap = b.base + b.row_off[p];
      for (std::size_t j = 0; j < n; j += 8) {
        const float* __restrict__ src = tap + b.col_off[j / 8];
        for (std::size_t t = 0; t < 8; ++t) crow[j + t] += av * src[t];
      }
    }
  }
}

void gemm_nt_conv_rows_scalar(std::size_t r0, std::size_t r1, std::size_t n,
                              std::size_t k, const float* a,
                              const ConvPatches& b, float* c, bool accumulate) {
  // gemm_nt_rows_scalar's chain: one sequential dot per element.
  for (std::size_t i = r0; i < r1; ++i) {
    const float* __restrict__ arow = a + i * k;
    float* __restrict__ crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* tap = b.base + b.row_off[j];
      float acc = 0.0F;
      for (std::size_t p = 0; p < k; p += 8) {
        const float* __restrict__ src = tap + b.col_off[p / 8];
        for (std::size_t t = 0; t < 8; ++t) acc += arow[p + t] * src[t];
      }
      crow[j] = accumulate ? crow[j] + acc : acc;
    }
  }
}

void gemm_q8_rows_scalar(std::size_t r0, std::size_t r1, std::size_t n,
                         std::size_t blocks, const std::int8_t* aq,
                         const float* as, const std::int8_t* bq,
                         const float* bs, float* c) {
  // Per block: an exact int32 dot of 32 int8 pairs (max 32*127*127 << 2^31),
  // then one float multiply-accumulate.  Ascending block order and the fixed
  // statement shape below (kept identical in the avx2 TU, contraction off)
  // make this bit-identical across every kernel choice.
  const std::size_t row_codes = blocks * kQ8Block;
  for (std::size_t i = r0; i < r1; ++i) {
    const std::int8_t* __restrict__ arow = aq + i * row_codes;
    const float* __restrict__ ascale = as + i * blocks;
    float* __restrict__ crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const std::int8_t* __restrict__ brow = bq + j * row_codes;
      const float* __restrict__ bscale = bs + j * blocks;
      float acc = 0.0F;
      for (std::size_t blk = 0; blk < blocks; ++blk) {
        const std::int8_t* __restrict__ pa = arow + blk * kQ8Block;
        const std::int8_t* __restrict__ pb = brow + blk * kQ8Block;
        std::int32_t dot = 0;
        for (std::size_t t = 0; t < kQ8Block; ++t) {
          dot += static_cast<std::int32_t>(pa[t]) *
                 static_cast<std::int32_t>(pb[t]);
        }
        float contrib = ascale[blk] * bscale[blk];
        contrib *= static_cast<float>(dot);
        acc += contrib;
      }
      crow[j] = acc;
    }
  }
}

}  // namespace tdfm::kernels
