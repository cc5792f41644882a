// Single-precision matrix multiplication entry points.
//
// Standard convolution (via im2col) and dense layers reduce to GEMM, so
// these three calls carry most of the training time (depthwise convolution
// has its own kernels, kernels/kernels.hpp).  This layer owns threading (row-range
// chunks over core::parallel_for) and FLOP accounting; the inner loops live
// in tdfm::kernels, selected once at startup by cpuid or the TDFM_KERNEL
// env var (scalar|avx2).  The avx2 table uses register-blocked 8xN
// FMA micro-tiles; scalar is the compile-time-devectorized reference every
// other kernel is checked against (tests/kernels).  Within one kernel
// choice results are bit-identical at any thread count.
//
// Layout convention: row-major, C[m x n] = A (op) * B (op) with the
// transpose baked into the kernel name rather than runtime flags, because
// each call site statically knows which operand is transposed:
//   gemm_nn:  C += A[m x k]   * B[k x n]    (Conv2D forward, Dense input
//                                            gradient)
//   gemm_nt:  C += A[m x k]   * B[n x k]^T  (Dense forward, Conv2D weight
//                                            gradient)
//   gemm_tn:  C += A[k x m]^T * B[k x n]    (Conv2D input gradient, Dense
//                                            weight gradient)
// gemm_nn_patches and gemm_nt_patches are the convolution forms of nn and
// nt: B is one image's patch matrix read in place (InPlacePatches,
// tensor/im2col.hpp), with no im2col.  Each element keeps the chain of the
// same table's nn or nt kernel, so the results are the bits of im2col +
// gemm_nn (Conv2D forward) or gemm_nt (Conv2D weight gradient).
#pragma once

#include <cstddef>

#include "tensor/im2col.hpp"

namespace tdfm {

/// C[m x n] += A[m x k] * B[k x n].  `accumulate=false` overwrites C.
void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c, bool accumulate = false);

/// C[m x n] += A[m x k] * B[n x k]^T.
void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c, bool accumulate = false);

/// C[m x n] += A[k x m]^T * B[k x n].
void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const float* a,
             const float* b, float* c, bool accumulate = false);

/// C[m x pixels] = A[m x taps] * P, P the patch matrix of `patches` read
/// from the bordered copy `bordered`.
void gemm_nn_patches(std::size_t m, const float* a, const InPlacePatches& patches,
                     const float* bordered, float* c);

/// C[m x taps] = A[m x pixels] * P^T, P as in gemm_nn_patches.
void gemm_nt_patches(std::size_t m, const float* a, const InPlacePatches& patches,
                     const float* bordered, float* c);

}  // namespace tdfm
