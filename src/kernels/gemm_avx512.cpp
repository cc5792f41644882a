// The avx2 table's five fp32 GEMM entries built 16 lanes wide.  This TU
// alone is compiled with -mavx512f -mavx512dq -mavx512vl -mfma (see
// kernels/CMakeLists.txt); dispatch hands these entries out in place of the
// 8-lane ones only after cpuid reports AVX-512F, DQ and VL, so the rest of
// the binary still runs on AVX2-only hosts.
//
// The tiles are kernels/gemm_tiles.hpp's, whose header states the chain of
// every output element: each one is the chain of the 8-lane build, so both
// builds produce the same bits (tests/kernels/wide_checker_test.cpp).
#include "kernels/gemm_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include "kernels/gemm_tiles.hpp"

namespace tdfm::kernels {

namespace {

// One 512-bit register per pair of 8-column blocks, and nt's two
// accumulators as the two halves of one register: acc0 in lanes 0-7, acc1
// in lanes 8-15.
struct Lanes16 {
  static constexpr std::size_t kLanes = 16;
  static constexpr int kNtRows = 4;  ///< nt tiles: 4 rows x 4 columns
  using V = __m512;
  using Mask = __mmask16;
  static Mask mask(std::size_t rem) { return static_cast<Mask>((1U << rem) - 1U); }
  static V zero() { return _mm512_setzero_ps(); }
  static V load(const float* p) { return _mm512_loadu_ps(p); }
  static V load(const float* p, Mask m) { return _mm512_maskz_loadu_ps(m, p); }
  static void store(float* p, V v) { _mm512_storeu_ps(p, v); }
  static void store(float* p, Mask m, V v) { _mm512_mask_storeu_ps(p, m, v); }
  static V bcast(const float* p) { return _mm512_set1_ps(*p); }
  static V fmadd(V a, V b, V c) { return _mm512_fmadd_ps(a, b, c); }
  /// Two 8-float runs, `lo` in lanes 0-7: one load where they are adjacent.
  template <bool kAdjacent>
  static V load2(const float* lo, const float* hi) {
    if constexpr (kAdjacent) {
      return load(lo);
    } else {
      return _mm512_insertf32x8(_mm512_castps256_ps512(_mm256_loadu_ps(lo)),
                                _mm256_loadu_ps(hi), 1);
    }
  }
  /// acc0 += a * b; lanes 8-15 (acc1) keep their value.
  static V fma_low(__m256 a, __m256 b, V acc) {
    return _mm512_mask3_fmadd_ps(_mm512_castps256_ps512(a), _mm512_castps256_ps512(b), acc,
                                 0x00FF);
  }
  /// acc0 + acc1.  Both halves by extract, which compiles the low one to a
  /// plain register read: GCC 12's _mm512_castps512_ps256 goes through an
  /// uninitialized register and warns at every call.
  static __m256 fold(const V (&acc)[1]) {
    return _mm256_add_ps(_mm512_extractf32x8_ps(acc[0], 0), _mm512_extractf32x8_ps(acc[0], 1));
  }
};

}  // namespace

void gemm_nn_rows_avx512(std::size_t r0, std::size_t r1, std::size_t /*m*/,
                         std::size_t n, std::size_t k, const float* a,
                         const float* b, float* c, bool accumulate) {
  nn_rows<Lanes16>(r0, r1, n, k, a, MatrixB{b, n}, c, accumulate);
}

void gemm_nt_rows_avx512(std::size_t r0, std::size_t r1, std::size_t /*m*/,
                         std::size_t n, std::size_t k, const float* a,
                         const float* b, float* c, bool accumulate) {
  nt_rows<Lanes16>(r0, r1, n, k, a, MatrixB{b, k}, c, accumulate);
}

void gemm_tn_rows_avx512(std::size_t r0, std::size_t r1, std::size_t m,
                         std::size_t n, std::size_t k, const float* a,
                         const float* b, float* c, bool accumulate) {
  tn_rows<Lanes16>(r0, r1, m, n, k, a, b, c, accumulate);
}

void gemm_nn_conv_rows_avx512(std::size_t r0, std::size_t r1, std::size_t n,
                              std::size_t k, const float* a, const ConvPatches& b,
                              float* c, bool accumulate) {
  nn_conv_rows<Lanes16>(r0, r1, n, k, a, b, c, accumulate);
}

void gemm_nt_conv_rows_avx512(std::size_t r0, std::size_t r1, std::size_t n,
                              std::size_t k, const float* a, const ConvPatches& b,
                              float* c, bool accumulate) {
  nt_conv_rows<Lanes16>(r0, r1, n, k, a, b, c, accumulate);
}

}  // namespace tdfm::kernels

#else  // non-x86: forward to the scalar kernels (dispatch never picks these)

namespace tdfm::kernels {

void gemm_nn_rows_avx512(std::size_t r0, std::size_t r1, std::size_t m,
                         std::size_t n, std::size_t k, const float* a,
                         const float* b, float* c, bool accumulate) {
  gemm_nn_rows_scalar(r0, r1, m, n, k, a, b, c, accumulate);
}
void gemm_nt_rows_avx512(std::size_t r0, std::size_t r1, std::size_t m,
                         std::size_t n, std::size_t k, const float* a,
                         const float* b, float* c, bool accumulate) {
  gemm_nt_rows_scalar(r0, r1, m, n, k, a, b, c, accumulate);
}
void gemm_tn_rows_avx512(std::size_t r0, std::size_t r1, std::size_t m,
                         std::size_t n, std::size_t k, const float* a,
                         const float* b, float* c, bool accumulate) {
  gemm_tn_rows_scalar(r0, r1, m, n, k, a, b, c, accumulate);
}
void gemm_nn_conv_rows_avx512(std::size_t r0, std::size_t r1, std::size_t n,
                              std::size_t k, const float* a, const ConvPatches& b,
                              float* c, bool accumulate) {
  gemm_nn_conv_rows_scalar(r0, r1, n, k, a, b, c, accumulate);
}
void gemm_nt_conv_rows_avx512(std::size_t r0, std::size_t r1, std::size_t n,
                              std::size_t k, const float* a, const ConvPatches& b,
                              float* c, bool accumulate) {
  gemm_nt_conv_rows_scalar(r0, r1, n, k, a, b, c, accumulate);
}

}  // namespace tdfm::kernels

#endif
