// The parent gemm_tn loops, verbatim but for names.  Like the kernel TUs
// this file is compiled with -ffp-contract=off, so each product rounds
// before its addition exactly as in the library; the avx2 copy enables its
// instruction set per function and is only called where cpuid reports it.
#include "tn_parent_loops.hpp"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace tdfm::kernels_test {

void tn_parent_scalar(std::size_t r0, std::size_t r1, std::size_t m,
                      std::size_t n, std::size_t k, const float* a,
                      const float* b, float* c, bool accumulate) {
  if (!accumulate) std::memset(c + r0 * n, 0, (r1 - r0) * n * sizeof(float));
  for (std::size_t p = 0; p < k; ++p) {
    const float* __restrict__ arow = a + p * m;
    const float* __restrict__ brow = b + p * n;
    for (std::size_t i = r0; i < r1; ++i) {
      const float av = arow[i];
      if (av == 0.0F) continue;
      float* __restrict__ crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

#if defined(__x86_64__) || defined(__i386__)

void tn_parent_sse2(std::size_t r0, std::size_t r1, std::size_t m,
                    std::size_t n, std::size_t k, const float* a,
                    const float* b, float* c, bool accumulate) {
  if (!accumulate) std::memset(c + r0 * n, 0, (r1 - r0) * n * sizeof(float));
  for (std::size_t p = 0; p < k; ++p) {
    const float* __restrict__ arow = a + p * m;
    const float* __restrict__ brow = b + p * n;
    for (std::size_t i = r0; i < r1; ++i) {
      const float av = arow[i];
      if (av == 0.0F) continue;
      float* __restrict__ crow = c + i * n;
      const __m128 avv = _mm_set1_ps(av);
      std::size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        const __m128 bv = _mm_loadu_ps(brow + j);
        const __m128 cv = _mm_loadu_ps(crow + j);
        _mm_storeu_ps(crow + j, _mm_add_ps(cv, _mm_mul_ps(avv, bv)));
      }
      for (; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

__attribute__((target("avx2,fma"))) void tn_parent_avx2(
    std::size_t r0, std::size_t r1, std::size_t m, std::size_t n,
    std::size_t k, const float* a, const float* b, float* c, bool accumulate) {
  if (!accumulate) std::memset(c + r0 * n, 0, (r1 - r0) * n * sizeof(float));
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::size_t i = r0; i < r1; ++i) {
      const float av = arow[i];
      if (av == 0.0F) continue;
      float* crow = c + i * n;
      const __m256 avv = _mm256_set1_ps(av);
      std::size_t j = 0;
      for (; j + 8 <= n; j += 8) {
        const __m256 cv = _mm256_loadu_ps(crow + j);
        _mm256_storeu_ps(crow + j,
                         _mm256_fmadd_ps(avv, _mm256_loadu_ps(brow + j), cv));
      }
      for (; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

#else  // non-x86: the sse2 and avx2 tables forward to the scalar kernels

void tn_parent_sse2(std::size_t r0, std::size_t r1, std::size_t m,
                    std::size_t n, std::size_t k, const float* a,
                    const float* b, float* c, bool accumulate) {
  tn_parent_scalar(r0, r1, m, n, k, a, b, c, accumulate);
}
void tn_parent_avx2(std::size_t r0, std::size_t r1, std::size_t m,
                    std::size_t n, std::size_t k, const float* a,
                    const float* b, float* c, bool accumulate) {
  tn_parent_scalar(r0, r1, m, n, k, a, b, c, accumulate);
}

#endif

}  // namespace tdfm::kernels_test
