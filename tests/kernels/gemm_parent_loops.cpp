// The parent gemm_tn loops and avx2 gemm_nn and gemm_nt loops, verbatim but
// for names, target attributes and the B operand written out.  Like the
// kernel TUs this file is compiled with -ffp-contract=off, so each product
// rounds before its addition exactly as in the library; the avx2 copies
// enable their instruction set per function and are only called where cpuid
// reports it.
#include "gemm_parent_loops.hpp"

#include <cstring>

#include "kernels/kernels.hpp"

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

namespace {

__attribute__((target("avx2,fma"))) inline __m256i tail_mask(std::size_t rem) {
  alignas(32) static const int table[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                            0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(table + 8 - rem));
}

template <int R>
__attribute__((target("avx2,fma"))) void nn_tile(std::size_t i0, std::size_t n,
                                                 std::size_t k, const float* a,
                                                 const float* b, float* c,
                                                 bool accumulate) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const float* bcol = b + j;
    __m256 acc[R];
    for (int r = 0; r < R; ++r) {
      acc[r] = accumulate ? _mm256_loadu_ps(c + (i0 + r) * n + j)
                          : _mm256_setzero_ps();
    }
    for (std::size_t p = 0; p < k; ++p) {
      const __m256 bv = _mm256_loadu_ps(bcol + p * n);
      for (int r = 0; r < R; ++r) {
        acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + (i0 + r) * k + p),
                                 bv, acc[r]);
      }
    }
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_ps(c + (i0 + r) * n + j, acc[r]);
    }
  }
  if (j < n) {
    const float* bcol = b + j;
    const __m256i mask = tail_mask(n - j);
    __m256 acc[R];
    for (int r = 0; r < R; ++r) {
      acc[r] = accumulate ? _mm256_maskload_ps(c + (i0 + r) * n + j, mask)
                          : _mm256_setzero_ps();
    }
    for (std::size_t p = 0; p < k; ++p) {
      const __m256 bv = _mm256_maskload_ps(bcol + p * n, mask);
      for (int r = 0; r < R; ++r) {
        acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + (i0 + r) * k + p),
                                 bv, acc[r]);
      }
    }
    for (int r = 0; r < R; ++r) {
      _mm256_maskstore_ps(c + (i0 + r) * n + j, mask, acc[r]);
    }
  }
}

__attribute__((target("avx2,fma"))) inline float hsum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

template <int T>
__attribute__((target("avx2,fma"))) void nt_cols(const float* arow, const float* b,
                                                 std::size_t k, float* cout,
                                                 bool accumulate) {
  __m256 acc0[T];
  __m256 acc1[T];
  for (int t = 0; t < T; ++t) {
    acc0[t] = _mm256_setzero_ps();
    acc1[t] = _mm256_setzero_ps();
  }
  std::size_t p = 0;
  for (; p + 16 <= k; p += 16) {
    const __m256 av0 = _mm256_loadu_ps(arow + p);
    const __m256 av1 = _mm256_loadu_ps(arow + p + 8);
    for (int t = 0; t < T; ++t) {
      acc0[t] = _mm256_fmadd_ps(av0, _mm256_loadu_ps(b + t * k + p), acc0[t]);
      acc1[t] = _mm256_fmadd_ps(av1,
                                _mm256_loadu_ps(b + t * k + p + 8), acc1[t]);
    }
  }
  for (; p + 8 <= k; p += 8) {
    const __m256 av = _mm256_loadu_ps(arow + p);
    for (int t = 0; t < T; ++t) {
      acc0[t] = _mm256_fmadd_ps(av, _mm256_loadu_ps(b + t * k + p), acc0[t]);
    }
  }
  for (int t = 0; t < T; ++t) {
    float s = hsum256(_mm256_add_ps(acc0[t], acc1[t]));
    for (std::size_t q = p; q < k; ++q) s += arow[q] * b[t * k + q];
    cout[t] = accumulate ? cout[t] + s : s;
  }
}

}  // namespace

__attribute__((target("avx2,fma"))) void nn_parent_avx2(
    std::size_t r0, std::size_t r1, std::size_t /*m*/, std::size_t n,
    std::size_t k, const float* a, const float* b, float* c, bool accumulate) {
  std::size_t i = r0;
  for (; i + 8 <= r1; i += 8) nn_tile<8>(i, n, k, a, b, c, accumulate);
  switch (r1 - i) {
    case 7: nn_tile<7>(i, n, k, a, b, c, accumulate); break;
    case 6: nn_tile<6>(i, n, k, a, b, c, accumulate); break;
    case 5: nn_tile<5>(i, n, k, a, b, c, accumulate); break;
    case 4: nn_tile<4>(i, n, k, a, b, c, accumulate); break;
    case 3: nn_tile<3>(i, n, k, a, b, c, accumulate); break;
    case 2: nn_tile<2>(i, n, k, a, b, c, accumulate); break;
    case 1: nn_tile<1>(i, n, k, a, b, c, accumulate); break;
    default: break;
  }
}

__attribute__((target("avx2,fma"))) void nt_parent_avx2(
    std::size_t r0, std::size_t r1, std::size_t /*m*/, std::size_t n,
    std::size_t k, const float* a, const float* b, float* c, bool accumulate) {
  for (std::size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      nt_cols<4>(arow, b + j * k, k, crow + j, accumulate);
    }
    switch (n - j) {
      case 3: nt_cols<3>(arow, b + j * k, k, crow + j, accumulate); break;
      case 2: nt_cols<2>(arow, b + j * k, k, crow + j, accumulate); break;
      case 1: nt_cols<1>(arow, b + j * k, k, crow + j, accumulate); break;
      default: break;
    }
  }
}

#else  // non-x86: the avx2 table forwards to the scalar kernels

void nn_parent_avx2(std::size_t r0, std::size_t r1, std::size_t m,
                    std::size_t n, std::size_t k, const float* a,
                    const float* b, float* c, bool accumulate) {
  kernels::kernel_table(kernels::KernelKind::kScalar).nn(r0, r1, m, n, k, a, b, c,
                                                          accumulate);
}

void tn_parent_avx2(std::size_t r0, std::size_t r1, std::size_t m,
                    std::size_t n, std::size_t k, const float* a,
                    const float* b, float* c, bool accumulate) {
  tn_parent_scalar(r0, r1, m, n, k, a, b, c, accumulate);
}
void nt_parent_avx2(std::size_t r0, std::size_t r1, std::size_t m,
                    std::size_t n, std::size_t k, const float* a,
                    const float* b, float* c, bool accumulate) {
  kernels::kernel_table(kernels::KernelKind::kScalar).nt(r0, r1, m, n, k, a, b, c,
                                                          accumulate);
}

#endif

}  // namespace tdfm::kernels_test
