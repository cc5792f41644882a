// An 8x8 float transpose in AVX registers, shared by the translation units
// that lay channels side by side in vector lanes (kernels/depthwise_avx2.cpp,
// nn/channel_lanes.cpp).  Include it only where __AVX2__ is defined.
#pragma once

#include <immintrin.h>

namespace tdfm::kernels {

/// v[r] lane c becomes v[c] lane r.
inline void transpose8(__m256 (&v)[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(v[0], v[1]);
  const __m256 t1 = _mm256_unpackhi_ps(v[0], v[1]);
  const __m256 t2 = _mm256_unpacklo_ps(v[2], v[3]);
  const __m256 t3 = _mm256_unpackhi_ps(v[2], v[3]);
  const __m256 t4 = _mm256_unpacklo_ps(v[4], v[5]);
  const __m256 t5 = _mm256_unpackhi_ps(v[4], v[5]);
  const __m256 t6 = _mm256_unpacklo_ps(v[6], v[7]);
  const __m256 t7 = _mm256_unpackhi_ps(v[6], v[7]);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 u4 = _mm256_shuffle_ps(t4, t6, 0x44);
  const __m256 u5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 u6 = _mm256_shuffle_ps(t5, t7, 0x44);
  const __m256 u7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  v[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
  v[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
  v[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
  v[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
  v[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
  v[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
  v[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  v[7] = _mm256_permute2f128_ps(u3, u7, 0x31);
}

/// Loads pixels [i, i + 8) of 8 planes `stride` floats apart and transposes
/// them: v[p] holds pixel i + p of every plane.
inline void load_transposed(const float* src, std::size_t stride, std::size_t i,
                            __m256 (&v)[8]) {
  for (std::size_t l = 0; l < 8; ++l) v[l] = _mm256_loadu_ps(src + l * stride + i);
  transpose8(v);
}

}  // namespace tdfm::kernels
