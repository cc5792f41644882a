#include "nn/channel_lanes.hpp"

#if defined(__AVX2__)
#include "kernels/transpose8.hpp"
#endif

namespace tdfm::nn::channel_lanes {

// With AVX2 a run of 8 channels loads 8 pixels of every channel at a time
// and transposes them (a plane's last pixels are gathered one by one), so
// each pixel step is one vector operation per chain; elsewhere the lanes
// are plain loops.  Both run the same per-lane operations.

void moments(const float* x, std::size_t batch, std::size_t channels,
             std::size_t plane, std::size_t c0, std::size_t lanes, double* sum,
             double* sq) {
#if defined(__AVX2__)
  if (lanes == kLanes) {
    __m256d s_lo = _mm256_setzero_pd(), s_hi = s_lo, q_lo = s_lo, q_hi = s_lo;
    const auto add = [&](__m256 px) {
      const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(px));
      const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(px, 1));
      s_lo = _mm256_add_pd(s_lo, lo);
      s_hi = _mm256_add_pd(s_hi, hi);
      q_lo = _mm256_add_pd(q_lo, _mm256_mul_pd(lo, lo));
      q_hi = _mm256_add_pd(q_hi, _mm256_mul_pd(hi, hi));
    };
    for (std::size_t n = 0; n < batch; ++n) {
      const float* base = x + (n * channels + c0) * plane;
      std::size_t i = 0;
      for (; i + 8 <= plane; i += 8) {
        __m256 v[8];
        kernels::load_transposed(base, plane, i, v);
        for (const __m256& px : v) add(px);
      }
      for (; i < plane; ++i) {
        alignas(32) float px[kLanes];
        for (std::size_t l = 0; l < kLanes; ++l) px[l] = base[l * plane + i];
        add(_mm256_load_ps(px));
      }
    }
    _mm256_storeu_pd(sum, s_lo);
    _mm256_storeu_pd(sum + 4, s_hi);
    _mm256_storeu_pd(sq, q_lo);
    _mm256_storeu_pd(sq + 4, q_hi);
    return;
  }
#endif
  double s[kLanes] = {}, q[kLanes] = {};
  for (std::size_t n = 0; n < batch; ++n) {
    const float* base = x + (n * channels + c0) * plane;
    for (std::size_t i = 0; i < plane; ++i) {
      for (std::size_t l = 0; l < lanes; ++l) {
        const double v = base[l * plane + i];
        s[l] += v;
        q[l] += v * v;
      }
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    sum[l] = s[l];
    sq[l] = q[l];
  }
}

void grad_sums(const float* dy, const float* xh, std::size_t batch,
               std::size_t channels, std::size_t plane, std::size_t c0,
               std::size_t lanes, float* sum_dy, float* sum_dy_xh) {
#if defined(__AVX2__)
  if (lanes == kLanes && plane % 8 == 0) {
    __m256 s = _mm256_setzero_ps(), p = s;
    for (std::size_t n = 0; n < batch; ++n) {
      const std::size_t offset = (n * channels + c0) * plane;
      for (std::size_t i = 0; i < plane; i += 8) {
        __m256 d[8], x[8];
        kernels::load_transposed(dy + offset, plane, i, d);
        kernels::load_transposed(xh + offset, plane, i, x);
        for (std::size_t q = 0; q < 8; ++q) {
          s = _mm256_add_ps(s, d[q]);
          p = _mm256_add_ps(p, _mm256_mul_ps(d[q], x[q]));
        }
      }
    }
    _mm256_storeu_ps(sum_dy, s);
    _mm256_storeu_ps(sum_dy_xh, p);
    return;
  }
#endif
  float s[kLanes] = {}, p[kLanes] = {};
  for (std::size_t n = 0; n < batch; ++n) {
    const std::size_t offset = (n * channels + c0) * plane;
    for (std::size_t i = 0; i < plane; ++i) {
      for (std::size_t l = 0; l < lanes; ++l) {
        const float d = dy[offset + l * plane + i];
        s[l] += d;
        p[l] += d * xh[offset + l * plane + i];
      }
    }
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    sum_dy[l] = s[l];
    sum_dy_xh[l] = p[l];
  }
}

void sums(const float* x, std::size_t plane, std::size_t lanes, float* sum) {
#if defined(__AVX2__)
  if (lanes == kLanes) {
    __m256 s = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= plane; i += 8) {
      __m256 v[8];
      kernels::load_transposed(x, plane, i, v);
      for (const __m256& px : v) s = _mm256_add_ps(s, px);
    }
    for (; i < plane; ++i) {
      alignas(32) float px[kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) px[l] = x[l * plane + i];
      s = _mm256_add_ps(s, _mm256_load_ps(px));
    }
    _mm256_storeu_ps(sum, s);
    return;
  }
#endif
  float s[kLanes] = {};
  for (std::size_t i = 0; i < plane; ++i) {
    for (std::size_t l = 0; l < lanes; ++l) s[l] += x[l * plane + i];
  }
  for (std::size_t l = 0; l < lanes; ++l) sum[l] = s[l];
}

}  // namespace tdfm::nn::channel_lanes
