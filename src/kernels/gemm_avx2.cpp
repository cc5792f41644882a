// AVX2+FMA micro-kernels.  This TU alone is compiled with -mavx2 -mfma (see
// kernels/CMakeLists.txt); dispatch guarantees these symbols are only called
// after cpuid confirms avx2+fma, so the rest of the binary still runs on
// older hosts.
//
// The five fp32 entries are the 8-lane build of kernels/gemm_tiles.hpp,
// whose header states their chains; gemm_avx512.cpp builds the same tiles
// at 16 lanes.  Every output element's chain depends only on its (i, j)
// coordinates and the shape, so any row partition (thread count) yields
// identical results.  The q8 entries repeat the scalar reference exactly:
// quantization is elementwise with the same rounding rule, and the matmul
// keeps the exact integer block dot and the scalar kernel's float
// statements per lane (contraction is off here too), so q8 output is
// bit-identical to scalar.
#include "kernels/gemm_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>

#include "kernels/gemm_tiles.hpp"
#include "kernels/quant.hpp"

namespace tdfm::kernels {

namespace {

// The q8 codes of 8 scaled values as int32: truncate, then step one unit
// away from zero where |fraction| >= 0.5 (round half away from zero,
// std::lround's rule; trunc, the fraction and the step are all exact for the
// finite |y| <= 127.0001 quantization produces).  A value that is not finite
// converts to the integer-indefinite INT32_MIN, which the caller's clamp to
// [-127, 127] turns into the rule's -127 (kernels/quant.hpp).
inline __m256i q8_codes(__m256 y) {
  const __m256 sign = _mm256_set1_ps(-0.0F);
  const __m256 t = _mm256_round_ps(y, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256 frac = _mm256_andnot_ps(sign, _mm256_sub_ps(y, t));
  const __m256 away = _mm256_or_ps(_mm256_and_ps(sign, y), _mm256_set1_ps(1.0F));
  const __m256 step = _mm256_and_ps(
      _mm256_cmp_ps(frac, _mm256_set1_ps(0.5F), _CMP_GE_OQ), away);
  return _mm256_cvtps_epi32(_mm256_add_ps(t, step));
}

// One q8_0 block from its 32 values: the scale, and the codes ANDed with
// `keep` (the tail block's padding mask).
inline void q8_block(const __m256 x[4], float* scale, std::int8_t* q, __m256i keep) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 amax8 = _mm256_setzero_ps();
  for (int i = 0; i < 4; ++i) {
    // max_ps returns its second operand when the first is NaN, so a NaN
    // element never raises the block's amax.
    amax8 = _mm256_max_ps(_mm256_and_ps(x[i], abs_mask), amax8);
  }
  __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(amax8),
                         _mm256_extractf128_ps(amax8, 1));
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
  const float amax = _mm_cvtss_f32(m4);
  const float inv = amax > 0.0F ? 127.0F / amax : 0.0F;
  *scale = amax / 127.0F;
  const __m256 invv = _mm256_set1_ps(inv);
  // Saturating packs to int16, the clamp to [-127, 127] there, then a pack
  // to int8; the permutation undoes the packs' lane interleaving.
  const __m256i lo = _mm256_set1_epi16(-127);
  const __m256i hi = _mm256_set1_epi16(127);
  const auto clamp = [&](__m256i v) { return _mm256_min_epi16(_mm256_max_epi16(v, lo), hi); };
  const __m256i c01 = clamp(_mm256_packs_epi32(q8_codes(_mm256_mul_ps(x[0], invv)),
                                               q8_codes(_mm256_mul_ps(x[1], invv))));
  const __m256i c23 = clamp(_mm256_packs_epi32(q8_codes(_mm256_mul_ps(x[2], invv)),
                                               q8_codes(_mm256_mul_ps(x[3], invv))));
  const __m256i codes = _mm256_permutevar8x32_epi32(
      _mm256_packs_epi16(c01, c23), _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(q), _mm256_and_si256(codes, keep));
}

// Two 16-element int16 vectors from one 32-code block.
inline void widen_block(const std::int8_t* q, __m256i& lo, __m256i& hi) {
  lo = _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(q)));
  hi = _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + 16)));
}

// Lane t of the result is the sum of v[t]'s eight lanes (exact int32).
inline __m256i hsum8_epi32(const __m256i* v) {
  const __m256i s0123 = _mm256_hadd_epi32(_mm256_hadd_epi32(v[0], v[1]),
                                          _mm256_hadd_epi32(v[2], v[3]));
  const __m256i s4567 = _mm256_hadd_epi32(_mm256_hadd_epi32(v[4], v[5]),
                                          _mm256_hadd_epi32(v[6], v[7]));
  // s0123 holds v0..v3's low-half sums in its low 128 bits and their
  // high-half sums in its high 128 bits; likewise s4567 for v4..v7.
  return _mm256_add_epi32(_mm256_permute2x128_si256(s0123, s4567, 0x20),
                          _mm256_permute2x128_si256(s0123, s4567, 0x31));
}

// A tile of up to 8 B rows (j .. j+cols), widened to int16 once for a run
// of up to kQ8TileBlocks blocks and shared by every A row of the call.
// With cols < 8 the missing B rows repeat the last real one; their lanes are
// computed but never stored.
constexpr std::size_t kQ8TileBlocks = 16;  // 8 KB of codes + 512 B of scales
struct Q8BTile {
  std::size_t cols = 0;
  std::size_t nblocks = 0;
  __m256i codes[kQ8TileBlocks][8][2];
  __m256 scales[kQ8TileBlocks];  ///< lane t: B row t's scale

  void load(std::size_t j, std::size_t ncols, std::size_t blk0, std::size_t nblk,
            std::size_t blocks, const std::int8_t* bq, const float* bs) {
    cols = ncols;
    nblocks = nblk;
    for (std::size_t t = 0; t < 8; ++t) {
      const std::size_t jt = j + std::min(t, cols - 1);
      const std::int8_t* q = bq + (jt * blocks + blk0) * kQ8Block;
      const float* sc = bs + jt * blocks + blk0;
      for (std::size_t b = 0; b < nblk; ++b) {
        widen_block(q + b * kQ8Block, codes[b][t][0], codes[b][t][1]);
        reinterpret_cast<float*>(&scales[b])[t] = sc[b];
      }
    }
  }
};

// C[i0 .. i0+R) x [j, j+cols) over the tile's run of blocks: R rows of A
// against the tile's 8 B rows, one output per lane.  Per block each A row is
// widened once, every (A row, B row) pair's 32 products are summed by madd
// into 8 int32 partials, and one horizontal reduction per A row yields the 8
// exact block dots.  The float statements are the scalar kernel's (scaleA *
// scaleB, times the dot, added to the accumulator), lane by lane, in
// ascending block order: a run after the first resumes from the partial sums
// it left in C (a float round-trips through memory exactly).  Lanes never
// mix, so an output's bits do not depend on R, cols, the runs or its
// position in the tile.
template <int R>
void q8_tile(std::size_t i0, std::size_t blk0, const Q8BTile& tile, std::size_t n,
             std::size_t j, std::size_t blocks, const std::int8_t* aq,
             const float* as, float* c) {
  const std::size_t row_codes = blocks * kQ8Block;
  const __m256i mask = tail_mask(tile.cols);
  __m256 acc[R];
  for (int r = 0; r < R; ++r) {
    acc[r] = blk0 == 0 ? _mm256_setzero_ps()
                       : _mm256_maskload_ps(c + (i0 + r) * n + j, mask);
  }
  for (std::size_t b = 0; b < tile.nblocks; ++b) {
    const std::size_t blk = blk0 + b;
    for (int r = 0; r < R; ++r) {
      __m256i a0, a1;
      widen_block(aq + (i0 + r) * row_codes + blk * kQ8Block, a0, a1);
      __m256i part[8];
      for (int t = 0; t < 8; ++t) {
        // |pair sum| <= 2 * 128 * 128: int16 madd never overflows, even for
        // code -128.
        part[t] = _mm256_add_epi32(_mm256_madd_epi16(a0, tile.codes[b][t][0]),
                                   _mm256_madd_epi16(a1, tile.codes[b][t][1]));
      }
      const __m256 dot = _mm256_cvtepi32_ps(hsum8_epi32(part));
      __m256 contrib =
          _mm256_mul_ps(_mm256_set1_ps(as[(i0 + r) * blocks + blk]), tile.scales[b]);
      contrib = _mm256_mul_ps(contrib, dot);
      acc[r] = _mm256_add_ps(acc[r], contrib);
    }
  }
  for (int r = 0; r < R; ++r) _mm256_maskstore_ps(c + (i0 + r) * n + j, mask, acc[r]);
}

}  // namespace

void quantize_q8_rows_avx2(const float* src, std::size_t rows,
                           std::size_t cols, std::int8_t* codes,
                           float* scales) {
  const std::size_t full = cols / kQ8Block;  // blocks without padding
  const std::size_t tail = cols % kQ8Block;  // logical length of the last
  const std::size_t blocks = full + (tail > 0 ? 1 : 0);
  // The tail block loads its elements through lane masks (masked-out lanes
  // read 0, which never raises amax) and keeps only its first `tail` codes:
  // padding codes are 0, not the code of a padded 0 (which is -127 when
  // 127 / amax overflows).
  alignas(32) static const std::int8_t keep_table[2 * kQ8Block] = {
      -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
      -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1};
  __m256i tail_lanes[4];
  for (std::size_t q = 0; q < 4; ++q) {
    tail_lanes[q] = tail_mask(std::min<std::size_t>(8, tail - std::min(tail, 8 * q)));
  }
  const __m256i tail_keep = _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(keep_table + kQ8Block - tail));
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = src + r * cols;
    std::int8_t* q = codes + r * blocks * kQ8Block;
    float* s = scales + r * blocks;
    for (std::size_t blk = 0; blk < full; ++blk) {
      const float* v = row + blk * kQ8Block;
      const __m256 x[4] = {_mm256_loadu_ps(v), _mm256_loadu_ps(v + 8),
                           _mm256_loadu_ps(v + 16), _mm256_loadu_ps(v + 24)};
      q8_block(x, s + blk, q + blk * kQ8Block, _mm256_set1_epi8(-1));
    }
    if (tail > 0) {
      const float* v = row + full * kQ8Block;
      const __m256 x[4] = {_mm256_maskload_ps(v, tail_lanes[0]),
                           _mm256_maskload_ps(v + 8, tail_lanes[1]),
                           _mm256_maskload_ps(v + 16, tail_lanes[2]),
                           _mm256_maskload_ps(v + 24, tail_lanes[3])};
      q8_block(x, s + full, q + full * kQ8Block, tail_keep);
    }
  }
}

void gemm_nn_rows_avx2(std::size_t r0, std::size_t r1, std::size_t /*m*/,
                       std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate) {
  nn_rows<Lanes8>(r0, r1, n, k, a, MatrixB{b, n}, c, accumulate);
}

void gemm_nt_rows_avx2(std::size_t r0, std::size_t r1, std::size_t /*m*/,
                       std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate) {
  nt_rows<Lanes8>(r0, r1, n, k, a, MatrixB{b, k}, c, accumulate);
}

void gemm_tn_rows_avx2(std::size_t r0, std::size_t r1, std::size_t m,
                       std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate) {
  tn_rows<Lanes8>(r0, r1, m, n, k, a, b, c, accumulate);
}

void gemm_nn_conv_rows_avx2(std::size_t r0, std::size_t r1, std::size_t n,
                            std::size_t k, const float* a, const ConvPatches& b,
                            float* c, bool accumulate) {
  nn_conv_rows<Lanes8>(r0, r1, n, k, a, b, c, accumulate);
}

void gemm_nt_conv_rows_avx2(std::size_t r0, std::size_t r1, std::size_t n,
                            std::size_t k, const float* a, const ConvPatches& b,
                            float* c, bool accumulate) {
  nt_conv_rows<Lanes8>(r0, r1, n, k, a, b, c, accumulate);
}

void gemm_q8_rows_avx2(std::size_t r0, std::size_t r1, std::size_t n,
                       std::size_t blocks, const std::int8_t* aq,
                       const float* as, const std::int8_t* bq,
                       const float* bs, float* c) {
  Q8BTile tile;
  for (std::size_t j = 0; j < n; j += 8) {
    const std::size_t cols = std::min<std::size_t>(8, n - j);
    for (std::size_t blk0 = 0; blk0 < blocks; blk0 += kQ8TileBlocks) {
      tile.load(j, cols, blk0, std::min(kQ8TileBlocks, blocks - blk0), blocks, bq, bs);
      std::size_t i = r0;
      for (; i + 4 <= r1; i += 4) q8_tile<4>(i, blk0, tile, n, j, blocks, aq, as, c);
      switch (r1 - i) {
        case 3: q8_tile<3>(i, blk0, tile, n, j, blocks, aq, as, c); break;
        case 2: q8_tile<2>(i, blk0, tile, n, j, blocks, aq, as, c); break;
        case 1: q8_tile<1>(i, blk0, tile, n, j, blocks, aq, as, c); break;
        default: break;
      }
    }
  }
}

}  // namespace tdfm::kernels

#else  // non-x86: forward to the scalar kernels (cpuid reports unsupported)

namespace tdfm::kernels {

void gemm_nn_rows_avx2(std::size_t r0, std::size_t r1, std::size_t m,
                       std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate) {
  gemm_nn_rows_scalar(r0, r1, m, n, k, a, b, c, accumulate);
}
void gemm_nt_rows_avx2(std::size_t r0, std::size_t r1, std::size_t m,
                       std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate) {
  gemm_nt_rows_scalar(r0, r1, m, n, k, a, b, c, accumulate);
}
void gemm_tn_rows_avx2(std::size_t r0, std::size_t r1, std::size_t m,
                       std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate) {
  gemm_tn_rows_scalar(r0, r1, m, n, k, a, b, c, accumulate);
}
void gemm_nn_conv_rows_avx2(std::size_t r0, std::size_t r1, std::size_t n,
                            std::size_t k, const float* a, const ConvPatches& b,
                            float* c, bool accumulate) {
  gemm_nn_conv_rows_scalar(r0, r1, n, k, a, b, c, accumulate);
}
void gemm_nt_conv_rows_avx2(std::size_t r0, std::size_t r1, std::size_t n,
                            std::size_t k, const float* a, const ConvPatches& b,
                            float* c, bool accumulate) {
  gemm_nt_conv_rows_scalar(r0, r1, n, k, a, b, c, accumulate);
}
void gemm_q8_rows_avx2(std::size_t r0, std::size_t r1, std::size_t n,
                       std::size_t blocks, const std::int8_t* aq,
                       const float* as, const std::int8_t* bq,
                       const float* bs, float* c) {
  gemm_q8_rows_scalar(r0, r1, n, blocks, aq, as, bq, bs, c);
}
void quantize_q8_rows_avx2(const float* src, std::size_t rows,
                           std::size_t cols, std::int8_t* codes,
                           float* scales) {
  quantize_q8_rows_scalar(src, rows, cols, codes, scales);
}

}  // namespace tdfm::kernels

#endif
