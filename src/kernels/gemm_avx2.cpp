// AVX2+FMA micro-kernels.  This TU alone is compiled with -mavx2 -mfma (see
// kernels/CMakeLists.txt); dispatch guarantees these symbols are only called
// after cpuid confirms avx2+fma, so the rest of the binary still runs on
// older hosts.
//
// Determinism: every output element's accumulator chain depends only on its
// (i, j) coordinates and the shape — a row computed alone produces the same
// bits as a row computed inside an 8-row tile, and a tail column the same
// bits as one inside a 4-column tile — so any row partition (thread count)
// yields identical results.  The q8 entries repeat the scalar reference
// exactly: quantization is elementwise with the same rounding rule, and the
// matmul keeps the exact integer block dot and the scalar kernel's float
// statements per lane (contraction is off here too), so q8 output is
// bit-identical to scalar.
#include "kernels/gemm_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "kernels/quant.hpp"

namespace tdfm::kernels {

namespace {

// Mask with the first `rem` (0..8) lanes active, for maskload/maskstore
// column tails.  Loading at table + 8 - rem yields rem leading -1 lanes.
inline __m256i tail_mask(std::size_t rem) {
  alignas(32) static const int table[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                            0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(table + 8 - rem));
}

// The B operand of the nn and nt tiles: element (p, j) sits at base +
// row(p) + col(j).  The tiles' vector loads start at a j that is a multiple
// of 8 and read at most 8 floats: contiguous in a row-major matrix, and one
// 8-pixel block of the in-place patch matrix.  Each tile adds the offset
// that varies in its inner loop to a pointer hoisted out of it.
struct MatrixB {
  const float* base;
  std::size_t ld;  ///< row stride
  [[nodiscard]] std::size_t row(std::size_t p) const { return p * ld; }
  [[nodiscard]] std::size_t col(std::size_t j) const { return j; }
};
struct PatchesB {
  const float* base;
  const std::size_t* row_off;
  const std::size_t* col_off;
  [[nodiscard]] std::size_t row(std::size_t p) const { return row_off[p]; }
  [[nodiscard]] std::size_t col(std::size_t j) const { return col_off[j / 8] + j % 8; }
};

// One R x n strip of gemm_nn: rows i0..i0+R-1, all columns, full k.  R
// accumulator registers live across the p loop; B rows are streamed once per
// strip and broadcast-multiplied into every row's accumulator.
template <int R, typename B>
void nn_tile(std::size_t i0, std::size_t n, std::size_t k, const float* a,
             const B& b, float* c, bool accumulate) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const float* bcol = b.base + b.col(j);
    __m256 acc[R];
    for (int r = 0; r < R; ++r) {
      acc[r] = accumulate ? _mm256_loadu_ps(c + (i0 + r) * n + j)
                          : _mm256_setzero_ps();
    }
    for (std::size_t p = 0; p < k; ++p) {
      const __m256 bv = _mm256_loadu_ps(bcol + b.row(p));
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
    const float* bcol = b.base + b.col(j);
    const __m256i mask = tail_mask(n - j);
    __m256 acc[R];
    for (int r = 0; r < R; ++r) {
      acc[r] = accumulate ? _mm256_maskload_ps(c + (i0 + r) * n + j, mask)
                          : _mm256_setzero_ps();
    }
    for (std::size_t p = 0; p < k; ++p) {
      // Masked-out lanes load as 0, accumulate 0, and are never stored.
      const __m256 bv = _mm256_maskload_ps(bcol + b.row(p), mask);
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

// Rows [i0, i1) of gemm_tn, p outermost: each C row is an FMA chain over the
// full vectors and a mul-then-add chain over the tail columns, in p order,
// and an A element of exactly zero skips its whole row (ReLU-sparse
// gradients; it also keeps a zero from multiplying an Inf or NaN of B).
void tn_rows_p_outer(std::size_t i0, std::size_t i1, std::size_t m,
                     std::size_t n, std::size_t k, const float* a,
                     const float* b, float* c, bool accumulate) {
  if (!accumulate) std::memset(c + i0 * n, 0, (i1 - i0) * n * sizeof(float));
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::size_t i = i0; i < i1; ++i) {
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

// Rows i0..i0+R-1 of gemm_tn as an R x 8 register tile like nn_tile, reading
// A down its columns (A[p, i0 + r] sits at a + p*m + i0 + r).  Every element
// repeats tn_rows_p_outer's chain: FMA in p order in full vectors, mul then
// add in the masked tail.  Only the zero skip is missing, so a tile whose A
// slice holds an exact zero runs tn_rows_p_outer instead.  Either way an
// element's bits depend only on its own row of A, not on the tile around it.
template <int R>
void tn_tile(std::size_t i0, std::size_t m, std::size_t n, std::size_t k,
             const float* a, const float* b, float* c, bool accumulate) {
  for (std::size_t p = 0; p < k; ++p) {
    for (int r = 0; r < R; ++r) {
      if (a[p * m + i0 + r] == 0.0F) {
        tn_rows_p_outer(i0, i0 + R, m, n, k, a, b, c, accumulate);
        return;
      }
    }
  }
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 acc[R];
    for (int r = 0; r < R; ++r) {
      acc[r] = accumulate ? _mm256_loadu_ps(c + (i0 + r) * n + j)
                          : _mm256_setzero_ps();
    }
    for (std::size_t p = 0; p < k; ++p) {
      const __m256 bv = _mm256_loadu_ps(b + p * n + j);
      for (int r = 0; r < R; ++r) {
        acc[r] = _mm256_fmadd_ps(_mm256_broadcast_ss(a + p * m + i0 + r), bv,
                                 acc[r]);
      }
    }
    for (int r = 0; r < R; ++r) _mm256_storeu_ps(c + (i0 + r) * n + j, acc[r]);
  }
  if (j < n) {
    const __m256i mask = tail_mask(n - j);
    __m256 acc[R];
    for (int r = 0; r < R; ++r) {
      acc[r] = accumulate ? _mm256_maskload_ps(c + (i0 + r) * n + j, mask)
                          : _mm256_setzero_ps();
    }
    for (std::size_t p = 0; p < k; ++p) {
      const __m256 bv = _mm256_maskload_ps(b + p * n + j, mask);
      for (int r = 0; r < R; ++r) {
        acc[r] = _mm256_add_ps(
            acc[r], _mm256_mul_ps(_mm256_broadcast_ss(a + p * m + i0 + r), bv));
      }
    }
    for (int r = 0; r < R; ++r) {
      _mm256_maskstore_ps(c + (i0 + r) * n + j, mask, acc[r]);
    }
  }
}

inline float hsum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

// T columns of one gemm_nt row: T independent dot products sharing the A-row
// stream, column t reading B row j + t.  Two accumulators per column hide
// FMA latency on the k loop; each column's reduction shape is fixed
// regardless of T, so tail columns (T < 4) produce the same bits as tiled
// ones.
template <int T, typename B>
void nt_cols(const float* arow, const B& b, std::size_t j, std::size_t k, float* cout,
             bool accumulate) {
  const float* brow[T];
  __m256 acc0[T];
  __m256 acc1[T];
  for (int t = 0; t < T; ++t) {
    brow[t] = b.base + b.row(j + t);
    acc0[t] = _mm256_setzero_ps();
    acc1[t] = _mm256_setzero_ps();
  }
  std::size_t p = 0;
  for (; p + 16 <= k; p += 16) {
    const __m256 av0 = _mm256_loadu_ps(arow + p);
    const __m256 av1 = _mm256_loadu_ps(arow + p + 8);
    const std::size_t o0 = b.col(p);
    const std::size_t o1 = b.col(p + 8);
    for (int t = 0; t < T; ++t) {
      acc0[t] = _mm256_fmadd_ps(av0, _mm256_loadu_ps(brow[t] + o0), acc0[t]);
      acc1[t] = _mm256_fmadd_ps(av1, _mm256_loadu_ps(brow[t] + o1), acc1[t]);
    }
  }
  for (; p + 8 <= k; p += 8) {
    const __m256 av = _mm256_loadu_ps(arow + p);
    const std::size_t o = b.col(p);
    for (int t = 0; t < T; ++t) {
      acc0[t] = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow[t] + o), acc0[t]);
    }
  }
  for (int t = 0; t < T; ++t) {
    float s = hsum256(_mm256_add_ps(acc0[t], acc1[t]));
    for (std::size_t q = p; q < k; ++q) s += arow[q] * brow[t][b.col(q)];
    cout[t] = accumulate ? cout[t] + s : s;
  }
}

// Rows [i0, i1) of gemm_nt against the T columns of B from j on.
template <int T, typename B>
void nt_tile(std::size_t i0, std::size_t i1, std::size_t j, std::size_t n,
             std::size_t k, const float* a, const B& b, float* c, bool accumulate) {
  for (std::size_t i = i0; i < i1; ++i) {
    nt_cols<T>(a + i * k, b, j, k, c + i * n + j, accumulate);
  }
}

// Bytes of A per gemm_nt row block: with one 4-row tile of B beside it, well
// inside a 32 KB L1.
constexpr std::size_t kNtBlockBytes = 16 * 1024;

template <typename B>
void nn_rows(std::size_t r0, std::size_t r1, std::size_t n, std::size_t k,
             const float* a, const B& b, float* c, bool accumulate) {
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

template <typename B>
void nt_rows(std::size_t r0, std::size_t r1, std::size_t n, std::size_t k,
             const float* a, const B& b, float* c, bool accumulate) {
  // Row blocks of at most kNtBlockBytes of A outside, 4-column tiles of B
  // inside them and rows innermost: a tile's 4 B rows and the block stay in
  // L1 while every row of the block runs against the tile, so B streams
  // from L2 once per block instead of once per row.  Each element is still
  // one nt_cols chain, so the order changes no bit.
  const std::size_t block =
      std::max<std::size_t>(1, kNtBlockBytes / (std::max<std::size_t>(k, 1) * sizeof(float)));
  for (std::size_t i0 = r0; i0 < r1; i0 += block) {
    const std::size_t i1 = std::min(r1, i0 + block);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) nt_tile<4>(i0, i1, j, n, k, a, b, c, accumulate);
    switch (n - j) {
      case 3: nt_tile<3>(i0, i1, j, n, k, a, b, c, accumulate); break;
      case 2: nt_tile<2>(i0, i1, j, n, k, a, b, c, accumulate); break;
      case 1: nt_tile<1>(i0, i1, j, n, k, a, b, c, accumulate); break;
      default: break;
    }
  }
}

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
  nn_rows(r0, r1, n, k, a, MatrixB{b, n}, c, accumulate);
}

void gemm_nt_rows_avx2(std::size_t r0, std::size_t r1, std::size_t /*m*/,
                       std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate) {
  nt_rows(r0, r1, n, k, a, MatrixB{b, k}, c, accumulate);
}

// The convolution forms: the same tiles over the in-place patch matrix, so
// each element keeps nn_tile's FMA order (nn), or nt_cols' two 8-float
// accumulators and hsum256 (nt; its serial tail is empty, k being whole
// 8-pixel blocks).
void gemm_nn_conv_rows_avx2(std::size_t r0, std::size_t r1, std::size_t n,
                            std::size_t k, const float* a, const ConvPatches& b,
                            float* c, bool accumulate) {
  nn_rows(r0, r1, n, k, a, PatchesB{b.base, b.row_off, b.col_off}, c, accumulate);
}

void gemm_nt_conv_rows_avx2(std::size_t r0, std::size_t r1, std::size_t n,
                            std::size_t k, const float* a, const ConvPatches& b,
                            float* c, bool accumulate) {
  nt_rows(r0, r1, n, k, a, PatchesB{b.base, b.row_off, b.col_off}, c, accumulate);
}

void gemm_tn_rows_avx2(std::size_t r0, std::size_t r1, std::size_t m,
                       std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate) {
  std::size_t i = r0;
  for (; i + 8 <= r1; i += 8) tn_tile<8>(i, m, n, k, a, b, c, accumulate);
  switch (r1 - i) {
    case 7: tn_tile<7>(i, m, n, k, a, b, c, accumulate); break;
    case 6: tn_tile<6>(i, m, n, k, a, b, c, accumulate); break;
    case 5: tn_tile<5>(i, m, n, k, a, b, c, accumulate); break;
    case 4: tn_tile<4>(i, m, n, k, a, b, c, accumulate); break;
    case 3: tn_tile<3>(i, m, n, k, a, b, c, accumulate); break;
    case 2: tn_tile<2>(i, m, n, k, a, b, c, accumulate); break;
    case 1: tn_tile<1>(i, m, n, k, a, b, c, accumulate); break;
    default: break;
  }
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
