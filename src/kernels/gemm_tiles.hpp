// Internal: the fp32 GEMM tiles of the avx2 table, written once over a lane
// type and built at two widths.  gemm_avx2.cpp instantiates them with 8
// lanes (AVX2+FMA) and gemm_avx512.cpp with 16 (AVX-512F/DQ/VL); dispatch
// picks the 16-lane entries on hosts that run them (kernels/dispatch.cpp).
//
// Every template and helper here sits in an anonymous namespace, so each TU
// keeps its own copy compiled with its own ISA flags: at external linkage
// the linker could fold an inline function compiled in both TUs into the
// AVX-512 copy and hand it to the 8-lane entries.  Include this header only
// from a TU compiled with at least -mavx2 -mfma -ffp-contract=off.
//
// Determinism: every output element's operation chain depends only on its
// (i, j) coordinates and the shape, never on the lane width, the tile
// around it or the row range, so both widths and every row partition
// (thread count) produce the same bits:
//  - nn: C[i, j] is lane j's FMA chain over p in order, from zero or from C.
//    A 16-lane register holds two 8-column blocks; a masked tail is an FMA
//    on zero-filled lanes.
//  - tn: an FMA chain in p order in full 8-column blocks, and mul then add
//    in the n % 8 tail, so a 16-lane block covers only columns of full
//    8-column blocks.
//  - nt: two 8-float accumulators over the k loop, acc0 taking the 8-pixel
//    blocks p = 0 mod 16 and a lone final block, acc1 the blocks p = 8
//    mod 16; then hsum256(acc0 + acc1) and a serial mul-then-add tail.  At
//    16 lanes one register holds acc0 in lanes 0-7 and acc1 in lanes 8-15.
#pragma once

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "kernels/kernels.hpp"

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

inline float hsum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

// Lane t is hsum256(v[t]): the same adds on the same lane pairs, (lo + hi),
// then (0 + 2, 1 + 3), then (0 + 1), for eight vectors at once.  Pairing
// v[t] with v[t + 4] in the first step leaves the sums in lane order.
inline __m256 hsum256x8(const __m256* v) {
  const auto halves = [](__m256 x, __m256 y) {  // [lo(x) + hi(x) | lo(y) + hi(y)]
    return _mm256_add_ps(_mm256_permute2f128_ps(x, y, 0x20),
                         _mm256_permute2f128_ps(x, y, 0x31));
  };
  const __m256 x04 = halves(v[0], v[4]);
  const __m256 x15 = halves(v[1], v[5]);
  const __m256 x26 = halves(v[2], v[6]);
  const __m256 x37 = halves(v[3], v[7]);
  const __m256 y0 = _mm256_add_ps(_mm256_shuffle_ps(x04, x15, 0x44),
                                  _mm256_shuffle_ps(x04, x15, 0xEE));
  const __m256 y1 = _mm256_add_ps(_mm256_shuffle_ps(x26, x37, 0x44),
                                  _mm256_shuffle_ps(x26, x37, 0xEE));
  return _mm256_add_ps(_mm256_shuffle_ps(y0, y1, 0x88),
                       _mm256_shuffle_ps(y0, y1, 0xDD));
}

// The 8-lane type: one 256-bit register per 8-column block, and nt's two
// accumulators as two registers.  gemm_avx2.cpp builds every tile with it;
// the 16-lane build (gemm_avx512.cpp) runs a last 8-column block or tail
// with it, where a 16-lane register would carry half or more idle lanes.
// Each lane type also gives nt's tile height, kNtRows (nt_cols).
struct Lanes8 {
  static constexpr std::size_t kLanes = 8;
  static constexpr int kNtRows = 1;  ///< nt tiles: 1 row x 4 columns
  using V = __m256;
  using Mask = __m256i;
  static Mask mask(std::size_t rem) { return tail_mask(rem); }
  static V zero() { return _mm256_setzero_ps(); }
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static V load(const float* p, Mask m) { return _mm256_maskload_ps(p, m); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static void store(float* p, Mask m, V v) { _mm256_maskstore_ps(p, m, v); }
  static V bcast(const float* p) { return _mm256_broadcast_ss(p); }
  static V fmadd(V a, V b, V c) { return _mm256_fmadd_ps(a, b, c); }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  /// One 8-float block.
  template <bool>
  static V load2(const float* lo, const float* /*hi*/) { return load(lo); }
  /// acc0 += a * b.
  static V fma_low(__m256 a, __m256 b, V acc0) { return fmadd(a, b, acc0); }
  /// acc0 + acc1.
  static __m256 fold(const V (&acc)[2]) { return add(acc[0], acc[1]); }
};

// The B operand of the nn and nt tiles: element (p, j) sits at base +
// row(p) + col(j).  A vector load starts at a j that is a multiple of 8 and
// reads one or two 8-float runs: contiguous in a row-major matrix, one
// 8-pixel block each in the in-place patch matrix.  kAdjacent says that the
// two blocks of every 16-aligned pair sit next to each other (planes whose
// width is a multiple of 16), so a 16-lane load reads them at once;
// otherwise two 8-float loads are joined in a register.
struct MatrixB {
  static constexpr bool kAdjacent = true;
  const float* base;
  std::size_t ld;  ///< row stride
  [[nodiscard]] std::size_t row(std::size_t p) const { return p * ld; }
  [[nodiscard]] std::size_t col(std::size_t j) const { return j; }
};
template <bool Adjacent>
struct PatchesB {
  static constexpr bool kAdjacent = Adjacent;
  const float* base;
  const std::size_t* row_off;
  const std::size_t* col_off;
  [[nodiscard]] std::size_t row(std::size_t p) const { return row_off[p]; }
  [[nodiscard]] std::size_t col(std::size_t j) const { return col_off[j / 8] + j % 8; }
};

// Whether the 8-pixel blocks of every 16-pixel pair in [0, pixels) sit next
// to each other in the bordered copy.
inline bool pairs_adjacent(const ConvPatches& b, std::size_t pixels) {
  for (std::size_t q = 0; q + 16 <= pixels; q += 16) {
    if (b.col_off[q / 8 + 1] != b.col_off[q / 8] + 8) return false;
  }
  return true;
}

enum class Cols { kFull, kMasked };

// An R x L::kLanes block of gemm_nn: rows i0..i0+R-1, columns j..  R
// accumulator registers live across the p loop; B's columns are streamed
// once per block and broadcast-multiplied into every row's accumulator.
template <typename L, int R, Cols kCols, typename B>
void nn_block(std::size_t i0, std::size_t j, std::size_t n, std::size_t k,
              const float* a, const B& b, float* c, bool accumulate,
              typename L::Mask mask) {
  const float* lo = b.base + b.col(j);
  const float* hi = lo;
  if constexpr (L::kLanes > 8 && kCols == Cols::kFull && !B::kAdjacent) {
    hi = b.base + b.col(j + 8);
  }
  typename L::V acc[R];
  for (int r = 0; r < R; ++r) {
    float* crow = c + (i0 + r) * n + j;
    if (!accumulate) {
      acc[r] = L::zero();
    } else if constexpr (kCols == Cols::kFull) {
      acc[r] = L::load(crow);
    } else {
      acc[r] = L::load(crow, mask);
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    // Masked-out lanes load as 0, accumulate 0, and are never stored.
    typename L::V bv;
    if constexpr (kCols == Cols::kFull) {
      bv = L::template load2<B::kAdjacent>(lo + b.row(p), hi + b.row(p));
    } else {
      bv = L::load(lo + b.row(p), mask);
    }
    for (int r = 0; r < R; ++r) {
      acc[r] = L::fmadd(L::bcast(a + (i0 + r) * k + p), bv, acc[r]);
    }
  }
  for (int r = 0; r < R; ++r) {
    float* crow = c + (i0 + r) * n + j;
    if constexpr (kCols == Cols::kFull) {
      L::store(crow, acc[r]);
    } else {
      L::store(crow, mask, acc[r]);
    }
  }
}

// One R x n strip of gemm_nn: rows i0..i0+R-1, all columns, full k.  The
// last 8 columns or fewer run 8 lanes wide.  Kept out of line: inlined into
// the entry, its R row pointers no longer fit in registers.
template <typename L, int R, typename B>
[[gnu::noinline]] void nn_tile(std::size_t i0, std::size_t n, std::size_t k,
                               const float* a, const B& b, float* c, bool accumulate) {
  std::size_t j = 0;
  for (; j + L::kLanes <= n; j += L::kLanes) {
    nn_block<L, R, Cols::kFull>(i0, j, n, k, a, b, c, accumulate, L::mask(L::kLanes));
  }
  if constexpr (L::kLanes > 8) {
    if (n - j > 8) {
      nn_block<L, R, Cols::kMasked>(i0, j, n, k, a, b, c, accumulate, L::mask(n - j));
      return;
    }
    if (n - j == 8) {
      nn_block<Lanes8, R, Cols::kFull>(i0, j, n, k, a, b, c, accumulate, Lanes8::mask(8));
      return;
    }
  }
  if (j < n) {
    nn_block<Lanes8, R, Cols::kMasked>(i0, j, n, k, a, b, c, accumulate,
                                       Lanes8::mask(n - j));
  }
}

template <typename L, typename B>
void nn_rows(std::size_t r0, std::size_t r1, std::size_t n, std::size_t k,
             const float* a, const B& b, float* c, bool accumulate) {
  static_assert(kGemmRowTile == 8, "the row-tail switch below covers 1-7 rows");
  std::size_t i = r0;
  for (; i + kGemmRowTile <= r1; i += kGemmRowTile) {
    nn_tile<L, kGemmRowTile>(i, n, k, a, b, c, accumulate);
  }
  switch (r1 - i) {
    case 7: nn_tile<L, 7>(i, n, k, a, b, c, accumulate); break;
    case 6: nn_tile<L, 6>(i, n, k, a, b, c, accumulate); break;
    case 5: nn_tile<L, 5>(i, n, k, a, b, c, accumulate); break;
    case 4: nn_tile<L, 4>(i, n, k, a, b, c, accumulate); break;
    case 3: nn_tile<L, 3>(i, n, k, a, b, c, accumulate); break;
    case 2: nn_tile<L, 2>(i, n, k, a, b, c, accumulate); break;
    case 1: nn_tile<L, 1>(i, n, k, a, b, c, accumulate); break;
    default: break;
  }
}

// Rows [i0, i1) of gemm_tn, p outermost: each C row is an FMA chain over the
// full 8-column blocks and a mul-then-add chain over the tail columns, in p
// order, and an A element of exactly zero skips its whole row (ReLU-sparse
// gradients; it also keeps a zero from multiplying an Inf or NaN of B).
template <typename L>
void tn_rows_p_outer(std::size_t i0, std::size_t i1, std::size_t m,
                     std::size_t n, std::size_t k, const float* a,
                     const float* b, float* c, bool accumulate) {
  if (!accumulate) std::memset(c + i0 * n, 0, (i1 - i0) * n * sizeof(float));
  const std::size_t n8 = n - n % 8;
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::size_t i = i0; i < i1; ++i) {
      const float av = arow[i];
      if (av == 0.0F) continue;
      float* crow = c + i * n;
      const typename L::V avv = L::bcast(&av);
      std::size_t j = 0;
      for (; j + L::kLanes <= n8; j += L::kLanes) {
        L::store(crow + j, L::fmadd(avv, L::load(brow + j), L::load(crow + j)));
      }
      if constexpr (L::kLanes > 8) {
        if (j < n8) {  // one 8-column block left
          Lanes8::store(crow + j, Lanes8::fmadd(Lanes8::bcast(&av), Lanes8::load(brow + j),
                                                Lanes8::load(crow + j)));
        }
      }
      for (j = n8; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// An R x L::kLanes block of gemm_tn's register tile at columns j.., reading
// A down its columns (A[p, i0 + r] sits at a + p*m + i0 + r): an FMA chain
// in p order (kFma) or mul then add.
template <typename L, int R, Cols kCols, bool kFma>
void tn_block(std::size_t i0, std::size_t j, std::size_t m, std::size_t n,
              std::size_t k, const float* a, const float* b, float* c,
              bool accumulate, typename L::Mask mask) {
  typename L::V acc[R];
  for (int r = 0; r < R; ++r) {
    float* crow = c + (i0 + r) * n + j;
    if (!accumulate) {
      acc[r] = L::zero();
    } else if constexpr (kCols == Cols::kFull) {
      acc[r] = L::load(crow);
    } else {
      acc[r] = L::load(crow, mask);
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    typename L::V bv;
    if constexpr (kCols == Cols::kFull) {
      bv = L::load(b + p * n + j);
    } else {
      bv = L::load(b + p * n + j, mask);
    }
    for (int r = 0; r < R; ++r) {
      const typename L::V av = L::bcast(a + p * m + i0 + r);
      if constexpr (kFma) {
        acc[r] = L::fmadd(av, bv, acc[r]);
      } else {
        acc[r] = L::add(acc[r], L::mul(av, bv));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    float* crow = c + (i0 + r) * n + j;
    if constexpr (kCols == Cols::kFull) {
      L::store(crow, acc[r]);
    } else {
      L::store(crow, mask, acc[r]);
    }
  }
}

// Rows i0..i0+R-1 of gemm_tn as an R-row register tile like nn_tile.  Every
// element repeats tn_rows_p_outer's chain; only the zero skip is missing, so
// a tile whose A slice holds an exact zero runs tn_rows_p_outer instead.
// Either way an element's bits depend only on its own row of A, not on the
// tile around it.
template <typename L, int R>
void tn_tile(std::size_t i0, std::size_t m, std::size_t n, std::size_t k,
             const float* a, const float* b, float* c, bool accumulate) {
  for (std::size_t p = 0; p < k; ++p) {
    for (int r = 0; r < R; ++r) {
      if (a[p * m + i0 + r] == 0.0F) {
        tn_rows_p_outer<L>(i0, i0 + R, m, n, k, a, b, c, accumulate);
        return;
      }
    }
  }
  const std::size_t n8 = n - n % 8;
  std::size_t j = 0;
  for (; j + L::kLanes <= n8; j += L::kLanes) {
    tn_block<L, R, Cols::kFull, true>(i0, j, m, n, k, a, b, c, accumulate,
                                      L::mask(L::kLanes));
  }
  if constexpr (L::kLanes > 8) {
    if (j < n8) {  // one 8-column block left
      tn_block<Lanes8, R, Cols::kFull, true>(i0, j, m, n, k, a, b, c, accumulate,
                                             Lanes8::mask(8));
    }
  }
  if (n8 < n) {
    tn_block<Lanes8, R, Cols::kMasked, false>(i0, n8, m, n, k, a, b, c, accumulate,
                                              Lanes8::mask(n - n8));
  }
}

template <typename L>
void tn_rows(std::size_t r0, std::size_t r1, std::size_t m, std::size_t n,
             std::size_t k, const float* a, const float* b, float* c,
             bool accumulate) {
  static_assert(kGemmRowTile == 8, "the row-tail switch below covers 1-7 rows");
  std::size_t i = r0;
  for (; i + kGemmRowTile <= r1; i += kGemmRowTile) {
    tn_tile<L, kGemmRowTile>(i, m, n, k, a, b, c, accumulate);
  }
  switch (r1 - i) {
    case 7: tn_tile<L, 7>(i, m, n, k, a, b, c, accumulate); break;
    case 6: tn_tile<L, 6>(i, m, n, k, a, b, c, accumulate); break;
    case 5: tn_tile<L, 5>(i, m, n, k, a, b, c, accumulate); break;
    case 4: tn_tile<L, 4>(i, m, n, k, a, b, c, accumulate); break;
    case 3: tn_tile<L, 3>(i, m, n, k, a, b, c, accumulate); break;
    case 2: tn_tile<L, 2>(i, m, n, k, a, b, c, accumulate); break;
    case 1: tn_tile<L, 1>(i, m, n, k, a, b, c, accumulate); break;
    default: break;
  }
}

// R rows x T columns of gemm_nt from (i0, j): R * T independent dot
// products, row i reading A row i and column j + t reading B row j + t.
// Each keeps the two-accumulator chain above whatever R and T are, so edge
// tiles produce the same bits as full ones.  acc[o] holds output o's 16
// accumulator lanes in 16 / L::kLanes registers.  Inlined into the row
// loop, which then keeps the column tile's setup out of it.
template <typename L, int R, int T, typename B>
[[gnu::always_inline]] inline void nt_tile(std::size_t i0, std::size_t j, std::size_t n,
                                           std::size_t k, const float* a, const B& b,
                                           float* c, bool accumulate) {
  constexpr int kRegs = 16 / L::kLanes;
  const float* arow[R];
  const float* brow[T];
  typename L::V acc[R * T][kRegs];
  for (int r = 0; r < R; ++r) arow[r] = a + (i0 + r) * k;
  for (int t = 0; t < T; ++t) brow[t] = b.base + b.row(j + t);
  for (int o = 0; o < R * T; ++o) {
    for (int h = 0; h < kRegs; ++h) acc[o][h] = L::zero();
  }
  std::size_t p = 0;
  for (; p + 16 <= k; p += 16) {
    const std::size_t o0 = b.col(p);
    const std::size_t o1 = b.col(p + 8);
    for (int h = 0; h < kRegs; ++h) {
      typename L::V bv[T];
      for (int t = 0; t < T; ++t) {
        bv[t] = L::template load2<B::kAdjacent>(brow[t] + (h == 0 ? o0 : o1), brow[t] + o1);
      }
      for (int r = 0; r < R; ++r) {
        const typename L::V av = L::load(arow[r] + p + 8 * h);
        for (int t = 0; t < T; ++t) {
          acc[r * T + t][h] = L::fmadd(av, bv[t], acc[r * T + t][h]);
        }
      }
    }
  }
  if (p + 8 <= k) {  // a lone final 8-pixel block feeds acc0
    const std::size_t o = b.col(p);
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_loadu_ps(arow[r] + p);
      for (int t = 0; t < T; ++t) {
        acc[r * T + t][0] = L::fma_low(av, _mm256_loadu_ps(brow[t] + o), acc[r * T + t][0]);
      }
    }
    p += 8;
  }
  // hsum256(acc0 + acc1) per output, eight outputs at a time where eight
  // are left.
  __m256 folded[R * T];
  for (int o = 0; o < R * T; ++o) folded[o] = L::fold(acc[o]);
  float s[R * T];
  int o = 0;
  for (; o + 8 <= R * T; o += 8) _mm256_storeu_ps(s + o, hsum256x8(folded + o));
  for (; o < R * T; ++o) s[o] = hsum256(folded[o]);
  for (int r = 0; r < R; ++r) {
    float* cout = c + (i0 + r) * n + j;
    for (int t = 0; t < T; ++t) {
      float v = s[r * T + t];
      for (std::size_t q = p; q < k; ++q) v += arow[r][q] * brow[t][b.col(q)];
      cout[t] = accumulate ? cout[t] + v : v;
    }
  }
}

// Rows [i0, i1) of gemm_nt against the T columns of B from j on, in tiles
// of L::kNtRows rows.
template <typename L, int T, typename B>
void nt_cols(std::size_t i0, std::size_t i1, std::size_t j, std::size_t n,
             std::size_t k, const float* a, const B& b, float* c, bool accumulate) {
  static_assert(kGemmRowTile % L::kNtRows == 0, "nt tiles must divide the row tile");
  std::size_t i = i0;
  for (; i + L::kNtRows <= i1; i += L::kNtRows) {
    nt_tile<L, L::kNtRows, T>(i, j, n, k, a, b, c, accumulate);
  }
  if constexpr (L::kNtRows > 1) {
    switch (i1 - i) {
      case 3: nt_tile<L, 3, T>(i, j, n, k, a, b, c, accumulate); break;
      case 2: nt_tile<L, 2, T>(i, j, n, k, a, b, c, accumulate); break;
      case 1: nt_tile<L, 1, T>(i, j, n, k, a, b, c, accumulate); break;
      default: break;
    }
  }
}

// Bytes of A per gemm_nt row block: with one 4-column tile of B beside it,
// well inside a 32 KB L1.
constexpr std::size_t kNtBlockBytes = 16 * 1024;

template <typename L, typename B>
void nt_rows(std::size_t r0, std::size_t r1, std::size_t n, std::size_t k,
             const float* a, const B& b, float* c, bool accumulate) {
  // Row blocks of at most kNtBlockBytes of A outside, 4-column tiles of B
  // inside them and row tiles innermost: a tile's 4 B rows and the block
  // stay in L1 while every row of the block runs against the tile, so B
  // streams from L2 once per block instead of once per row.  Each element
  // is still one chain, so the order changes no bit.
  const std::size_t block =
      std::max<std::size_t>(1, kNtBlockBytes / (std::max<std::size_t>(k, 1) * sizeof(float)));
  for (std::size_t i0 = r0; i0 < r1; i0 += block) {
    const std::size_t i1 = std::min(r1, i0 + block);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) nt_cols<L, 4>(i0, i1, j, n, k, a, b, c, accumulate);
    switch (n - j) {
      case 3: nt_cols<L, 3>(i0, i1, j, n, k, a, b, c, accumulate); break;
      case 2: nt_cols<L, 2>(i0, i1, j, n, k, a, b, c, accumulate); break;
      case 1: nt_cols<L, 1>(i0, i1, j, n, k, a, b, c, accumulate); break;
      default: break;
    }
  }
}

// The convolution forms: the same tiles over the in-place patch matrix, so
// each element keeps the plain entry's chain (nt's serial tail is empty
// there, k being whole 8-pixel blocks).  The patch matrix's pixels run
// along n in nn_conv and along k in nt_conv; a 16-lane load reads a pair of
// blocks at once where every pair sits side by side.
template <typename L, typename Body>
void with_patches(const ConvPatches& b, std::size_t pixels, Body&& body) {
  if constexpr (L::kLanes > 8) {
    if (!pairs_adjacent(b, pixels)) {
      body(PatchesB<false>{b.base, b.row_off, b.col_off});
      return;
    }
  }
  body(PatchesB<true>{b.base, b.row_off, b.col_off});
}

template <typename L>
void nn_conv_rows(std::size_t r0, std::size_t r1, std::size_t n, std::size_t k,
                  const float* a, const ConvPatches& b, float* c, bool accumulate) {
  with_patches<L>(b, n, [&](const auto& pb) { nn_rows<L>(r0, r1, n, k, a, pb, c, accumulate); });
}

template <typename L>
void nt_conv_rows(std::size_t r0, std::size_t r1, std::size_t n, std::size_t k,
                  const float* a, const ConvPatches& b, float* c, bool accumulate) {
  with_patches<L>(b, k, [&](const auto& pb) { nt_rows<L>(r0, r1, n, k, a, pb, c, accumulate); });
}

}  // namespace
}  // namespace tdfm::kernels
