// Runtime-dispatched compute kernels.
//
// tdfm::kernels is a leaf library (no tdfm dependencies) holding the
// hand-vectorized inner loops behind tensor/gemm.hpp, tensor/qgemm.hpp, q8_0
// quantization (kernels/quant.hpp) and the depthwise convolution
// (nn::DepthwiseConv2D).
// One implementation table exists per instruction set:
//
//   scalar  the reference: plain loops, vectorization and FP contraction
//           disabled at compile time, so its arithmetic is the canonical
//           mul-then-add semantics every other kernel is checked against
//   sse2    128-bit mul+add loops (x86-64 baseline, no FMA)
//   avx2    256-bit FMA micro-kernels, register-blocked 8xN tiles
//
// The active table is picked once, lazily: the TDFM_KERNEL env var
// (scalar|sse2|avx2) wins, otherwise cpuid chooses the best supported set.
// set_active_kernel() overrides it at runtime (bench --kernel A/B runs).
//
// Every kernel computes a *row range* [r0, r1) of the output so the caller
// (tensor/gemm.cpp) owns threading and FLOP accounting.  Determinism
// contract: within one kernel choice, each output element's operation
// sequence depends only on (element, shape) — never on the row partition —
// so results are bit-identical at any thread count.  Across kernel choices
// results differ (FMA vs mul+add, reduction shape); the checker suite
// (tests/kernels) quantifies those differences instead of assuming them
// away.  The q8 entries are the exception: quantization is elementwise exact
// arithmetic under one explicit rounding rule, and the matmul's per-block
// integer dot is exact with a fixed float accumulation order, so q8 results
// are bit-identical across *all* kernel choices.
//
// The depthwise entries work on one [in_h, in_w] plane per call and slide the
// k x k window directly, with no patch matrix.  Their forward pass and input
// gradient repeat, per element, the operation sequence of im2col + the same
// table's nn kernel (resp. tn kernel + col2im), so they are bit-identical to
// that path (the input gradient for finite filters); the weight gradient is
// a dot product of its own reduction shape (scalar: the sequential sum,
// identical to the nt kernel).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace tdfm::kernels {

enum class KernelKind : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Computes rows [r0, r1) of C for one GEMM variant (nn/nt/tn as defined in
/// tensor/gemm.hpp).  `m` is the full row count (gemm_tn reads A with stride
/// m); `accumulate=false` overwrites the row range.
using GemmRowsFn = void (*)(std::size_t r0, std::size_t r1, std::size_t m,
                            std::size_t n, std::size_t k, const float* a,
                            const float* b, float* c, bool accumulate);

/// Computes rows [r0, r1) of C[m x n] where C[i,j] is the q8_0 block dot of
/// A row i against B row j: both operands hold `blocks` 32-element int8
/// blocks per row (tail-padded with zeros) with per-block fp32 scales.
using GemmQ8RowsFn = void (*)(std::size_t r0, std::size_t r1, std::size_t n,
                              std::size_t blocks, const std::int8_t* aq,
                              const float* as, const std::int8_t* bq,
                              const float* bs, float* c);

/// Quantizes `rows` x `cols` row-major floats to q8_0 (kernels/quant.hpp):
/// per row, blocks = ceil(cols / 32) blocks of 32 codes in `codes` (tails
/// zero-padded) and one scale per block in `scales`.
using QuantizeQ8Fn = void (*)(const float* src, std::size_t rows,
                              std::size_t cols, std::int8_t* codes,
                              float* scales);

/// One depthwise plane: a `kernel` x `kernel` filter slid over an
/// [in_h, in_w] plane with step `stride` and `pad` zeros on every side (the
/// single-channel case of tdfm::ConvGeometry).
struct DwGeometry {
  std::size_t in_h = 0, in_w = 0;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t pad = 1;

  [[nodiscard]] std::size_t out_h() const {
    return (in_h + 2 * pad - kernel) / stride + 1;
  }
  [[nodiscard]] std::size_t out_w() const {
    return (in_w + 2 * pad - kernel) / stride + 1;
  }
};

/// Everything the depthwise kernels derive from a DwGeometry, computed once
/// by dw_plan() and shared read-only by every plane of a layer call (and by
/// every thread).
///
/// Each kernel call works in caller-owned scratch of `scratch_floats`
/// floats.  Its first `plane_floats` hold a zero-padded copy of one plane,
/// split by stride phase: padded row r (0 <= r < in_h + 2*pad) holds
/// `stride` phase rows of `row_len` floats, and element i of phase q is
/// padded column stride*i + q.  The input under output pixel (y, x) at tap
/// t = (ky, kx) then sits at y*row_step + tap_offset[t] + x, so every tap
/// reads a contiguous run whatever the stride.  Rows reach a whole 8-lane
/// vector past the last output column, so vector loads never leave the
/// buffer.  The rest holds one output-gradient plane bordered by zeros,
/// `grad_lead` rows above and columns before it (`grad_rows` rows of
/// `grad_row_len` floats), for kernels that gather instead of scatter.
/// Interior elements: of phase q, [col_begin[q], col_end[q]); padded rows
/// q, q + stride, ... inside the plane are phase row indexes
/// [row_begin[q], row_end[q]).
struct DwPlan {
  DwGeometry geom;
  std::size_t out_h = 0, out_w = 0;
  std::size_t row_len = 0;
  std::size_t row_step = 0;  ///< floats from output row y's inputs to y+1's
  std::size_t plane_floats = 0;
  std::size_t grad_lead = 0, grad_rows = 0, grad_row_len = 0;
  std::size_t scratch_floats = 0;
  std::vector<std::size_t> tap_offset;  ///< one per tap, (ky, kx) order
  std::vector<std::size_t> col_begin, col_end, row_begin, row_end;
};

[[nodiscard]] DwPlan dw_plan(const DwGeometry& g);

/// Depthwise forward of one plane: out[y, x] = bias + sum over taps t =
/// (ky, kx) in ascending order of filter[t] * in[y*stride + ky - pad,
/// x*stride + kx - pad], out-of-plane taps reading zero.
using DwForwardFn = void (*)(const DwPlan& plan, const float* in,
                             const float* filter, float bias, float* out,
                             float* scratch);

/// Input gradient of one plane (the adjoint of the forward pass, without
/// bias): overwrites din[in_h, in_w].
using DwInputGradFn = void (*)(const DwPlan& plan, const float* gout,
                               const float* filter, float* din,
                               float* scratch);

/// Weight and bias gradients of one plane, accumulated: dfilter[t] += the dot
/// of gout with tap t's window, *dbias += the sum of gout.
using DwWeightGradFn = void (*)(const DwPlan& plan, const float* in,
                                const float* gout, float* dfilter,
                                float* dbias, float* scratch);

struct KernelTable {
  GemmRowsFn nn;
  GemmRowsFn nt;
  GemmRowsFn tn;
  GemmQ8RowsFn q8_nt;
  QuantizeQ8Fn quantize_q8;
  DwForwardFn dw_forward;
  DwInputGradFn dw_input_grad;
  DwWeightGradFn dw_weight_grad;
};

/// "scalar", "sse2", "avx2".
[[nodiscard]] const char* kernel_name(KernelKind kind);

/// Inverse of kernel_name; nullopt for unknown names.
[[nodiscard]] std::optional<KernelKind> parse_kernel(std::string_view name);

/// Whether this host's CPU can run `kind` (cpuid; scalar is always true).
[[nodiscard]] bool kernel_supported(KernelKind kind);

/// All host-supported kinds, scalar first (checker iteration order).
[[nodiscard]] std::vector<KernelKind> supported_kernels();

/// The kernel every dispatching call site currently uses.  First call
/// resolves TDFM_KERNEL (throws std::runtime_error on an unknown or
/// unsupported value) and falls back to the best cpuid-supported set.
[[nodiscard]] KernelKind active_kernel();

/// Overrides the active kernel.  Throws std::runtime_error when the host
/// does not support `kind`.
void set_active_kernel(KernelKind kind);

/// Implementation table for one kind (valid even when unsupported — used by
/// the checker on hosts that can run it).
[[nodiscard]] const KernelTable& kernel_table(KernelKind kind);

/// Shorthand for kernel_table(active_kernel()).
[[nodiscard]] const KernelTable& active_table();

}  // namespace tdfm::kernels
