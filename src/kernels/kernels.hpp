// Runtime-dispatched compute kernels.
//
// tdfm::kernels is a leaf library (no tdfm dependencies) holding the
// hand-vectorized inner loops behind tensor/gemm.hpp, tensor/qgemm.hpp, q8_0
// quantization (kernels/quant.hpp), the depthwise convolution
// (nn::DepthwiseConv2D) and col2im's stride-1 path (tensor/im2col.hpp).
// Two implementation tables exist:
//
//   scalar  the reference: plain loops, vectorization and FP contraction
//           disabled at compile time, so its arithmetic is the canonical
//           mul-then-add semantics every avx2 kernel is checked against;
//           also the fallback on hosts without AVX2+FMA
//   avx2    FMA micro-kernels in register-blocked tiles.  The five fp32
//           GEMM entries run 16 lanes wide (512-bit) on hosts with
//           AVX-512F, DQ and VL and 8 lanes wide (256-bit) elsewhere, with
//           the same chain per output element, so the same bits
//           (kernels/gemm_tiles.hpp); vector_bits() says which ran.  The
//           q8, depthwise and col2im entries are 8 lanes wide everywhere.
//
// The active table is picked once, lazily: the TDFM_KERNEL env var
// (scalar|avx2) wins, otherwise avx2 when cpuid reports AVX2 and FMA.
// set_active_kernel() overrides it at runtime (bench --kernel A/B runs).
// The avx2 table's width is no choice: cpuid fixes it once per process.
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
// The depthwise entries work on one image's run of up to kDwLanes channels
// per call, one channel per vector lane (kernels/depthwise.cpp documents
// the layout).  Each lane repeats, per element, the operation sequence of
// the per-plane loops they replaced, so every table's outputs are
// bit-identical to its earlier kernels (the input gradient for finite
// filters): the forward pass and input gradient also equal im2col + the
// same table's nn kernel (resp. tn kernel + col2im); the weight gradient is
// a dot product of each table's own reduction shape (scalar: the
// sequential sum, identical to the nt kernel).
//
// nn_conv and nt_conv are the convolution forms of nn and nt, which
// nn::Conv2D's forward and weight gradient run on stride-1 convs whose
// output planes are the size of their input: the B operand is a patch
// matrix addressed in place in a zero-bordered copy of the image
// (ConvPatches), so no im2col runs.  Each entry repeats its table's chain
// for every element (avx2: nn's FMA order; nt's two 8-float accumulators
// and hsum256; scalar: the plain loops), so with the border's
// +0.0f in place of im2col's zeros the results are the bits of im2col +
// the same table's nn or nt.
//
// The stride-1 col2im gather adds only, in a fixed order per element, so
// its bits are the same at every table; avx2 runs it 8 pixels per vector.
// Its plane geometry is DwGeometry, one channel of a convolution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace tdfm::kernels {

enum class KernelKind : int { kScalar = 0, kAvx2 = 1 };

/// Computes rows [r0, r1) of C for one GEMM variant (nn/nt/tn as defined in
/// tensor/gemm.hpp).  `m` is the full row count (gemm_tn reads A with stride
/// m); `accumulate=false` overwrites the row range.
using GemmRowsFn = void (*)(std::size_t r0, std::size_t r1, std::size_t m,
                            std::size_t n, std::size_t k, const float* a,
                            const float* b, float* c, bool accumulate);

/// Rows per register tile of the avx2 table's fp32 GEMMs (nn and tn tiles
/// are this many rows high; nt tiles 1 or 4, which divide it).  Any row
/// range yields the same bits, but a range cut off this grid leaves short
/// tiles whose few accumulators wait on FMA latency, so tensor/gemm.cpp cuts
/// its parallel chunks to multiples of it.
inline constexpr std::size_t kGemmRowTile = 8;

/// The patch matrix of a stride-1 convolution read in place, as the B
/// operand of the convolution forms of nn and nt: element (p, j) of the
/// [taps, pixels] matrix sits at base[row_off[p] + col_off[j / 8] + j % 8].
/// The pixel count is a multiple of 8 and each 8-pixel block is contiguous;
/// tdfm::InPlacePatches (tensor/im2col.hpp) builds the offsets over a
/// zero-bordered copy of the image.
struct ConvPatches {
  const float* base;
  const std::size_t* row_off;  ///< one per tap row
  const std::size_t* col_off;  ///< one per 8-pixel block
};

/// Rows [r0, r1) of C for the convolution form of a GEMM variant, `b` the
/// patch matrix: nn computes C[m x n] = A[m x k] * B with B [k taps x n
/// pixels], nt computes C[m x n] = A[m x k] * B^T with B [n taps x k
/// pixels].  Every element repeats the chain of the same table's plain
/// entry, so the results are its bits on the patch matrix im2col writes.
using ConvGemmRowsFn = void (*)(std::size_t r0, std::size_t r1, std::size_t n,
                                std::size_t k, const float* a,
                                const ConvPatches& b, float* c, bool accumulate);

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

/// Channels per depthwise call: one 256-bit vector of floats, the depthwise
/// entries' width at every table and host.
inline constexpr std::size_t kDwLanes = 8;

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
  [[nodiscard]] std::size_t taps() const { return kernel * kernel; }
};

/// Floats of one run's packed filters: tap t's kDwLanes weights at
/// [t * kDwLanes, (t + 1) * kDwLanes), lane l holding channel c0 + l, then
/// the run's kDwLanes biases.
[[nodiscard]] std::size_t dw_run_floats(const DwGeometry& g);

/// Packs `channels` filters ([channels, k*k], the layer's weight rows) and
/// biases into ceil(channels / kDwLanes) runs of dw_run_floats(g) floats.
/// Lanes past the last channel hold zero.  Done once per layer call.
void dw_pack_filters(const DwGeometry& g, std::size_t channels,
                     const float* filter, const float* bias, float* packed);

/// Scratch floats any depthwise entry needs for one call (caller-owned, any
/// contents on entry).
[[nodiscard]] std::size_t dw_scratch_floats(const DwGeometry& g);

/// Depthwise forward of one image's run of `lanes` (1..kDwLanes) channels:
/// `in` holds the run's input planes [lanes, in_h, in_w], `run` its packed
/// filters, and out[l, y, x] = bias_l + the sum over taps t = (ky, kx) in
/// ascending order of w_l[t] * in[l, y*stride + ky - pad, x*stride + kx -
/// pad], out-of-plane taps reading zero.
using DwForwardFn = void (*)(const DwGeometry& g, std::size_t lanes,
                             const float* in, const float* run, float* out,
                             float* scratch);

/// Input gradient of one run (the adjoint of the forward pass, without
/// bias): overwrites din[lanes, in_h, in_w] from gout[lanes, out_h, out_w].
using DwInputGradFn = void (*)(const DwGeometry& g, std::size_t lanes,
                               const float* gout, const float* run, float* din,
                               float* scratch);

/// Weight and bias gradients of one run, accumulated: dfilter[l, t] += the
/// dot of channel l's gout with tap t's window, dbias[l] += the sum of
/// channel l's gout (dfilter rows are the layer's [channels, k*k] layout).
using DwWeightGradFn = void (*)(const DwGeometry& g, std::size_t lanes,
                                const float* in, const float* gout,
                                float* dfilter, float* dbias, float* scratch);

/// Stride-1 col2im (tdfm::col2im) of `channels` planes of geometry `g`
/// (g.stride is 1): the patch matrix's tap row (c, ky, kx) starts at
/// columns + ((c * k + ky) * k + kx) * row_stride and holds the out_h*out_w
/// cells of one image.  Every element of image_grad[c, y, x] adds, to its
/// value on entry, the cell of each tap that reads it from an in-plane
/// output pixel, in (ky, kx) order, and is stored once; taps that read it
/// from the padding are not added at all.  Bit-identical at every table.
using Col2ImFn = void (*)(const DwGeometry& g, std::size_t channels,
                          const float* columns, std::size_t row_stride,
                          float* image_grad);

struct KernelTable {
  GemmRowsFn nn;
  GemmRowsFn nt;
  GemmRowsFn tn;
  ConvGemmRowsFn nn_conv;
  ConvGemmRowsFn nt_conv;
  GemmQ8RowsFn q8_nt;
  QuantizeQ8Fn quantize_q8;
  DwForwardFn dw_forward;
  DwInputGradFn dw_input_grad;
  DwWeightGradFn dw_weight_grad;
  Col2ImFn col2im_s1;
};

/// "scalar", "avx2".
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

/// Width in bits of the registers `kind`'s fp32 GEMM entries run on, on
/// this host: 32 for scalar (one float at a time), 512 for avx2 where its
/// 16-lane entries run (AVX-512F, DQ and VL), else 256.
[[nodiscard]] int vector_bits(KernelKind kind);

}  // namespace tdfm::kernels
