// Internal: per-instruction-set kernel entry points.
//
// One symbol set per TU (gemm_{scalar,avx2}.cpp, which also hold the q8
// matmuls and the avx2 quantizer, gemm_avx512.cpp with the avx2 table's
// fp32 GEMMs at 16 lanes, quant.cpp with the scalar quantizer,
// depthwise_{scalar,avx2}.cpp and col2im_{scalar,avx2}.cpp) so each can
// carry its own compile flags; dispatch.cpp assembles them into the public
// KernelTables.  On non-x86 targets the avx2 TUs and gemm_avx512.cpp
// compile as forwarders to the scalar kernels (and cpuid reports them
// unsupported).
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernels/kernels.hpp"

namespace tdfm::kernels {

/// Grid sizes of the avx2 depthwise kernels' channel-lane scratch
/// (depthwise.cpp), in pixels of kDwLanes floats.
struct DwLaneLayout {
  std::size_t pad_rows = 0, pad_cols = 0;  ///< input grid with its zero border
  std::size_t grad_lead = 0;  ///< zero rows/columns before the gradient grid
  std::size_t grad_rows = 0, grad_cols = 0;  ///< bordered gradient grid
};

[[nodiscard]] DwLaneLayout dw_lane_layout(const DwGeometry& g);

/// Taps [first, last) of a k-tap stride-1 filter that read input index s
/// from an in-plane output: those t whose output s + pad - t lies in
/// [0, out).  Empty when first >= last.
struct TapRange {
  std::size_t first, last;
};
[[nodiscard]] inline TapRange tap_range(std::size_t s, std::size_t pad,
                                        std::size_t k, std::size_t out) {
  const std::size_t sp = s + pad;
  return {sp >= out ? sp + 1 - out : 0, sp + 1 < k ? sp + 1 : k};
}

void gemm_nn_rows_scalar(std::size_t r0, std::size_t r1, std::size_t m,
                         std::size_t n, std::size_t k, const float* a,
                         const float* b, float* c, bool accumulate);
void gemm_nt_rows_scalar(std::size_t r0, std::size_t r1, std::size_t m,
                         std::size_t n, std::size_t k, const float* a,
                         const float* b, float* c, bool accumulate);
void gemm_tn_rows_scalar(std::size_t r0, std::size_t r1, std::size_t m,
                         std::size_t n, std::size_t k, const float* a,
                         const float* b, float* c, bool accumulate);
void gemm_nn_conv_rows_scalar(std::size_t r0, std::size_t r1, std::size_t n,
                              std::size_t k, const float* a,
                              const ConvPatches& b, float* c, bool accumulate);
void gemm_nt_conv_rows_scalar(std::size_t r0, std::size_t r1, std::size_t n,
                              std::size_t k, const float* a,
                              const ConvPatches& b, float* c, bool accumulate);
void gemm_q8_rows_scalar(std::size_t r0, std::size_t r1, std::size_t n,
                         std::size_t blocks, const std::int8_t* aq,
                         const float* as, const std::int8_t* bq,
                         const float* bs, float* c);

void quantize_q8_rows_scalar(const float* src, std::size_t rows,
                             std::size_t cols, std::int8_t* codes,
                             float* scales);
void quantize_q8_rows_avx2(const float* src, std::size_t rows,
                           std::size_t cols, std::int8_t* codes, float* scales);

void gemm_nn_rows_avx2(std::size_t r0, std::size_t r1, std::size_t m,
                       std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate);
void gemm_nt_rows_avx2(std::size_t r0, std::size_t r1, std::size_t m,
                       std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate);
void gemm_tn_rows_avx2(std::size_t r0, std::size_t r1, std::size_t m,
                       std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate);
void gemm_nn_conv_rows_avx2(std::size_t r0, std::size_t r1, std::size_t n,
                            std::size_t k, const float* a, const ConvPatches& b,
                            float* c, bool accumulate);
void gemm_nt_conv_rows_avx2(std::size_t r0, std::size_t r1, std::size_t n,
                            std::size_t k, const float* a, const ConvPatches& b,
                            float* c, bool accumulate);
void gemm_q8_rows_avx2(std::size_t r0, std::size_t r1, std::size_t n,
                       std::size_t blocks, const std::int8_t* aq,
                       const float* as, const std::int8_t* bq,
                       const float* bs, float* c);

// The same five fp32 entries built 16 lanes wide (gemm_avx512.cpp): the
// avx2 table's GEMMs on hosts with AVX-512F, DQ and VL.
void gemm_nn_rows_avx512(std::size_t r0, std::size_t r1, std::size_t m,
                         std::size_t n, std::size_t k, const float* a,
                         const float* b, float* c, bool accumulate);
void gemm_nt_rows_avx512(std::size_t r0, std::size_t r1, std::size_t m,
                         std::size_t n, std::size_t k, const float* a,
                         const float* b, float* c, bool accumulate);
void gemm_tn_rows_avx512(std::size_t r0, std::size_t r1, std::size_t m,
                         std::size_t n, std::size_t k, const float* a,
                         const float* b, float* c, bool accumulate);
void gemm_nn_conv_rows_avx512(std::size_t r0, std::size_t r1, std::size_t n,
                              std::size_t k, const float* a, const ConvPatches& b,
                              float* c, bool accumulate);
void gemm_nt_conv_rows_avx512(std::size_t r0, std::size_t r1, std::size_t n,
                              std::size_t k, const float* a, const ConvPatches& b,
                              float* c, bool accumulate);

void col2im_s1_scalar(const DwGeometry& g, std::size_t channels,
                      const float* columns, std::size_t row_stride,
                      float* image_grad);
void col2im_s1_avx2(const DwGeometry& g, std::size_t channels,
                    const float* columns, std::size_t row_stride,
                    float* image_grad);

void dw_forward_scalar(const DwGeometry& g, std::size_t lanes, const float* in,
                       const float* run, float* out, float* scratch);
void dw_input_grad_scalar(const DwGeometry& g, std::size_t lanes,
                          const float* gout, const float* run, float* din,
                          float* scratch);
void dw_weight_grad_scalar(const DwGeometry& g, std::size_t lanes,
                           const float* in, const float* gout, float* dfilter,
                           float* dbias, float* scratch);

void dw_forward_avx2(const DwGeometry& g, std::size_t lanes, const float* in,
                     const float* run, float* out, float* scratch);
void dw_input_grad_avx2(const DwGeometry& g, std::size_t lanes,
                        const float* gout, const float* run, float* din,
                        float* scratch);
void dw_weight_grad_avx2(const DwGeometry& g, std::size_t lanes,
                         const float* in, const float* gout, float* dfilter,
                         float* dbias, float* scratch);

}  // namespace tdfm::kernels
