// Internal: per-instruction-set kernel entry points.
//
// One symbol set per TU (gemm_{scalar,sse2,avx2}.cpp, which also hold the
// q8 matmuls and the avx2 quantizer, quant.cpp with the scalar quantizer,
// and depthwise_{scalar,sse2,avx2}.cpp) so each can carry its own compile flags;
// dispatch.cpp assembles them into the public KernelTables.  On non-x86
// targets the sse2/avx2 TUs compile as forwarders to the scalar kernels (and
// cpuid reports them unsupported).
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernels/kernels.hpp"

namespace tdfm::kernels {

/// Writes the padded copy of `in` into the scratch (zeros everywhere outside
/// the plane; layout in kernels.hpp, DwPlan).
void dw_pad(const DwPlan& plan, const float* in, float* scratch);

/// Copies the plane's interior back out of a padded scratch buffer.
void dw_unpad(const DwPlan& plan, const float* scratch, float* out);

/// Writes the zero-bordered copy of an output-gradient plane after the
/// padded plane in the scratch.
void dw_pad_gradient(const DwPlan& plan, const float* gout, float* scratch);

void gemm_nn_rows_scalar(std::size_t r0, std::size_t r1, std::size_t m,
                         std::size_t n, std::size_t k, const float* a,
                         const float* b, float* c, bool accumulate);
void gemm_nt_rows_scalar(std::size_t r0, std::size_t r1, std::size_t m,
                         std::size_t n, std::size_t k, const float* a,
                         const float* b, float* c, bool accumulate);
void gemm_tn_rows_scalar(std::size_t r0, std::size_t r1, std::size_t m,
                         std::size_t n, std::size_t k, const float* a,
                         const float* b, float* c, bool accumulate);
void gemm_q8_rows_scalar(std::size_t r0, std::size_t r1, std::size_t n,
                         std::size_t blocks, const std::int8_t* aq,
                         const float* as, const std::int8_t* bq,
                         const float* bs, float* c);

void quantize_q8_rows_scalar(const float* src, std::size_t rows,
                             std::size_t cols, std::int8_t* codes,
                             float* scales);
void quantize_q8_rows_avx2(const float* src, std::size_t rows,
                           std::size_t cols, std::int8_t* codes, float* scales);

void gemm_nn_rows_sse2(std::size_t r0, std::size_t r1, std::size_t m,
                       std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate);
void gemm_nt_rows_sse2(std::size_t r0, std::size_t r1, std::size_t m,
                       std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate);
void gemm_tn_rows_sse2(std::size_t r0, std::size_t r1, std::size_t m,
                       std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate);

void gemm_nn_rows_avx2(std::size_t r0, std::size_t r1, std::size_t m,
                       std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate);
void gemm_nt_rows_avx2(std::size_t r0, std::size_t r1, std::size_t m,
                       std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate);
void gemm_tn_rows_avx2(std::size_t r0, std::size_t r1, std::size_t m,
                       std::size_t n, std::size_t k, const float* a,
                       const float* b, float* c, bool accumulate);
void gemm_q8_rows_avx2(std::size_t r0, std::size_t r1, std::size_t n,
                       std::size_t blocks, const std::int8_t* aq,
                       const float* as, const std::int8_t* bq,
                       const float* bs, float* c);

void dw_forward_scalar(const DwPlan& plan, const float* in,
                       const float* filter, float bias, float* out,
                       float* scratch);
void dw_input_grad_scalar(const DwPlan& plan, const float* gout,
                          const float* filter, float* din, float* scratch);
void dw_weight_grad_scalar(const DwPlan& plan, const float* in,
                           const float* gout, float* dfilter, float* dbias,
                           float* scratch);

void dw_forward_sse2(const DwPlan& plan, const float* in, const float* filter,
                     float bias, float* out, float* scratch);
void dw_input_grad_sse2(const DwPlan& plan, const float* gout,
                        const float* filter, float* din, float* scratch);
void dw_weight_grad_sse2(const DwPlan& plan, const float* in,
                         const float* gout, float* dfilter, float* dbias,
                         float* scratch);

void dw_forward_avx2(const DwPlan& plan, const float* in, const float* filter,
                     float bias, float* out, float* scratch);
void dw_input_grad_avx2(const DwPlan& plan, const float* gout,
                        const float* filter, float* din, float* scratch);
void dw_weight_grad_avx2(const DwPlan& plan, const float* in,
                         const float* gout, float* dfilter, float* dbias,
                         float* scratch);

}  // namespace tdfm::kernels
