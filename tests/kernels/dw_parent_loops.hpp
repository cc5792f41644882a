// Copies of both kernel tables' depthwise loops as they stood before the
// kernels moved to channel runs (one plane per call over a stride-phase
// split padded plane): the oracle of DwChecker.RunsMatchParentLoopsBitForBit.
// dw_parent_loops.cpp carries the kernel TUs' determinism flags
// (tests/CMakeLists.txt).
#pragma once

#include <cstddef>
#include <vector>

namespace tdfm::kernels_test {

struct ParentDwGeometry {
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

struct ParentDwPlan {
  ParentDwGeometry geom;
  std::size_t out_h = 0, out_w = 0;
  std::size_t row_len = 0;
  std::size_t row_step = 0;
  std::size_t plane_floats = 0;
  std::size_t grad_lead = 0, grad_rows = 0, grad_row_len = 0;
  std::size_t scratch_floats = 0;
  std::vector<std::size_t> tap_offset;
  std::vector<std::size_t> col_begin, col_end, row_begin, row_end;
};

[[nodiscard]] ParentDwPlan parent_dw_plan(const ParentDwGeometry& g);

void dw_parent_forward_scalar(const ParentDwPlan& plan, const float* in,
                              const float* filter, float bias, float* out,
                              float* scratch);
void dw_parent_input_grad_scalar(const ParentDwPlan& plan, const float* gout,
                                 const float* filter, float* din, float* scratch);
void dw_parent_weight_grad_scalar(const ParentDwPlan& plan, const float* in,
                                  const float* gout, float* dfilter, float* dbias,
                                  float* scratch);
void dw_parent_forward_avx2(const ParentDwPlan& plan, const float* in,
                            const float* filter, float bias, float* out,
                            float* scratch);
void dw_parent_input_grad_avx2(const ParentDwPlan& plan, const float* gout,
                               const float* filter, float* din, float* scratch);
void dw_parent_weight_grad_avx2(const ParentDwPlan& plan, const float* in,
                                const float* gout, float* dfilter, float* dbias,
                                float* scratch);

}  // namespace tdfm::kernels_test
