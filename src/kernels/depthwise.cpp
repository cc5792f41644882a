// Depthwise plan and scratch layout (kernels.hpp, DwPlan): the padded,
// stride-phase-split plane every depthwise kernel works on.  Only sizes and
// copies live here; the arithmetic stays in the per-ISA TUs.
#include <algorithm>
#include <cstring>

#include "kernels/gemm_kernels.hpp"

namespace tdfm::kernels {

namespace {

std::size_t round8(std::size_t n) { return (n + 7) / 8 * 8; }

// Phase q of padded indexes s*i + q, for i in [begin, end), inside
// [pad, pad + n): appends the span and returns begin + its length rounded up
// to whole 8-lane vectors.
std::size_t phase_span(std::size_t q, std::size_t s, std::size_t pad,
                       std::size_t n, std::vector<std::size_t>& begins,
                       std::vector<std::size_t>& ends) {
  const std::size_t begin = q >= pad ? 0 : (pad - q + s - 1) / s;
  const std::size_t end = q >= pad + n ? begin : (pad + n - q + s - 1) / s;
  begins.push_back(begin);
  ends.push_back(end);
  return begin + round8(end - begin);
}

}  // namespace

DwPlan dw_plan(const DwGeometry& g) {
  DwPlan plan;
  plan.geom = g;
  plan.out_h = g.out_h();
  plan.out_w = g.out_w();
  const std::size_t s = g.stride;
  std::size_t widest = 0;  // furthest whole-vector store into a phase row
  std::size_t lowest = 0;  // phase row index past the last interior row
  for (std::size_t q = 0; q < s; ++q) {
    widest = std::max(widest, phase_span(q, s, g.pad, g.in_w, plan.col_begin,
                                         plan.col_end));
    phase_span(q, s, g.pad, g.in_h, plan.row_begin, plan.row_end);
    lowest = std::max(lowest, plan.row_end.back());
  }
  // Widest reads: element round8(ow) - 1 + (kernel - 1) / stride of a phase
  // row (sliding window), and the gather's whole-vector stores.
  plan.row_len = std::max({(g.in_w + 2 * g.pad + s - 1) / s,
                           round8(plan.out_w) + (g.kernel - 1) / s, widest});
  plan.row_step = s * s * plan.row_len;
  plan.plane_floats = (g.in_h + 2 * g.pad) * s * plan.row_len;
  plan.grad_lead = (g.kernel - 1) / s;
  plan.grad_rows = plan.grad_lead + std::max(plan.out_h, lowest);
  plan.grad_row_len = plan.grad_lead + std::max(widest, plan.out_w);
  plan.scratch_floats = plan.plane_floats + plan.grad_rows * plan.grad_row_len;
  for (std::size_t ky = 0; ky < g.kernel; ++ky) {
    for (std::size_t kx = 0; kx < g.kernel; ++kx) {
      plan.tap_offset.push_back((ky * s + kx % s) * plan.row_len + kx / s);
    }
  }
  return plan;
}

void dw_pad(const DwPlan& plan, const float* in, float* scratch) {
  const DwGeometry& g = plan.geom;
  const std::size_t s = g.stride;
  std::memset(scratch, 0, plan.plane_floats * sizeof(float));
  for (std::size_t y = 0; y < g.in_h; ++y) {
    const float* src = in + y * g.in_w;
    float* row = scratch + (y + g.pad) * s * plan.row_len;
    if (s == 1) {
      std::memcpy(row + g.pad, src, g.in_w * sizeof(float));
      continue;
    }
    // Phase q holds padded columns q, q + s, ...; column c is src[c - pad].
    for (std::size_t q = 0; q < s; ++q) {
      float* dst = row + q * plan.row_len;
      std::size_t i = 0;
      for (std::size_t c = q; c < g.pad + g.in_w; c += s, ++i) {
        if (c >= g.pad) dst[i] = src[c - g.pad];
      }
    }
  }
}

void dw_unpad(const DwPlan& plan, const float* scratch, float* out) {
  const DwGeometry& g = plan.geom;
  const std::size_t s = g.stride;
  for (std::size_t y = 0; y < g.in_h; ++y) {
    float* dst = out + y * g.in_w;
    const float* row = scratch + (y + g.pad) * s * plan.row_len;
    if (s == 1) {
      std::memcpy(dst, row + g.pad, g.in_w * sizeof(float));
      continue;
    }
    for (std::size_t q = 0; q < s; ++q) {
      const float* src = row + q * plan.row_len;
      std::size_t i = 0;
      for (std::size_t c = q; c < g.pad + g.in_w; c += s, ++i) {
        if (c >= g.pad) dst[c - g.pad] = src[i];
      }
    }
  }
}

void dw_pad_gradient(const DwPlan& plan, const float* gout, float* scratch) {
  float* grad = scratch + plan.plane_floats;
  std::memset(grad, 0, plan.grad_rows * plan.grad_row_len * sizeof(float));
  for (std::size_t y = 0; y < plan.out_h; ++y) {
    std::memcpy(grad + (y + plan.grad_lead) * plan.grad_row_len + plan.grad_lead,
                gout + y * plan.out_w, plan.out_w * sizeof(float));
  }
}

}  // namespace tdfm::kernels
