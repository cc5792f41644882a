// Depthwise filter packing and the channel-lane scratch layout
// (kernels.hpp, DwForwardFn).  Only sizes and copies live here; the
// arithmetic stays in the per-ISA TUs.
//
// A call covers one image's run of up to kDwLanes channels.  The avx2
// kernels first transpose the run's planes into a channel-lane grid, pixel
// by pixel with the run's channels side by side ([rows][cols][kDwLanes]),
// so each tap of a filter is one vector operation on kDwLanes channels
// whatever the plane size; the scalar reference loops over the lanes, one
// zero-bordered plane at a time at the start of the scratch.  For the avx2
// kernels the scratch holds, in order:
//  - forward: the input grid bordered by `pad` zeros, then the output grid;
//  - input gradient: the output-gradient grid bordered by zeros wide enough
//    that every tap of every in-plane input pixel reads inside it, then the
//    input-gradient grid, then the taps' zero masks;
//  - weight gradient: the padded input grid, the output-gradient grid, then
//    the reduced sums of the taps and the bias.
#include <algorithm>

#include "kernels/gemm_kernels.hpp"

namespace tdfm::kernels {

DwLaneLayout dw_lane_layout(const DwGeometry& g) {
  DwLaneLayout l;
  const std::size_t s = g.stride;
  l.pad_rows = g.in_h + 2 * g.pad;
  l.pad_cols = g.in_w + 2 * g.pad;
  // Input row iy is reached from output rows (iy + pad) / s - j, for
  // j = 0 .. (kernel - 1) / s: `grad_lead` zero rows above the plane and
  // rows down to (in_h - 1 + pad) / s below it (the same for columns).
  l.grad_lead = (g.kernel - 1) / s;
  l.grad_rows = l.grad_lead + std::max(g.out_h(), (g.in_h - 1 + g.pad) / s + 1);
  l.grad_cols = l.grad_lead + std::max(g.out_w(), (g.in_w - 1 + g.pad) / s + 1);
  return l;
}

std::size_t dw_run_floats(const DwGeometry& g) { return (g.taps() + 1) * kDwLanes; }

void dw_pack_filters(const DwGeometry& g, std::size_t channels,
                     const float* filter, const float* bias, float* packed) {
  const std::size_t taps = g.taps();
  const std::size_t runs = (channels + kDwLanes - 1) / kDwLanes;
  std::fill_n(packed, runs * dw_run_floats(g), 0.0F);
  for (std::size_t c = 0; c < channels; ++c) {
    float* run = packed + (c / kDwLanes) * dw_run_floats(g);
    const std::size_t lane = c % kDwLanes;
    for (std::size_t t = 0; t < taps; ++t) run[t * kDwLanes + lane] = filter[c * taps + t];
    run[taps * kDwLanes + lane] = bias[c];
  }
}

std::size_t dw_scratch_floats(const DwGeometry& g) {
  const DwLaneLayout l = dw_lane_layout(g);
  const std::size_t in = g.in_h * g.in_w;
  const std::size_t out = g.out_h() * g.out_w();
  const std::size_t padded = l.pad_rows * l.pad_cols;
  const std::size_t forward = padded + out;
  const std::size_t input_grad = l.grad_rows * l.grad_cols + in + g.taps();
  const std::size_t weight_grad = padded + out + g.taps() + 1;
  return std::max({forward, input_grad, weight_grad}) * kDwLanes;
}

}  // namespace tdfm::kernels
