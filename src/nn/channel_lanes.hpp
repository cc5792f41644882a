// Internal: the channel-lane reductions of BatchNorm2D (batchnorm.cpp) and
// of Conv2D's bias gradient (conv2d.cpp).
//
// Each reduction runs kLanes channels side by side, one lane per channel,
// and each lane repeats the serial chain of the per-channel loop it
// replaced, over (image, pixel) in order — so it keeps that loop's bits
// while its latency overlaps across the lanes.  channel_lanes.cpp is
// compiled without FP contraction (src/nn/CMakeLists.txt): every product
// rounds before its add.
#pragma once

#include <cstddef>

namespace tdfm::nn::channel_lanes {

inline constexpr std::size_t kLanes = 8;

/// For channels [c0, c0 + lanes) of x[batch, channels, plane]: sum[l] and
/// sq[l] of x and x^2, accumulated in double (each product of two floats is
/// exact in double, so contraction cannot move these bits).
void moments(const float* x, std::size_t batch, std::size_t channels,
             std::size_t plane, std::size_t c0, std::size_t lanes, double* sum,
             double* sq);

/// sum_dy[l] and sum_dy_xh[l] of dy and dy * x_hat, the product rounded
/// before its add.
void grad_sums(const float* dy, const float* xh, std::size_t batch,
               std::size_t channels, std::size_t plane, std::size_t c0,
               std::size_t lanes, float* sum_dy, float* sum_dy_xh);

/// sum[l] of plane l of x[lanes, plane]: one float chain from 0 over the
/// plane in order.
void sums(const float* x, std::size_t plane, std::size_t lanes, float* sum);

}  // namespace tdfm::nn::channel_lanes
