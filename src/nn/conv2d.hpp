// 2-d convolution layers (standard and depthwise).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/rng.hpp"
#include "kernels/quant.hpp"
#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace tdfm::nn {

/// Standard convolution: input [B, C, H, W] -> output [B, out_c, H', W'].
/// Implemented as im2col + GEMM per group of images: one image per group on
/// output planes of at least 64 px (per-image GEMMs beat batching there,
/// ~25% on one core), ceil(64 / plane) images on smaller planes so every GEMM
/// spans at least 64 columns.  Weights stored [out_c, C*k*k].
///
/// With one image per group, stride 1, 2*pad + 1 == k and output rows of
/// whole 8-pixel blocks (reads_in_place, tensor/im2col.hpp) there is no
/// im2col: the forward and weight-gradient GEMMs read the patch matrix in
/// place from a zero-bordered copy of each image (the image itself for 1x1),
/// which a training forward keeps for backward instead of the input.  The
/// border holds the +0.0f im2col writes and the GEMMs repeat their table's
/// nn and nt chains, so the outputs and gradients are the im2col path's bits.
///
/// With `fuse_relu` the layer also applies the ReLU that follows it in the
/// model zoo, in the pass that adds the bias: y > 0 ? y : 0 forward, and
/// backward dy * m with m in {0.0f, 1.0f} read from a byte mask, exactly as
/// ReLU computes them (so -0 and NaN propagate as they do through ReLU).
class Conv2D final : public Layer {
 public:
  Conv2D(std::size_t in_c, std::size_t out_c, std::size_t in_h, std::size_t in_w,
         std::size_t kernel, std::size_t stride, std::size_t pad, Rng& rng,
         bool fuse_relu = false);

  Tensor forward(const Tensor& input, bool training) override;
  /// Returns an empty tensor after discard_input_grad(), skipping the tn
  /// GEMM and col2im.
  Tensor backward(const Tensor& grad_output) override;
  void discard_input_grad() override { input_grad_ = false; }
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  /// Quantizes the [out_c, C*k*k] weight rows to q8_0; forward then runs
  /// im2row + quantize + int8 matmul per image group (the fp32 grouping).
  /// Forward-only afterwards.
  void quantize_for_inference() override;
  [[nodiscard]] std::vector<kernels::Q8Matrix*> quantized_weights() override {
    return quantized_ ? std::vector<kernels::Q8Matrix*>{&qweight_}
                      : std::vector<kernels::Q8Matrix*>{};
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t weight_layer_count() const override { return 1; }

 private:
  ConvGeometry geom_;
  std::size_t out_c_;
  bool relu_;
  bool input_grad_ = true;  ///< false: backward skips the input gradient
  Parameter weight_;  ///< [out_c, C*k*k]
  Parameter bias_;    ///< [out_c]
  /// The patch matrix read in place, on the geometries that take that path.
  std::optional<InPlacePatches> in_place_;
  /// Training-mode forward input (the images' bordered copies on the
  /// in-place path with pad > 0); empty otherwise.
  Tensor cached_input_;
  std::vector<std::uint8_t> relu_mask_;  ///< 1 where y > 0 (fused ReLU, training)
  /// Per-group dW/db contributions [groups, out_c*pr + out_c], filled in
  /// parallel and reduced in group order so gradients are
  /// thread-count-invariant.
  std::vector<float> grad_scratch_;
  bool quantized_ = false;
  kernels::Q8Matrix qweight_;  ///< [out_c, C*k*k] q8_0 rows
};

/// Depthwise convolution (MobileNet): each input channel is convolved with
/// its own k x k filter; channel count is preserved.  Runs the kernel table's
/// direct sliding-window depthwise kernels, one image's run of
/// kernels::kDwLanes channels per call.
class DepthwiseConv2D final : public Layer {
 public:
  DepthwiseConv2D(std::size_t channels, std::size_t in_h, std::size_t in_w,
                  std::size_t kernel, std::size_t stride, std::size_t pad, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  /// Fake-quantizes: weights are rounded through q8_0 and kept fp32 (a k x k
  /// filter spans under one 32-element block, so int8 storage saves nothing;
  /// the rounding still makes accuracy reflect int8 deployment).  The layer
  /// becomes forward-only like the rest of a quantized network.
  void quantize_for_inference() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t weight_layer_count() const override { return 1; }

 private:
  ConvGeometry geom_;  ///< geometry with in_c = 1, applied per channel
  std::size_t channels_;
  Parameter weight_;  ///< [channels, k*k]
  Parameter bias_;    ///< [channels]
  Tensor cached_input_;
  bool quantized_ = false;
};

}  // namespace tdfm::nn
