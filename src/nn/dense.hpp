// Fully-connected layer.
#pragma once

#include "core/rng.hpp"
#include "kernels/quant.hpp"
#include "nn/layer.hpp"

namespace tdfm::nn {

/// y = x W^T + b with x: [B, in], W: [out, in], b: [out].
///
/// After quantize_for_inference() the weight lives as q8_0 rows and forward
/// quantizes each input batch row-wise, so the matmul runs int8 x int8
/// (tensor/qgemm.hpp).  Bias stays fp32 (it is tiny and added post-matmul).
class Dense final : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  void quantize_for_inference() override;
  [[nodiscard]] std::vector<kernels::Q8Matrix*> quantized_weights() override {
    return quantized_ ? std::vector<kernels::Q8Matrix*>{&qweight_}
                      : std::vector<kernels::Q8Matrix*>{};
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t weight_layer_count() const override { return 1; }

  [[nodiscard]] std::size_t in_features() const { return in_; }
  [[nodiscard]] std::size_t out_features() const { return out_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;  ///< [B, in] saved by a training-mode forward for
                         ///< the weight gradient; empty otherwise
  bool quantized_ = false;
  kernels::Q8Matrix qweight_;  ///< [out, in] q8_0 rows after quantization
  kernels::Q8Matrix qinput_;   ///< per-batch activation scratch (one
                               ///< in-flight batch per layer, see Layer doc)
};

}  // namespace tdfm::nn
