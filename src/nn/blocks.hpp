// The model zoo's architectural motifs: residual units (basic and
// bottleneck) and depthwise-separable units.
//
// These give the model zoo its architectural diversity — the paper argues
// (§IV-B) that ensembles work *because* member architectures differ
// (residual layers in ResNets, stacked convs in VGGs, separable convs in
// MobileNet); these units are those differing motifs.  A residual unit is
// one layer, Residual, over two Sequential paths; a separable unit is four
// plain layers appended to its network's body.  Every BatchNorm2D that a
// ReLU follows runs that ReLU fused (BatchNorm2D's fuse_relu), as in the
// rest of the model zoo.
#pragma once

#include "core/rng.hpp"
#include "nn/activation.hpp"
#include "nn/sequential.hpp"

namespace tdfm::nn {

/// y = ReLU(main(x) + skip(x)), where skip is the projection, or the
/// identity when there is none.  The parameters and state are the main
/// path's, then the projection's.
class Residual final : public Layer {
 public:
  Residual(LayerPtr main, LayerPtr projection);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::vector<Layer*> children() const override;
  [[nodiscard]] std::string name() const override { return "Residual"; }
  /// The main path's: the projection is bookkeeping, not a representational
  /// conv layer, and is not counted in Table III-style depth tallies.
  [[nodiscard]] std::size_t weight_layer_count() const override {
    return main_->weight_layer_count();
  }

 private:
  LayerPtr main_;
  LayerPtr projection_;  ///< null when the skip is the identity
  ReLU out_relu_;
};

/// ResNet-18-style basic block, conv3x3 -> BN+ReLU -> conv3x3 -> BN, with a
/// 1x1 conv + BN projection when the shape changes.  2 weight layers.
[[nodiscard]] LayerPtr basic_block(std::size_t in_c, std::size_t out_c, std::size_t in_h,
                                   std::size_t in_w, std::size_t stride, Rng& rng);

/// ResNet-50-style bottleneck block: 1x1 reduce -> 3x3 -> 1x1 expand, with
/// the projection as above.  3 weight layers.
[[nodiscard]] LayerPtr bottleneck_block(std::size_t in_c, std::size_t mid_c,
                                        std::size_t out_c, std::size_t in_h,
                                        std::size_t in_w, std::size_t stride, Rng& rng);

/// Appends a MobileNet depthwise-separable unit to `body`: depthwise 3x3
/// (+BN+ReLU), then pointwise 1x1 (+BN+ReLU).  2 weight layers.
void separable_unit(Sequential& body, std::size_t in_c, std::size_t out_c,
                    std::size_t in_h, std::size_t in_w, std::size_t stride, Rng& rng);

}  // namespace tdfm::nn
