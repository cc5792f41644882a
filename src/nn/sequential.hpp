// Sequential layer container.
#pragma once

#include <memory>
#include <optional>
#include <utility>

#include "nn/layer.hpp"
#include "obs/trace.hpp"

namespace tdfm::nn {

/// Runs a list of layers in order; itself a Layer, so a residual unit's
/// paths (blocks.hpp) are Sequentials too.
class Sequential : public Layer {
 public:
  Sequential() = default;

  void add(LayerPtr layer) {
    TDFM_CHECK(layer != nullptr, "cannot add a null layer");
    layers_.push_back(std::move(layer));
  }

  /// Constructs a layer in place and appends it.
  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  // While tracing is on, each layer runs inside a span named after it; a
  // span is pure timing, so results stay bit-identical with tracing on.
  Tensor forward(const Tensor& input, bool training) override {
    const bool traced = obs::trace_enabled();
    Tensor x = input;
    for (auto& layer : layers_) {
      std::optional<obs::Span> span;
      if (traced) span.emplace(layer->name() + ":fwd");
      x = layer->forward(x, training);
    }
    return x;
  }

  Tensor backward(const Tensor& grad_output) override {
    const bool traced = obs::trace_enabled();
    Tensor g = grad_output;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
      std::optional<obs::Span> span;
      if (traced) span.emplace((*it)->name() + ":bwd");
      g = (*it)->backward(g);
    }
    return g;
  }

  void discard_input_grad() override {
    if (!layers_.empty()) layers_.front()->discard_input_grad();
  }

  [[nodiscard]] std::vector<Layer*> children() const override {
    std::vector<Layer*> out;
    for (const auto& layer : layers_) out.push_back(layer.get());
    return out;
  }

  [[nodiscard]] std::string name() const override { return "Sequential"; }

  [[nodiscard]] std::size_t size() const { return layers_.size(); }

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace tdfm::nn
