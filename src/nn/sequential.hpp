// Sequential layer container.
#pragma once

#include <memory>
#include <utility>

#include "nn/layer.hpp"
#include "obs/trace.hpp"

namespace tdfm::nn {

/// Runs a list of layers in order; itself a Layer, so composite blocks
/// (residual, separable) can nest Sequentials.
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

  // The traced variants run identical arithmetic in identical order — a
  // span is pure timing — so results stay bit-identical with tracing on.
  Tensor forward(const Tensor& input, bool training) override {
    if (obs::trace_enabled()) {
      Tensor x = input;
      for (auto& layer : layers_) {
        obs::Span span(layer->name() + ":fwd");
        x = layer->forward(x, training);
      }
      return x;
    }
    Tensor x = input;
    for (auto& layer : layers_) x = layer->forward(x, training);
    return x;
  }

  Tensor backward(const Tensor& grad_output) override {
    if (obs::trace_enabled()) {
      Tensor g = grad_output;
      for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
        obs::Span span((*it)->name() + ":bwd");
        g = (*it)->backward(g);
      }
      return g;
    }
    Tensor g = grad_output;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
      g = (*it)->backward(g);
    }
    return g;
  }

  void discard_input_grad() override {
    if (!layers_.empty()) layers_.front()->discard_input_grad();
  }

  std::vector<Parameter*> parameters() override {
    std::vector<Parameter*> ps;
    for (auto& layer : layers_) {
      for (auto* p : layer->parameters()) ps.push_back(p);
    }
    return ps;
  }

  std::vector<Tensor*> state() override {
    std::vector<Tensor*> ts;
    for (auto& layer : layers_) {
      for (auto* t : layer->state()) ts.push_back(t);
    }
    return ts;
  }

  void quantize_for_inference() override {
    for (auto& layer : layers_) layer->quantize_for_inference();
  }

  std::vector<kernels::Q8Matrix*> quantized_weights() override {
    std::vector<kernels::Q8Matrix*> qs;
    for (auto& layer : layers_) {
      for (auto* q : layer->quantized_weights()) qs.push_back(q);
    }
    return qs;
  }

  [[nodiscard]] std::string name() const override { return "Sequential"; }

  [[nodiscard]] std::size_t weight_layer_count() const override {
    std::size_t n = 0;
    for (const auto& layer : layers_) n += layer->weight_layer_count();
    return n;
  }

  [[nodiscard]] std::size_t size() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace tdfm::nn
