// Layer abstraction for the neural-network framework.
//
// tdfm uses layer-local backpropagation rather than a general autograd tape:
// each Layer caches whatever it needs during forward() and implements the
// exact adjoint in backward().  Residual and depthwise-separable topologies
// are composite Layers (src/nn/blocks.hpp), so every network in the model
// zoo is ultimately a Sequential — no graph engine required.  This keeps the
// hot path allocation-light and easy to verify with finite differences
// (tests/nn/gradient_check_test.cpp).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace tdfm::kernels {
struct Q8Matrix;
}

namespace tdfm::nn {

/// A trainable tensor together with its gradient accumulator.
struct Parameter {
  Tensor value;
  Tensor grad;

  explicit Parameter(Shape shape) : value(shape), grad(std::move(shape)) {}

  [[nodiscard]] std::size_t numel() const { return value.numel(); }
  void zero_grad() { grad.zero(); }
};

/// Base class of all layers.  A training-mode forward() caches activations
/// for the subsequent backward() on the same batch, so one training batch is
/// in flight per layer (the trainer guarantees this).  An eval-mode forward
/// reads the layer and writes none of its members.
class Layer {
 public:
  virtual ~Layer() = default;
  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes the layer output.  `training` toggles train-time behaviour
  /// (dropout masks, batch-norm batch statistics) and the caching above.
  /// Any number of threads may run eval-mode forwards on one layer at once;
  /// a training forward runs alone and pairs with its backward.
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Computes d(loss)/d(input) from d(loss)/d(output) and accumulates
  /// parameter gradients.  Must follow a training-mode forward() on the batch.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Tells the layer that nothing reads the input gradient backward()
  /// returns: it runs first in a Network's body, whose input gradient
  /// Network::backward discards.  A layer may then skip computing it and
  /// return an empty tensor; its parameter gradients keep every bit.
  /// Composite layers pass it to their first layer; default: ignored.
  virtual void discard_input_grad() {}

  /// Trainable parameters (empty for stateless layers).  Non-owning.
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// State a forward pass reads besides the parameters, learned but not
  /// trained by gradients: BatchNorm2D's running mean and variance (empty
  /// for other layers).  Non-owning; composite blocks report their
  /// contents.  Weight copies, save/load and checkpoints carry it
  /// (nn/network.hpp).
  virtual std::vector<Tensor*> state() { return {}; }

  /// Converts this layer's weights to the q8_0 inference format
  /// (kernels/quant.hpp), releasing the fp32 masters and gradients.  The
  /// layer becomes forward-only: backward() throws, parameter_count()
  /// reflects the freed storage.  Irreversible; default is a no-op for
  /// layers with nothing to quantize.
  virtual void quantize_for_inference() {}

  /// The q8_0 weight matrices held after quantize_for_inference() (empty
  /// before quantization and for layers that keep fp32 masters, e.g. the
  /// fake-quantized depthwise conv).  Non-owning; composite blocks report
  /// their contents.  This is the mutation surface of the inference-time
  /// fault model (pipeline::WeightCorruptor) — corrupting through it hits
  /// the bytes the int8 matmuls actually read.
  [[nodiscard]] virtual std::vector<kernels::Q8Matrix*> quantized_weights() {
    return {};
  }

  /// Human-readable layer name for summaries, e.g. "Conv2D(8->16, k3 s1 p1)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Number of *convolution or fully-connected* weight layers inside this
  /// layer (composite blocks report their contents).  Used by the model zoo
  /// to assert Table III depth claims.
  [[nodiscard]] virtual std::size_t weight_layer_count() const { return 0; }

  /// Total trainable scalar count.
  [[nodiscard]] std::size_t parameter_count() {
    std::size_t n = 0;
    for (const auto* p : parameters()) n += p->numel();
    return n;
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace tdfm::nn
