// Layer abstraction for the neural-network framework.
//
// tdfm uses layer-local backpropagation rather than a general autograd tape:
// each Layer caches whatever it needs during forward() and implements the
// exact adjoint in backward().  A composite layer lists the layers it is
// built from through children(), and the base class answers the parameter,
// state, quantization and depth queries for it; the two composites are
// Sequential (src/nn/sequential.hpp) and the residual unit
// (src/nn/blocks.hpp).  Every network in the model zoo is a Sequential of
// leaves and residual units — no graph engine required.  This keeps the hot
// path allocation-light and easy to verify with finite differences
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
  /// Sequential passes it to its first layer; default: ignored.
  virtual void discard_input_grad() {}

  /// The layers this one is built from, in the order their parameters and
  /// state are listed (empty for a leaf).  Non-owning.  By default, the
  /// four queries below and weight_layer_count() answer through them.
  [[nodiscard]] virtual std::vector<Layer*> children() const { return {}; }

  /// Trainable parameters.  Non-owning.
  virtual std::vector<Parameter*> parameters() {
    std::vector<Parameter*> ps;
    for (Layer* child : children()) {
      for (Parameter* p : child->parameters()) ps.push_back(p);
    }
    return ps;
  }

  /// State a forward pass reads besides the parameters, learned but not
  /// trained by gradients: BatchNorm2D's running mean and variance.
  /// Non-owning.  Weight copies, save/load and checkpoints carry it
  /// (nn/network.hpp).
  virtual std::vector<Tensor*> state() {
    std::vector<Tensor*> ts;
    for (Layer* child : children()) {
      for (Tensor* t : child->state()) ts.push_back(t);
    }
    return ts;
  }

  /// Converts this layer's weights to the q8_0 inference format
  /// (kernels/quant.hpp), releasing the fp32 masters and gradients.  The
  /// layer becomes forward-only: backward() throws, parameter_count()
  /// reflects the freed storage.  Irreversible; a no-op for a leaf with
  /// nothing to quantize.
  virtual void quantize_for_inference() {
    for (Layer* child : children()) child->quantize_for_inference();
  }

  /// The q8_0 weight matrices held after quantize_for_inference() (empty
  /// before quantization and for layers that keep fp32 masters, e.g. the
  /// fake-quantized depthwise conv).  Non-owning.  This is the mutation
  /// surface of the inference-time fault model (pipeline::WeightCorruptor) —
  /// corrupting through it hits the bytes the int8 matmuls actually read.
  [[nodiscard]] virtual std::vector<kernels::Q8Matrix*> quantized_weights() {
    std::vector<kernels::Q8Matrix*> qs;
    for (Layer* child : children()) {
      for (kernels::Q8Matrix* q : child->quantized_weights()) qs.push_back(q);
    }
    return qs;
  }

  /// Human-readable layer name for summaries, e.g. "Conv2D(8->16, k3 s1 p1)".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Number of *convolution or fully-connected* weight layers inside this
  /// layer.  Used by the model zoo to assert Table III depth claims.
  [[nodiscard]] virtual std::size_t weight_layer_count() const {
    std::size_t n = 0;
    for (const Layer* child : children()) n += child->weight_layer_count();
    return n;
  }

  /// Total trainable scalar count.
  [[nodiscard]] std::size_t parameter_count() {
    std::size_t n = 0;
    for (const auto* p : parameters()) n += p->numel();
    return n;
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace tdfm::nn
