// Network: the trainable classifier wrapper around a Sequential body.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/rng.hpp"
#include "nn/sequential.hpp"

namespace tdfm::nn {

/// A classification network: a Sequential body mapping [B, sample_shape...]
/// batches to a [B, num_classes] logit matrix (softmax lives in the losses).
class Network {
 public:
  Network(std::string name, std::unique_ptr<Sequential> body, Shape sample_shape,
          std::size_t num_classes)
      : name_(std::move(name)), body_(std::move(body)),
        sample_shape_(std::move(sample_shape)), num_classes_(num_classes) {
    TDFM_CHECK(body_ != nullptr, "network body must not be null");
    body_->discard_input_grad();  // backward() never reads it
  }

  /// Forward pass to logits; `training` toggles dropout/batch-norm mode.
  /// Throws ShapeError when `batch` is not [B, sample_shape()...].  An
  /// eval-mode pass writes nothing (Layer::forward), so threads may share
  /// one network for inference.
  [[nodiscard]] Tensor logits(const Tensor& batch, bool training);

  /// Backpropagates d(loss)/d(logits), accumulating parameter gradients.
  void backward(const Tensor& grad_logits) { (void)body_->backward(grad_logits); }

  [[nodiscard]] std::vector<Parameter*> parameters() { return body_->parameters(); }

  /// The layers' non-trainable state (Layer::state: BatchNorm2D's running
  /// statistics; empty for networks without batch norm).
  [[nodiscard]] std::vector<Tensor*> state() { return body_->state(); }

  void zero_grad() {
    for (auto* p : body_->parameters()) p->zero_grad();
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  /// The shape of one input sample, e.g. [C, H, W] for the model zoo.
  [[nodiscard]] const Shape& sample_shape() const { return sample_shape_; }
  [[nodiscard]] std::size_t num_classes() const { return num_classes_; }

  [[nodiscard]] std::size_t parameter_count() { return body_->parameter_count(); }

  /// Conv + FC layer count, for asserting Table III depth claims.
  [[nodiscard]] std::size_t weight_layer_count() const {
    return body_->weight_layer_count();
  }

  /// Converts every layer to the q8_0 inference format (see
  /// Layer::quantize_for_inference).  Irreversible: the network becomes
  /// forward-only and save_weights()/copy_weights_from() no longer apply.
  void quantize_for_inference() {
    body_->quantize_for_inference();
    quantized_ = true;
  }
  [[nodiscard]] bool quantized() const { return quantized_; }

  /// The q8_0 weight matrices of a quantized network (empty before
  /// quantization); see Layer::quantized_weights.
  [[nodiscard]] std::vector<kernels::Q8Matrix*> quantized_weights() {
    return body_->quantized_weights();
  }

  /// Copies all parameter values and the state (running statistics) from
  /// another structurally identical network (same factory, same seed
  /// discipline).  Used by serve::ServedModel's served copies and the
  /// pipeline's twins.
  void copy_weights_from(Network& other);

  /// Flattens all parameter values, then the state, into one vector
  /// (checkpointing, the pipeline's rollback copy).  A network without
  /// batch norm has no state, so its vector is the parameters alone.
  [[nodiscard]] std::vector<float> save_weights();

  /// Restores a vector saved by save_weights().  Also accepts the
  /// parameters alone, as saved before the state was: the state then keeps
  /// its current values.
  void load_weights(const std::vector<float>& weights);

 private:
  std::string name_;
  std::unique_ptr<Sequential> body_;
  Shape sample_shape_;
  std::size_t num_classes_;
  bool quantized_ = false;
};

/// Builds a fresh, randomly initialised network.  The factory pattern lets
/// techniques that need multiple instances (ensembles, distillation,
/// golden/faulty pairs) create structurally identical models with
/// independent weights.
using NetworkFactory = std::function<std::unique_ptr<Network>(Rng& rng)>;

}  // namespace tdfm::nn
