#include "nn/network.hpp"

namespace tdfm::nn {

Tensor Network::logits(const Tensor& batch, bool training) {
  const std::vector<std::size_t>& dims = batch.shape().dims();
  if (dims.empty() || Shape(std::vector(dims.begin() + 1, dims.end())) != sample_shape_) {
    throw ShapeError(name_ + " takes batches of " + sample_shape_.to_string() +
                     " samples, got " + batch.shape().to_string());
  }
  Tensor out = body_->forward(batch, training);
  TDFM_CHECK(out.rank() == 2 && out.dim(1) == num_classes_,
             "network must emit [B, num_classes] logits");
  return out;
}

void Network::copy_weights_from(Network& other) {
  auto dst = parameters();
  auto src = other.parameters();
  TDFM_CHECK(dst.size() == src.size(),
             "copy_weights_from requires structurally identical networks");
  for (std::size_t i = 0; i < dst.size(); ++i) {
    TDFM_CHECK(dst[i]->value.shape() == src[i]->value.shape(),
               "parameter shape mismatch between networks");
    dst[i]->value = src[i]->value;
  }
  auto dst_state = state();
  auto src_state = other.state();
  TDFM_CHECK(dst_state.size() == src_state.size(),
             "copy_weights_from requires structurally identical networks");
  for (std::size_t i = 0; i < dst_state.size(); ++i) {
    TDFM_CHECK(dst_state[i]->shape() == src_state[i]->shape(),
               "state shape mismatch between networks");
    *dst_state[i] = *src_state[i];
  }
}

std::vector<float> Network::save_weights() {
  std::vector<float> out;
  for (auto* p : parameters()) {
    const auto span = p->value.flat();
    out.insert(out.end(), span.begin(), span.end());
  }
  for (auto* t : state()) {
    const auto span = t->flat();
    out.insert(out.end(), span.begin(), span.end());
  }
  return out;
}

void Network::load_weights(const std::vector<float>& weights) {
  std::vector<Tensor*> targets;
  for (auto* p : parameters()) targets.push_back(&p->value);
  std::size_t parameter_floats = 0;
  for (const auto* t : targets) parameter_floats += t->numel();
  // A parameters-only vector leaves the state as it is.
  if (weights.size() != parameter_floats) {
    for (auto* t : state()) targets.push_back(t);
  }
  std::size_t offset = 0;
  for (auto* t : targets) {
    TDFM_CHECK(offset + t->numel() <= weights.size(),
               "weight blob too small for this network");
    std::copy_n(weights.begin() + static_cast<std::ptrdiff_t>(offset), t->numel(),
                t->flat().begin());
    offset += t->numel();
  }
  TDFM_CHECK(offset == weights.size(), "weight blob larger than this network");
}

}  // namespace tdfm::nn
