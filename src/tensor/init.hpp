// Weight initialisation schemes.
#pragma once

#include "core/rng.hpp"
#include "tensor/tensor.hpp"

namespace tdfm {

/// He/Kaiming normal: N(0, sqrt(2 / fan_in)).  Used before ReLU activations.
void he_normal(Tensor& w, std::size_t fan_in, Rng& rng);

/// Fills with N(mean, stddev).
void normal_init(Tensor& w, float mean, float stddev, Rng& rng);

/// Fills with U(lo, hi).
void uniform_init(Tensor& w, float lo, float hi, Rng& rng);

}  // namespace tdfm
