// Shared helpers for the tdfm test suite.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "nn/layer.hpp"
#include "tensor/init.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"

namespace tdfm::test {

/// The message of the ConfigError `fn` throws ("" when it throws none; any
/// other exception escapes and fails the test).
template <typename Fn>
std::string config_error_of(Fn fn) {
  try {
    fn();
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

/// Scalar objective used by gradient checks: L(y) = sum(y ⊙ g).
inline double probe_loss(const Tensor& y, const Tensor& g) {
  double acc = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    acc += static_cast<double>(y[i]) * g[i];
  }
  return acc;
}

/// Central-difference gradient check for a Layer.
///
/// Verifies (a) the input gradient and (b) every parameter gradient against
/// finite differences of the probe loss L(y) = sum(forward(x) ⊙ g).  Works
/// on any deterministic layer (dropout must use p = 0).  Float32 finite
/// differences are noisy, so tolerances are relative with an absolute floor.
/// `allowed_outliers` tolerates isolated probes invalidated by interior
/// ReLU kinks (composite blocks): a probe that crosses a kink produces a
/// one-sided numeric derivative even though the analytic gradient is right.
inline void check_layer_gradients(nn::Layer& layer, const Tensor& input,
                                  Rng& rng, float eps = 1e-2F,
                                  float rel_tol = 6e-2F, float abs_tol = 2e-3F,
                                  std::size_t max_probes = 24,
                                  std::size_t allowed_outliers = 0) {
  Tensor x = input;  // mutable copy; every forward below reads x

  // Fixed upstream gradient matching the output shape.
  Tensor y0 = layer.forward(x, /*training=*/true);
  Tensor g(y0.shape());
  uniform_init(g, -1.0F, 1.0F, rng);

  // Analytic gradients (grads accumulate in the layer's parameters).
  for (auto* p : layer.parameters()) p->zero_grad();
  y0 = layer.forward(x, true);
  const Tensor grad_input = layer.backward(g);

  const auto numeric_gradient = [&](float& slot) {
    const float original = slot;
    slot = original + eps;
    const Tensor yp = layer.forward(x, true);
    slot = original - eps;
    const Tensor ym = layer.forward(x, true);
    slot = original;
    return (probe_loss(yp, g) - probe_loss(ym, g)) / (2.0 * eps);
  };

  std::size_t outliers = 0;
  const auto expect_close = [&](double analytic, double numeric, const char* what,
                                std::size_t idx) {
    const double err = std::fabs(analytic - numeric);
    const double scale =
        std::max(1.0, std::max(std::fabs(analytic), std::fabs(numeric)));
    if (err <= rel_tol * scale + abs_tol) return;
    if (++outliers <= allowed_outliers) return;
    ADD_FAILURE() << what << " gradient mismatch at flat index " << idx
                  << ": analytic " << analytic << " vs numeric " << numeric
                  << " (outlier " << outliers << " of " << allowed_outliers
                  << " allowed)";
  };

  // Input gradient at a sample of positions.
  const std::size_t stride_in = std::max<std::size_t>(1, x.numel() / max_probes);
  for (std::size_t i = 0; i < x.numel(); i += stride_in) {
    expect_close(grad_input[i], numeric_gradient(x[i]), "input", i);
  }

  // Parameter gradients at a sample of positions.
  for (auto* p : layer.parameters()) {
    const std::size_t stride_p = std::max<std::size_t>(1, p->numel() / max_probes);
    for (std::size_t i = 0; i < p->numel(); i += stride_p) {
      expect_close(p->grad[i], numeric_gradient(p->value[i]), "param", i);
    }
  }
}

/// Random tensor helper.
inline Tensor random_tensor(Shape shape, Rng& rng, float lo = -1.0F, float hi = 1.0F) {
  Tensor t(std::move(shape));
  uniform_init(t, lo, hi, rng);
  return t;
}

}  // namespace tdfm::test
