#include "tensor/init.hpp"

#include <cmath>

namespace tdfm {

void he_normal(Tensor& w, std::size_t fan_in, Rng& rng) {
  TDFM_CHECK(fan_in > 0, "he init needs positive fan-in");
  const float stddev = std::sqrt(2.0F / static_cast<float>(fan_in));
  normal_init(w, 0.0F, stddev, rng);
}

void normal_init(Tensor& w, float mean, float stddev, Rng& rng) {
  for (auto& x : w.flat()) x = rng.normal(mean, stddev);
}

void uniform_init(Tensor& w, float lo, float hi, Rng& rng) {
  for (auto& x : w.flat()) x = rng.uniform(lo, hi);
}

}  // namespace tdfm
