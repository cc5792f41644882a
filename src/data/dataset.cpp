#include "data/dataset.hpp"

#include <cmath>
#include <cstring>
#include <numeric>

namespace tdfm::data {

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out;
  out.name = name;
  out.num_classes = num_classes;
  const std::size_t row = images.numel() / std::max<std::size_t>(size(), 1);
  std::vector<std::size_t> dims = images.shape().dims();
  dims[0] = indices.size();
  out.images = Tensor{Shape(dims)};
  out.labels.resize(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    TDFM_CHECK(indices[i] < size(), "subset index out of range");
    std::memcpy(out.images.data() + i * row, images.data() + indices[i] * row,
                row * sizeof(float));
    out.labels[i] = labels[indices[i]];
  }
  return out;
}

std::vector<std::size_t> Dataset::class_histogram() const {
  std::vector<std::size_t> hist(num_classes, 0);
  for (int label : labels) {
    TDFM_CHECK(label >= 0 && static_cast<std::size_t>(label) < num_classes,
               "label out of range");
    ++hist[static_cast<std::size_t>(label)];
  }
  return hist;
}

void Dataset::validate() const {
  TDFM_CHECK(images.rank() == 4, "dataset images must be [N, C, H, W]");
  TDFM_CHECK(images.dim(0) == labels.size(), "image/label count mismatch");
  TDFM_CHECK(num_classes > 0, "dataset needs at least one class");
  for (int label : labels) {
    TDFM_CHECK(label >= 0 && static_cast<std::size_t>(label) < num_classes,
               "label out of range");
  }
}

std::pair<Dataset, Dataset> random_split(const Dataset& ds, double fraction,
                                         Rng& rng) {
  TDFM_CHECK(fraction >= 0.0 && fraction <= 1.0, "split fraction in [0, 1]");
  const auto k = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(ds.size())));
  std::vector<std::size_t> order(ds.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  const std::span<const std::size_t> first(order.data(), k);
  const std::span<const std::size_t> second(order.data() + k, ds.size() - k);
  return {ds.subset(first), ds.subset(second)};
}

Dataset concatenate(const Dataset& a, const Dataset& b) {
  TDFM_CHECK(a.num_classes == b.num_classes, "class count mismatch in concat");
  TDFM_CHECK(a.channels() == b.channels() && a.height() == b.height() &&
                 a.width() == b.width(),
             "image shape mismatch in concat");
  Dataset out;
  out.name = a.name;
  out.num_classes = a.num_classes;
  std::vector<std::size_t> dims = a.images.shape().dims();
  dims[0] = a.size() + b.size();
  out.images = Tensor{Shape(dims)};
  // An empty side may hold a null buffer, and memcpy from null is UB even
  // for zero bytes.
  if (a.images.numel() > 0) {
    std::memcpy(out.images.data(), a.images.data(),
                a.images.numel() * sizeof(float));
  }
  if (b.images.numel() > 0) {
    std::memcpy(out.images.data() + a.images.numel(), b.images.data(),
                b.images.numel() * sizeof(float));
  }
  out.labels = a.labels;
  out.labels.insert(out.labels.end(), b.labels.begin(), b.labels.end());
  return out;
}

}  // namespace tdfm::data
