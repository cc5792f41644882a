#include "nn/trainer.hpp"

#include <cstring>
#include <numeric>

#include "core/logging.hpp"
#include "core/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "tensor/tensor_ops.hpp"

namespace tdfm::nn {

Tensor Trainer::gather(const Tensor& images, std::span<const std::size_t> idx) {
  TDFM_CHECK(images.rank() >= 2, "gather expects a batched tensor");
  const std::size_t row = images.numel() / images.dim(0);
  std::vector<std::size_t> dims = images.shape().dims();
  dims[0] = idx.size();
  Tensor out{Shape(dims)};
  for (std::size_t i = 0; i < idx.size(); ++i) {
    TDFM_CHECK(idx[i] < images.dim(0), "gather index out of range");
    std::memcpy(out.data() + i * row, images.data() + idx[i] * row,
                row * sizeof(float));
  }
  return out;
}

double Trainer::fit(Network& net, const Tensor& images, BatchLossFn loss_fn,
                    Rng& rng, const EpochHook& on_epoch_end) {
  TDFM_CHECK(images.dim(0) > 0, "cannot train on an empty dataset");
  TDFM_CHECK(opts_.epochs > 0 && opts_.batch_size > 0, "bad train options");
  const std::size_t n = images.dim(0);

  // A per-fit thread request resizes the shared pool (no-op when already
  // that size, or when this fit itself runs on a pool worker — e.g. an
  // ensemble member — where layer parallelism runs inline anyway).
  if (opts_.threads > 0) core::ThreadPool::set_global_threads(opts_.threads);

  std::unique_ptr<Optimizer> opt;
  if (opts_.use_adam) {
    opt = std::make_unique<Adam>(opts_.lr, 0.9F, 0.999F, 1e-8F, opts_.weight_decay);
  } else {
    opt = std::make_unique<SGD>(opts_.lr, opts_.momentum, opts_.weight_decay);
  }

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  const auto params = net.parameters();
  double epoch_loss = 0.0;
  float lr = opts_.lr;
  obs::Stopwatch fit_watch;
  const std::string epoch_span_name = net.name() + ":epoch";
  for (std::size_t epoch = 0; epoch < opts_.epochs; ++epoch) {
    obs::Span epoch_span(epoch_span_name);
    const float epoch_lr = lr;
    if (opts_.shuffle) rng.shuffle(order);
    // Epoch loss is the sample-weighted mean of the batch means: the final
    // partial batch contributes in proportion to its size, not 1/batches.
    double loss_sum = 0.0;
    for (std::size_t start = 0; start < n; start += opts_.batch_size) {
      const std::size_t count = std::min(opts_.batch_size, n - start);
      const std::span<const std::size_t> idx(order.data() + start, count);
      const Tensor batch = gather(images, idx);
      net.zero_grad();
      const Tensor logits = net.logits(batch, /*training=*/true);
      Tensor grad_logits;
      loss_sum += loss_fn(logits, idx, grad_logits) * static_cast<double>(count);
      TDFM_CHECK(grad_logits.shape() == logits.shape(),
                 "loss callback must produce a gradient per logit");
      net.backward(grad_logits);
      opt->step(params);
    }
    epoch_loss = loss_sum / static_cast<double>(n);
    // Per-epoch decay applies to both optimisers; Adam previously ignored
    // it silently, skewing technique comparisons across optimiser choices.
    lr *= opts_.lr_decay;
    opt->set_lr(lr);
    const double epoch_seconds = epoch_span.stop();
    if (obs::metrics_enabled()) {
      static obs::Counter epochs_done = obs::Registry::global().counter("train.epochs");
      static obs::Counter samples_seen = obs::Registry::global().counter("train.samples");
      static obs::Histogram epoch_time = obs::Registry::global().histogram(
          "train.epoch_seconds", {0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0});
      epochs_done.add(1);
      samples_seen.add(n);
      epoch_time.observe(epoch_seconds);
    }
    if (obs::telemetry_enabled()) {
      obs::EpochRecord rec;
      rec.net = net.name();
      rec.epoch = epoch + 1;
      rec.epochs = opts_.epochs;
      rec.loss = epoch_loss;
      rec.lr = epoch_lr;
      rec.wall_seconds = epoch_seconds;
      rec.total_seconds = fit_watch.elapsed_seconds();
      rec.samples_per_second =
          epoch_seconds > 0.0 ? static_cast<double>(n) / epoch_seconds : 0.0;
      obs::emit_epoch(rec);
    }
    TDFM_LOG(kDebug) << net.name() << " epoch " << epoch + 1 << '/' << opts_.epochs
                     << " loss " << epoch_loss;
    if (on_epoch_end) on_epoch_end(epoch, net);
  }
  return epoch_loss;
}

std::vector<int> predict_classes(Network& net, const Tensor& images,
                                 std::size_t batch_size) {
  const std::size_t n = images.dim(0);
  std::vector<int> out(n);
  std::vector<std::size_t> idx;
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t count = std::min(batch_size, n - start);
    idx.resize(count);
    std::iota(idx.begin(), idx.end(), start);
    const Tensor batch = Trainer::gather(images, idx);
    const Tensor logits = net.logits(batch, /*training=*/false);
    for (std::size_t i = 0; i < count; ++i) {
      out[start + i] = static_cast<int>(argmax(logits.row(i)));
    }
  }
  return out;
}

std::vector<int> predict_batch(Network& net, const Tensor& batch) {
  TDFM_CHECK(batch.rank() >= 2 && batch.dim(0) > 0, "predict_batch needs a batch");
  const Tensor logits = net.logits(batch, /*training=*/false);
  std::vector<int> out(batch.dim(0));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<int>(argmax(logits.row(i)));
  }
  return out;
}

Tensor predict_probabilities(Network& net, const Tensor& images, float temperature,
                             std::size_t batch_size) {
  const std::size_t n = images.dim(0);
  Tensor out(Shape{n, net.num_classes()});
  std::vector<std::size_t> idx;
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t count = std::min(batch_size, n - start);
    idx.resize(count);
    std::iota(idx.begin(), idx.end(), start);
    const Tensor batch = Trainer::gather(images, idx);
    const Tensor probs = softmax_rows(net.logits(batch, false), temperature);
    std::memcpy(out.data() + start * net.num_classes(), probs.data(),
                probs.numel() * sizeof(float));
  }
  return out;
}

std::vector<int> predict_ensemble(std::span<const std::unique_ptr<Network>> members,
                                  const Tensor& images) {
  TDFM_CHECK(!members.empty(), "ensemble needs at least one member");
  const std::size_t n = images.dim(0);
  const std::size_t k = members.front()->num_classes();
  std::vector<std::size_t> votes(n * k, 0);
  std::vector<float> confidence(n * k, 0.0F);
  for (const auto& member : members) {
    TDFM_CHECK(member->num_classes() == k, "ensemble members must agree on the class count");
    const Tensor probs = predict_probabilities(*member, images);
    for (std::size_t i = 0; i < n; ++i) {
      const auto row = probs.row(i);
      ++votes[i * k + argmax(row)];
      for (std::size_t j = 0; j < k; ++j) confidence[i * k + j] += row[j];
    }
  }
  std::vector<int> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Majority vote; ties (and only ties) fall back to summed confidence.
    std::size_t best = 0;
    for (std::size_t j = 1; j < k; ++j) {
      const std::size_t vj = votes[i * k + j];
      const std::size_t vb = votes[i * k + best];
      if (vj > vb || (vj == vb && confidence[i * k + j] > confidence[i * k + best])) {
        best = j;
      }
    }
    out[i] = static_cast<int>(best);
  }
  return out;
}

}  // namespace tdfm::nn
