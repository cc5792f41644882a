// Mini-batch training loop.
//
// The trainer is deliberately technique-agnostic: it shuffles, gathers
// batches, runs forward/backward and steps the optimiser, while the *loss
// is a callback* receiving the batch's logits and original sample indices.
// Each TDFM technique supplies a closure — over smoothed targets, teacher
// probabilities, per-epoch corrected labels, etc. — so one loop serves
// every technique identically (important for a fair overhead comparison,
// §IV-E).
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "core/rng.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"

namespace tdfm::nn {

struct TrainOptions {
  std::size_t epochs = 10;
  std::size_t batch_size = 32;
  float lr = 0.05F;
  float momentum = 0.9F;
  float weight_decay = 1e-4F;
  float lr_decay = 0.95F;  ///< multiplicative per-epoch decay (SGD and Adam)
  bool shuffle = true;
  bool use_adam = false;
  /// Worker threads for the training hot paths (GEMM row blocks, per-image
  /// convolution, ensemble members).  0 = keep the current global pool;
  /// 1 = fully serial; results are bit-identical for every value
  /// (core/thread_pool.hpp).  Set from the CLI `--threads` flag.
  std::size_t threads = 0;
  /// Allow the model zoo to override optimiser/lr per architecture
  /// (models::tuned_options).  Set false to force the values above.
  bool auto_tune = true;
};

/// Loss callback: receives logits for a batch plus the dataset indices the
/// batch was gathered from, writes d(loss)/d(logits), returns the loss.
using BatchLossFn = std::function<double(
    const Tensor& logits, std::span<const std::size_t> sample_indices,
    Tensor& grad_logits)>;

/// Per-epoch hook (epoch index, network) — used by meta label correction to
/// refresh its corrected labels between epochs.
using EpochHook = std::function<void(std::size_t epoch, Network& net)>;

class Trainer {
 public:
  explicit Trainer(TrainOptions opts) : opts_(opts) {}

  /// Trains `net` on `images` [N, C, H, W]; returns the mean loss of the
  /// final epoch.  `rng` drives shuffling (fork it per trial for
  /// reproducibility).  Emits one obs::EpochRecord per epoch (loss, lr,
  /// wall-time) whenever telemetry is enabled (--metrics flag or
  /// obs::set_epoch_observer), and wraps each epoch in a trace span.
  double fit(Network& net, const Tensor& images, BatchLossFn loss_fn, Rng& rng,
             const EpochHook& on_epoch_end = {});

  [[nodiscard]] const TrainOptions& options() const { return opts_; }

  /// Copies the rows of `images` selected by `idx` into one batch tensor.
  [[nodiscard]] static Tensor gather(const Tensor& images,
                                     std::span<const std::size_t> idx);

 private:
  TrainOptions opts_;
};

/// Runs inference in batches and returns the argmax class per sample.
[[nodiscard]] std::vector<int> predict_classes(Network& net, const Tensor& images,
                                               std::size_t batch_size = 64);

/// Single forward pass over one already-formed batch (leading dim = batch);
/// returns the argmax class per row.  Unlike predict_classes there is no
/// internal re-batching: the caller owns batch formation.  This is the
/// serving hot path — tdfm::serve coalesces requests into micro-batches
/// precisely so this one call amortises the im2col+GEMM cost.
[[nodiscard]] std::vector<int> predict_batch(Network& net, const Tensor& batch);

/// Runs inference in batches and returns softmax probabilities [N, K] at the
/// given temperature (used to capture teacher outputs for distillation).
[[nodiscard]] Tensor predict_probabilities(Network& net, const Tensor& images,
                                           float temperature = 1.0F,
                                           std::size_t batch_size = 64);

/// An ensemble's classes: majority vote over the members' argmax classes,
/// ties (and only ties) broken by summed softmax confidence.  The one vote
/// of mitigation::EnsembleClassifier and of an ensemble served by
/// serve::ServedModel.  Members must agree on the class count.
[[nodiscard]] std::vector<int> predict_ensemble(
    std::span<const std::unique_ptr<Network>> members, const Tensor& images);

}  // namespace tdfm::nn
