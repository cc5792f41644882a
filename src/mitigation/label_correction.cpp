#include "mitigation/label_correction.hpp"

#include <cstring>
#include <numeric>

#include "core/logging.hpp"
#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "tensor/tensor_ops.hpp"

namespace tdfm::mitigation {

namespace {

/// Builds the secondary label-correction model: an MLP mapping
/// [primary probs ‖ one-hot given label] (2K) to corrected logits (K).
std::unique_ptr<nn::Network> build_secondary(std::size_t num_classes,
                                             std::size_t hidden, Rng& rng) {
  auto body = std::make_unique<nn::Sequential>();
  body->emplace<nn::Dense>(2 * num_classes, hidden, rng);
  body->emplace<nn::Tanh>();
  body->emplace<nn::Dense>(hidden, num_classes, rng);
  return std::make_unique<nn::Network>("LC-secondary", std::move(body),
                                       Shape{2 * num_classes}, num_classes);
}

/// Assembles secondary-model inputs [n, 2K] from primary probabilities and
/// given labels.
Tensor secondary_inputs(const Tensor& primary_probs, std::span<const int> labels,
                        std::size_t num_classes) {
  const std::size_t n = labels.size();
  Tensor in(Shape{n, 2 * num_classes});
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(in.data() + i * 2 * num_classes,
                primary_probs.data() + i * num_classes,
                num_classes * sizeof(float));
    in.at(i, num_classes + static_cast<std::size_t>(labels[i])) = 1.0F;
  }
  return in;
}

}  // namespace

std::unique_ptr<Classifier> LabelCorrectionTechnique::fit(const FitContext& ctx) {
  ctx.validate();
  const std::size_t k = ctx.train->num_classes;

  // Clean subset: ideally reserved from fault injection by the harness;
  // otherwise carved out of the (faulty) training data as a fallback.
  data::Dataset carved;
  const data::Dataset* clean = ctx.clean_subset;
  data::Dataset noisy;
  if (clean == nullptr) {
    Rng split_rng = ctx.rng->fork(0x5114u);
    auto [head, tail] = data::random_split(*ctx.train, gamma_, split_rng);
    carved = std::move(head);
    noisy = std::move(tail);
    clean = &carved;
    TDFM_LOG(kWarn) << "label correction running without a reserved clean "
                       "subset; carving gamma from faulty data";
  } else {
    noisy = *ctx.train;
  }

  // The primary trains on noisy + clean; targets start as the given labels.
  const data::Dataset combined = data::concatenate(noisy, *clean);
  const std::size_t n_noisy = noisy.size();
  auto targets =
      std::make_shared<Tensor>(nn::one_hot(combined.labels, k));

  Rng primary_rng = ctx.rng->fork(0x1c01u);
  auto primary = models::build_model(ctx.primary_arch, ctx.model_config, primary_rng);

  Rng secondary_rng = ctx.rng->fork(0x1c02u);
  auto secondary = build_secondary(k, hidden_, secondary_rng);
  auto secondary_opt = std::make_shared<nn::SGD>(0.1F, 0.9F, 0.0F);
  auto batch_rng = std::make_shared<Rng>(ctx.rng->fork(0x1c03u));

  const bool correction_active = clean->size() >= 2 && n_noisy > 0;
  if (!correction_active) {
    TDFM_LOG(kWarn) << "clean subset too small; label correction inactive";
  }

  // Per-epoch meta step: (1) fit the secondary on the clean subset against
  // true labels, (2) rewrite the noisy rows' soft targets with the
  // secondary's corrections.
  nn::EpochHook hook = [&, this](std::size_t /*epoch*/, nn::Network& net) {
    if (!correction_active) return;
    // (1) Secondary update on clean data.
    const Tensor clean_probs = nn::predict_probabilities(net, clean->images);
    const Tensor sec_in = secondary_inputs(clean_probs, clean->labels, k);
    const Tensor sec_target = nn::one_hot(clean->labels, k);
    nn::CrossEntropyLoss ce;
    const auto params = secondary->parameters();
    const std::size_t batch = std::min<std::size_t>(32, clean->size());
    for (std::size_t step = 0; step < secondary_steps_; ++step) {
      const auto pick = batch_rng->sample_without_replacement(clean->size(), batch);
      const Tensor in = nn::Trainer::gather(sec_in, pick);
      const Tensor tgt = nn::Trainer::gather(sec_target, pick);
      secondary->zero_grad();
      const Tensor logits = secondary->logits(in, /*training=*/true);
      Tensor grad;
      (void)ce.compute(logits, tgt, grad);
      secondary->backward(grad);
      secondary_opt->step(params);
    }
    // (2) Correct the noisy portion's targets.
    std::vector<std::size_t> noisy_idx(n_noisy);
    std::iota(noisy_idx.begin(), noisy_idx.end(), std::size_t{0});
    const Tensor noisy_images = nn::Trainer::gather(combined.images, noisy_idx);
    const Tensor noisy_probs = nn::predict_probabilities(net, noisy_images);
    const std::span<const int> noisy_labels(combined.labels.data(), n_noisy);
    const Tensor sec_noisy_in = secondary_inputs(noisy_probs, noisy_labels, k);
    const Tensor corrected =
        softmax_rows(secondary->logits(sec_noisy_in, /*training=*/false));
    std::memcpy(targets->data(), corrected.data(), corrected.numel() * sizeof(float));
  };

  nn::Trainer trainer(ctx.options_for(ctx.primary_arch));
  Rng train_rng = ctx.rng->fork(0x7131u);
  trainer.fit(*primary, combined.images,
              make_target_loss(std::make_shared<nn::CrossEntropyLoss>(), targets),
              train_rng, hook);
  return std::make_unique<SingleModelClassifier>(std::move(primary));
}

}  // namespace tdfm::mitigation
