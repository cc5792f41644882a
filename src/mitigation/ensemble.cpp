#include "mitigation/ensemble.hpp"

#include "core/thread_pool.hpp"
#include "nn/loss.hpp"

namespace tdfm::mitigation {

std::vector<int> EnsembleClassifier::predict(const Tensor& images) {
  return nn::predict_ensemble(members_, images);
}

EnsembleTechnique::EnsembleTechnique(std::vector<models::Arch> members)
    : members_(std::move(members)) {
  TDFM_CHECK(!members_.empty(), "ensemble needs at least one member");
}

std::vector<models::Arch> EnsembleTechnique::default_members() {
  using models::Arch;
  return {Arch::kConvNet, Arch::kMobileNet, Arch::kResNet18, Arch::kVGG11,
          Arch::kVGG16};
}

std::unique_ptr<Classifier> EnsembleTechnique::fit(const FitContext& ctx) {
  ctx.validate();
  auto targets = std::make_shared<Tensor>(
      nn::one_hot(ctx.train->labels, ctx.train->num_classes));
  // Fork every member's init/shuffle streams up front, consuming ctx.rng in
  // the same order as the original serial loop; training can then proceed
  // concurrently — each member owns its streams, network, and optimiser, so
  // member-level parallelism is determinism-safe by construction.
  struct MemberStreams {
    Rng model_rng;
    Rng train_rng;
  };
  std::vector<MemberStreams> streams;
  streams.reserve(members_.size());
  for (std::size_t m = 0; m < members_.size(); ++m) {
    Rng model_rng = ctx.rng->fork(0xe500u + m);
    Rng train_rng = ctx.rng->fork(0x7171u + m);
    streams.push_back(MemberStreams{model_rng, train_rng});
  }
  std::vector<std::unique_ptr<nn::Network>> trained(members_.size());
  core::parallel_for(0, members_.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t m = lo; m < hi; ++m) {
      auto net = models::build_model(members_[m], ctx.model_config, streams[m].model_rng);
      nn::Trainer trainer(ctx.options_for(members_[m]));
      trainer.fit(*net, ctx.train->images,
                  make_target_loss(std::make_shared<nn::CrossEntropyLoss>(), targets),
                  streams[m].train_rng);
      trained[m] = std::move(net);
    }
  });
  return std::make_unique<EnsembleClassifier>(std::move(trained));
}

}  // namespace tdfm::mitigation
