#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "faults/fault_injector.hpp"
#include "metrics/metrics.hpp"
#include "mitigation/baseline.hpp"
#include "mitigation/ensemble.hpp"
#include "mitigation/knowledge_distillation.hpp"
#include "mitigation/label_correction.hpp"
#include "mitigation/label_smoothing.hpp"
#include "mitigation/registry.hpp"
#include "mitigation/robust_loss.hpp"
#include "nn/dense.hpp"

namespace tdfm::mitigation {
namespace {

/// Small shared fixture: a tiny Pneumonia-like binary dataset and a fast
/// FitContext (ConvNet, width 4, 2 epochs) every technique can train on in
/// well under a second.
struct TinyStudy {
  data::TrainTestPair dataset;
  models::ModelConfig model_config;
  nn::TrainOptions opts;

  TinyStudy() {
    data::SyntheticSpec spec;
    spec.kind = data::DatasetKind::kPneumoniaSim;
    spec.scale = 0.5;  // 60 train / 32 test
    spec.seed = 77;
    dataset = data::generate(spec);
    model_config = models::ModelConfig::for_dataset(spec, /*width=*/4);
    opts.epochs = 2;
    opts.batch_size = 16;
  }

  [[nodiscard]] FitContext context(Rng& rng) const {
    FitContext ctx;
    ctx.train = &dataset.train;
    ctx.primary_arch = models::Arch::kConvNet;
    ctx.model_config = model_config;
    ctx.train_opts = opts;
    ctx.rng = &rng;
    return ctx;
  }
};

class EveryTechnique : public ::testing::TestWithParam<TechniqueKind> {};

TEST_P(EveryTechnique, FitsAndPredictsValidClasses) {
  const TinyStudy study;
  Rng rng(1);
  FitContext ctx = study.context(rng);
  Hyperparameters hp;
  if (GetParam() == TechniqueKind::kEnsemble) {
    // Two cheap members keep the test fast; the default five-member set is
    // exercised by the ensemble-specific tests below.
    hp.ens_members = {models::Arch::kConvNet, models::Arch::kDeconvNet};
  }
  auto technique = make_technique(GetParam(), hp);
  const auto classifier = technique->fit(ctx);
  ASSERT_NE(classifier, nullptr);
  const auto preds = classifier->predict(study.dataset.test.images);
  ASSERT_EQ(preds.size(), study.dataset.test.size());
  for (const int p : preds) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 2);
  }
}

TEST_P(EveryTechnique, DeterministicGivenSameSeed) {
  const TinyStudy study;
  Hyperparameters hp;
  hp.ens_members = {models::Arch::kConvNet};
  const auto run = [&] {
    Rng rng(99);
    FitContext ctx = study.context(rng);
    auto technique = make_technique(GetParam(), hp);
    return technique->fit(ctx)->predict(study.dataset.test.images);
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(Kinds, EveryTechnique,
                         ::testing::ValuesIn(all_techniques()),
                         [](const auto& info) {
                           return std::string(technique_name(info.param));
                         });

TEST(Registry, NamesRoundTrip) {
  for (const auto kind : all_techniques()) {
    EXPECT_EQ(technique_from_name(technique_name(kind)), kind);
  }
  EXPECT_THROW((void)technique_from_name("Mixup"), ConfigError);
}

TEST(Registry, PaperColumnOrder) {
  const auto all = all_techniques();
  ASSERT_EQ(all.size(), 6U);
  EXPECT_EQ(technique_name(all[0]), std::string("Base"));
  EXPECT_EQ(technique_name(all[5]), std::string("Ens"));
  EXPECT_EQ(tdfm_techniques().size(), 5U);  // the five TDFM approaches
}

TEST(Registry, OnlyLabelCorrectionWantsCleanSubset) {
  for (const auto kind : all_techniques()) {
    const auto t = make_technique(kind);
    EXPECT_EQ(t->wants_clean_subset(),
              kind == TechniqueKind::kLabelCorrection);
  }
}

TEST(FitContextTest, ValidatesInputs) {
  const TinyStudy study;
  Rng rng(2);
  FitContext ctx = study.context(rng);
  ctx.train = nullptr;
  EXPECT_THROW(ctx.validate(), InvariantError);
  ctx = study.context(rng);
  ctx.rng = nullptr;
  EXPECT_THROW(ctx.validate(), InvariantError);
  ctx = study.context(rng);
  ctx.model_config.num_classes = 7;  // dataset has 2
  EXPECT_THROW(ctx.validate(), InvariantError);
}

TEST(FitContextTest, OptionsForAppliesPerArchTuning) {
  const TinyStudy study;
  Rng rng(3);
  const FitContext ctx = study.context(rng);
  EXPECT_TRUE(ctx.options_for(models::Arch::kVGG11).use_adam);
  EXPECT_FALSE(ctx.options_for(models::Arch::kResNet18).use_adam);
  EXPECT_EQ(ctx.options_for(models::Arch::kVGG11).epochs, ctx.train_opts.epochs);
}

// ---------------------------------------------------------------- ensembles

/// Builds a single-Dense-layer network whose logits are constant (weights
/// zero, bias = given logits), so ensemble voting can be tested exactly.
std::unique_ptr<nn::Network> constant_network(std::vector<float> logits) {
  Rng rng(4);
  const std::size_t k = logits.size();
  auto body = std::make_unique<nn::Sequential>();
  auto& dense = body->emplace<nn::Dense>(1, k, rng);
  dense.parameters()[0]->value.zero();  // weight
  for (std::size_t i = 0; i < k; ++i) dense.parameters()[1]->value[i] = logits[i];
  return std::make_unique<nn::Network>("const", std::move(body), Shape{1}, k);
}

TEST(EnsembleClassifier, MajorityVoteWins) {
  std::vector<std::unique_ptr<nn::Network>> members;
  members.push_back(constant_network({5.0F, 0.0F, 0.0F}));  // votes 0
  members.push_back(constant_network({4.0F, 1.0F, 0.0F}));  // votes 0
  members.push_back(constant_network({0.0F, 9.0F, 0.0F}));  // votes 1
  EnsembleClassifier ens(std::move(members));
  const Tensor inputs = Tensor::full(Shape{3, 1}, 1.0F);
  const auto preds = ens.predict(inputs);
  for (const int p : preds) EXPECT_EQ(p, 0);
  EXPECT_DOUBLE_EQ(ens.inference_model_count(), 3.0);
}

TEST(EnsembleClassifier, TieBrokenBySummedConfidence) {
  std::vector<std::unique_ptr<nn::Network>> members;
  members.push_back(constant_network({8.0F, 0.0F}));  // confident class 0
  members.push_back(constant_network({0.0F, 0.1F}));  // weakly class 1
  EnsembleClassifier ens(std::move(members));
  const Tensor inputs = Tensor::full(Shape{2, 1}, 1.0F);
  // One vote each; class 0's summed softmax confidence is higher.
  const auto preds = ens.predict(inputs);
  for (const int p : preds) EXPECT_EQ(p, 0);
}

TEST(EnsembleTechnique, DefaultMembersMatchPaper) {
  const EnsembleTechnique ens;
  const auto& m = ens.members();
  ASSERT_EQ(m.size(), 5U);
  // §IV: "ConvNet, MobileNet, ResNet18, VGG11, and VGG16".
  EXPECT_NE(std::find(m.begin(), m.end(), models::Arch::kConvNet), m.end());
  EXPECT_NE(std::find(m.begin(), m.end(), models::Arch::kMobileNet), m.end());
  EXPECT_NE(std::find(m.begin(), m.end(), models::Arch::kResNet18), m.end());
  EXPECT_NE(std::find(m.begin(), m.end(), models::Arch::kVGG11), m.end());
  EXPECT_NE(std::find(m.begin(), m.end(), models::Arch::kVGG16), m.end());
  EXPECT_EQ(std::find(m.begin(), m.end(), models::Arch::kResNet50), m.end());
}

TEST(EnsembleTechnique, InferenceCostScalesWithMembers) {
  const TinyStudy study;
  Rng rng(5);
  FitContext ctx = study.context(rng);
  EnsembleTechnique ens({models::Arch::kConvNet, models::Arch::kDeconvNet,
                         models::Arch::kConvNet});
  const auto classifier = ens.fit(ctx);
  EXPECT_DOUBLE_EQ(classifier->inference_model_count(), 3.0);
}

// ------------------------------------------------------- label correction

TEST(LabelCorrection, UsesProvidedCleanSubset) {
  const TinyStudy study;
  Rng split_rng(6);
  auto [clean, noisy_base] =
      data::random_split(study.dataset.train, 0.2, split_rng);
  Rng inject_rng(7);
  const auto noisy = faults::inject(
      noisy_base, faults::FaultSpec{faults::FaultType::kMislabelling, 30.0},
      inject_rng);
  Rng rng(8);
  FitContext ctx = study.context(rng);
  ctx.train = &noisy;
  ctx.clean_subset = &clean;
  LabelCorrectionTechnique lc(0.2, /*hidden=*/8, /*secondary_steps=*/2);
  const auto classifier = lc.fit(ctx);
  const auto preds = classifier->predict(study.dataset.test.images);
  EXPECT_EQ(preds.size(), study.dataset.test.size());
}

TEST(LabelCorrection, FallsBackWithoutCleanSubset) {
  const TinyStudy study;
  Rng rng(9);
  FitContext ctx = study.context(rng);
  LabelCorrectionTechnique lc(0.2, 8, 2);
  EXPECT_NO_THROW((void)lc.fit(ctx));
}

// -------------------------------------------------------------- smoke: AD

TEST(EndToEnd, TechniqueOnCleanDataTracksGolden) {
  // Training the baseline twice on clean data: AD between the runs should
  // be small (both models learn the same easy task).
  const TinyStudy study;
  Rng rng1(10);
  Rng rng2(11);
  FitContext c1 = study.context(rng1);
  FitContext c2 = study.context(rng2);
  c1.train_opts.epochs = 6;
  c2.train_opts.epochs = 6;
  BaselineTechnique base;
  const auto golden = base.fit(c1);
  const auto second = base.fit(c2);
  const auto gp = golden->predict(study.dataset.test.images);
  const auto sp = second->predict(study.dataset.test.images);
  const double ad = metrics::accuracy_delta(gp, sp, study.dataset.test.labels);
  EXPECT_LT(ad, 0.5);
}

}  // namespace
}  // namespace tdfm::mitigation
