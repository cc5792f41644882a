// Integration tests: the full pipeline of Fig. 2 exercised end to end at
// miniature scale, checking the cross-module contracts the unit suites
// cannot see (dataset -> injector -> technique -> metric -> report).
#include <gtest/gtest.h>

#include <mutex>

#include "core/logging.hpp"
#include "metrics/metrics.hpp"
#include "obs/telemetry.hpp"
#include "study/study.hpp"

namespace tdfm {
namespace {

study::StudySpec pneumonia_study(std::size_t epochs = 8) {
  study::StudySpec spec;
  spec.name = "integration";
  spec.datasets = {data::DatasetKind::kPneumoniaSim};
  spec.models = {models::Arch::kConvNet};
  spec.model_width = 6;
  spec.trials = 1;
  spec.scale = 1.0;
  spec.train_opts.epochs = epochs;
  spec.train_opts.batch_size = 8;
  spec.seed = 1234;
  spec.tune_small_datasets = false;
  return spec;
}

/// One group per (fault level, technique), in spec order.
study::CampaignSummary run(const study::StudySpec& spec) {
  return study::summarize_campaign(study::run_campaign(spec).records);
}

TEST(Pipeline, GoldenModelLearnsTheCleanTask) {
  // The binary Pneumonia-sim task must be learnable by the small ConvNet —
  // otherwise every downstream AD number is meaningless.
  auto spec = pneumonia_study(20);
  spec.techniques = {mitigation::TechniqueKind::kBaseline};
  spec.fault_levels = {{}};
  const auto r = run(spec);
  // Well above the 50% class prior; the deep models reach ~95% on this task
  // (study_runner --preset motivating-example) but the width-6 ConvNet
  // plateaus lower.
  EXPECT_GT(r.groups[0].golden_accuracy.mean, 0.65);
}

TEST(Pipeline, HeavyMislabellingDegradesTheBaseline) {
  // 50% mislabelling on a binary task destroys the label signal; the
  // baseline must measurably degrade relative to the golden model.
  auto spec = pneumonia_study(10);
  spec.techniques = {mitigation::TechniqueKind::kBaseline};
  spec.fault_levels = {
      {faults::FaultSpec{faults::FaultType::kMislabelling, 50.0}}};
  const study::GroupStats cell = run(spec).groups[0];
  EXPECT_GT(cell.ad.mean, 0.1);
  EXPECT_LT(cell.faulty_accuracy.mean, cell.golden_accuracy.mean);
}

TEST(Pipeline, RemovalIsGentlerThanMislabelling) {
  // Observation 2 precondition: at equal percentages, removal hurts less
  // than mislabelling (fewer clean samples vs corrupted supervision).
  auto spec = pneumonia_study(10);
  spec.techniques = {mitigation::TechniqueKind::kBaseline};
  spec.trials = 2;
  spec.fault_levels = {
      {faults::FaultSpec{faults::FaultType::kMislabelling, 50.0}},
      {faults::FaultSpec{faults::FaultType::kRemoval, 50.0}},
  };
  const auto r = run(spec);
  EXPECT_GT(r.groups[0].ad.mean + 0.05, r.groups[1].ad.mean);
}

TEST(Pipeline, RepetitionBarelyMoves) {
  // Duplicated clean pairs carry no wrong supervision; AD stays small.
  auto spec = pneumonia_study(10);
  spec.techniques = {mitigation::TechniqueKind::kBaseline};
  spec.fault_levels = {
      {faults::FaultSpec{faults::FaultType::kRepetition, 30.0}}};
  EXPECT_LT(run(spec).groups[0].ad.mean, 0.5);
}

// Training work of one study as the trainer reports it: fits (first-epoch
// records) and epochs.  Unlike wall-clock ratios these counts repeat
// exactly, however busy the host and however the ensemble's concurrently
// trained members overlap.
struct TrainedWork {
  std::size_t fits = 0;
  std::size_t epochs = 0;
};

TrainedWork run_counting_training(const study::StudySpec& spec,
                                  study::CampaignSummary& result) {
  std::mutex mu;  // ensemble members report from pool threads
  TrainedWork work;
  struct ObserverGuard {
    ~ObserverGuard() { obs::set_epoch_observer({}); }
  } guard;
  obs::set_epoch_observer([&](const obs::EpochRecord& r) {
    const std::lock_guard<std::mutex> lock(mu);
    ++work.epochs;
    if (r.epoch == 1) ++work.fits;
  });
  result = run(spec);
  return work;
}

TEST(Pipeline, OverheadStructureMatchesTechniqueDesign) {
  // Structural overhead claims that hold at any scale: the ensemble
  // consults n models at inference; distillation trains two models (but the
  // student for fewer epochs); LS adds nothing.  One study per technique, so
  // each study's work is its golden model plus that technique's fits.
  const auto study_of = [](mitigation::TechniqueKind kind) {
    auto spec = pneumonia_study(4);
    spec.techniques = {kind};
    spec.hyperparams.ens_members = {models::Arch::kConvNet, models::Arch::kConvNet,
                                    models::Arch::kConvNet};
    spec.fault_levels = {
        {faults::FaultSpec{faults::FaultType::kMislabelling, 10.0}}};
    return spec;
  };
  const auto measure = [&](mitigation::TechniqueKind kind) {
    study::CampaignSummary r;
    const TrainedWork work = run_counting_training(study_of(kind), r);
    return std::make_pair(work, r.groups[0].inference_models);
  };
  const auto [base, base_models] = measure(mitigation::TechniqueKind::kBaseline);
  const auto [ls, ls_models] = measure(mitigation::TechniqueKind::kLabelSmoothing);
  const auto [kd, kd_models] =
      measure(mitigation::TechniqueKind::kKnowledgeDistillation);
  const auto [ens, ens_models] = measure(mitigation::TechniqueKind::kEnsemble);
  EXPECT_DOUBLE_EQ(base_models, 1.0);
  EXPECT_DOUBLE_EQ(ls_models, 1.0);
  EXPECT_DOUBLE_EQ(kd_models, 1.0);
  EXPECT_DOUBLE_EQ(ens_models, 3.0);

  const std::size_t fit_epochs = study_of(mitigation::TechniqueKind::kBaseline)
                                     .train_opts.epochs;  // one ConvNet fit
  ASSERT_GT(base.fits, 0U);
  // LS trains exactly what the baseline trains.
  EXPECT_EQ(ls.fits, base.fits);
  EXPECT_EQ(ls.epochs, base.epochs);
  // KD trains the teacher (a baseline fit) plus a student for fewer epochs.
  EXPECT_EQ(kd.fits, base.fits + 1);
  EXPECT_GT(kd.epochs, base.epochs);
  EXPECT_LT(kd.epochs, base.epochs + fit_epochs);
  // The 3-member same-arch ensemble trains three baseline fits.
  EXPECT_EQ(ens.fits, base.fits + 2);
  EXPECT_EQ(ens.epochs, base.epochs + 2 * fit_epochs);
}

TEST(Pipeline, CleanSubsetReallyEscapesInjection) {
  // For LC, the harness reserves gamma of the data before injection.  With
  // 100% mislabelling on a 2-class problem, noisy labels are all flipped —
  // so any training-set sample whose label equals its generated class must
  // come from the clean reserve.  We verify via the technique's interface.
  data::SyntheticSpec spec;
  spec.kind = data::DatasetKind::kPneumoniaSim;
  const auto dataset = data::generate(spec);
  Rng split_rng(5);
  auto [clean, rest] = data::random_split(dataset.train, 0.2, split_rng);
  Rng inject_rng(6);
  const auto noisy = faults::inject(
      rest, faults::FaultSpec{faults::FaultType::kMislabelling, 100.0},
      inject_rng);
  // All clean labels valid; all noisy labels flipped relative to `rest`.
  for (std::size_t i = 0; i < noisy.size(); ++i) {
    EXPECT_NE(noisy.labels[i], rest.labels[i]);
  }
  EXPECT_EQ(clean.size() + rest.size(), dataset.train.size());
}

TEST(Pipeline, CsvRowsRoundTripThroughTheReport) {
  auto spec = pneumonia_study(2);
  spec.techniques = {mitigation::TechniqueKind::kBaseline};
  spec.fault_levels = {
      {faults::FaultSpec{faults::FaultType::kMislabelling, 10.0}}};
  const std::string csv = study::render_csv(run(spec));
  EXPECT_NE(csv.find("pneumonia-sim,ConvNet,mislabelling@10%,Base,"),
            std::string::npos);
}

}  // namespace
}  // namespace tdfm
