// Cell identity and role-scoped seed derivation (src/study/spec.hpp).
#include <set>

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "study/study.hpp"

namespace tdfm::study {
namespace {

StudySpec tiny_spec() {
  StudySpec spec;
  spec.name = "tiny";
  spec.datasets = {data::DatasetKind::kPneumoniaSim};
  spec.models = {models::Arch::kConvNet, models::Arch::kMobileNet};
  spec.fault_levels = {{},
                       {faults::FaultSpec{faults::FaultType::kMislabelling, 30.0}}};
  spec.techniques = {mitigation::TechniqueKind::kBaseline,
                     mitigation::TechniqueKind::kLabelSmoothing,
                     mitigation::TechniqueKind::kEnsemble};
  spec.trials = 2;
  spec.scale = 0.5;
  spec.model_width = 4;
  spec.seed = 7;
  spec.tune_small_datasets = false;
  return spec;
}

TEST(StudySpec, ExpansionIsDatasetMajorAndComplete) {
  const StudySpec spec = tiny_spec();
  const auto cells = expand_cells(spec);
  ASSERT_EQ(cells.size(), spec.cell_count());
  EXPECT_EQ(cells.size(), 1u * 2u * 2u * 3u * 2u);
  // Trial is the fastest axis, technique next.
  EXPECT_EQ(cells[0], (Cell{0, 0, 0, 0, 0}));
  EXPECT_EQ(cells[1], (Cell{0, 0, 0, 0, 1}));
  EXPECT_EQ(cells[2], (Cell{0, 0, 0, 1, 0}));
  EXPECT_EQ(cells.back(), (Cell{0, 1, 1, 2, 1}));
}

TEST(StudySpec, ValidateRejectsDegenerateGrids) {
  StudySpec spec = tiny_spec();
  spec.models.clear();
  EXPECT_THROW(spec.validate(), InvariantError);
  spec = tiny_spec();
  spec.trials = 0;
  EXPECT_THROW(spec.validate(), InvariantError);
  spec = tiny_spec();
  spec.techniques.clear();
  EXPECT_THROW(spec.validate(), InvariantError);
  spec = tiny_spec();
  spec.fault_levels.clear();
  EXPECT_THROW(spec.validate(), InvariantError);
}

TEST(StudySpec, CellIdsAreStableUniqueAndContentSensitive) {
  const StudySpec spec = tiny_spec();
  const auto cells = expand_cells(spec);
  std::set<std::string> ids;
  for (const Cell& cell : cells) {
    const std::string id = cell_id(spec, cell);
    ASSERT_EQ(id.size(), 16u);
    EXPECT_EQ(id, cell_id(spec, cell)) << "id must be deterministic";
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), cells.size()) << "ids must be unique across the grid";

  // Changing a content field changes every id; reordering an *unused* axis
  // entry does not change the ids of cells that don't reference it.
  StudySpec reseeded = spec;
  reseeded.seed = 8;
  EXPECT_NE(cell_id(spec, cells[0]), cell_id(reseeded, cells[0]));
}

TEST(StudySpec, IdsSurviveAxisReordering) {
  const StudySpec spec = tiny_spec();
  StudySpec swapped = spec;
  std::swap(swapped.models[0], swapped.models[1]);
  // The same (dataset, model, level, technique, trial) content gets the same
  // id regardless of where it sits in the axes.
  const Cell convnet_in_spec{0, 0, 1, 1, 0};
  const Cell convnet_in_swapped{0, 1, 1, 1, 0};
  EXPECT_EQ(cell_id(spec, convnet_in_spec),
            cell_id(swapped, convnet_in_swapped));
}

TEST(StudySpec, GoldenIsSharedAcrossLevelsAndTechniques) {
  const StudySpec spec = tiny_spec();
  const Cell a{0, 0, 0, 0, 0};
  const Cell b{0, 0, 1, 2, 0};  // other level, other technique, same trial
  EXPECT_EQ(golden_key(spec, a), golden_key(spec, b));
  EXPECT_EQ(golden_seed(spec, a), golden_seed(spec, b));
  const Cell other_model{0, 1, 0, 0, 0};
  EXPECT_NE(golden_key(spec, a), golden_key(spec, other_model));
  const Cell other_trial{0, 0, 0, 0, 1};
  EXPECT_NE(golden_key(spec, a), golden_key(spec, other_trial));
}

TEST(StudySpec, InjectionIsTechniqueInvariantButLevelScoped) {
  const StudySpec spec = tiny_spec();
  const Cell base{0, 0, 1, 0, 0};
  const Cell ls{0, 0, 1, 1, 0};
  EXPECT_EQ(inject_seed(spec, base), inject_seed(spec, ls));
  const Cell clean{0, 0, 0, 0, 0};
  EXPECT_NE(inject_seed(spec, base), inject_seed(spec, clean));
  // The model axis must not perturb injection either.
  const Cell other_model{0, 1, 1, 0, 0};
  EXPECT_EQ(inject_seed(spec, base), inject_seed(spec, other_model));
}

TEST(StudySpec, EnsembleFitIsShareableAcrossModels) {
  const StudySpec spec = tiny_spec();
  const Cell ens_convnet{0, 0, 1, 2, 0};
  const Cell ens_mobilenet{0, 1, 1, 2, 0};
  ASSERT_NE(shared_fit_key(spec, ens_convnet), 0u);
  EXPECT_EQ(shared_fit_key(spec, ens_convnet),
            shared_fit_key(spec, ens_mobilenet));
  EXPECT_EQ(fit_seed(spec, ens_convnet), fit_seed(spec, ens_mobilenet));
  // Non-shareable techniques return 0 and keep per-model fit seeds.
  const Cell base_convnet{0, 0, 1, 0, 0};
  const Cell base_mobilenet{0, 1, 1, 0, 0};
  EXPECT_EQ(shared_fit_key(spec, base_convnet), 0u);
  EXPECT_NE(fit_seed(spec, base_convnet), fit_seed(spec, base_mobilenet));
}

TEST(StudySpec, PneumoniaTuningMatchesTheBenchRules) {
  StudySpec spec = tiny_spec();
  spec.tune_small_datasets = true;
  spec.train_opts.epochs = 10;
  const auto ds = dataset_spec_for(spec, data::DatasetKind::kPneumoniaSim);
  EXPECT_DOUBLE_EQ(ds.scale, 1.0) << "pneumonia scale is floored at 1.0";
  const auto opts = train_options_for(spec, data::DatasetKind::kPneumoniaSim);
  EXPECT_EQ(opts.batch_size, 8u);
  EXPECT_EQ(opts.epochs, 25u);
  spec.tune_small_datasets = false;
  EXPECT_DOUBLE_EQ(dataset_spec_for(spec, data::DatasetKind::kPneumoniaSim).scale,
                   0.5);
}

TEST(StudySpec, FaultLevelNames) {
  StudySpec spec = tiny_spec();
  spec.fault_levels.push_back(
      {faults::FaultSpec{faults::FaultType::kMislabelling, 30.0},
       faults::FaultSpec{faults::FaultType::kRemoval, 10.0}});
  EXPECT_EQ(spec.fault_level_name(0), "none");
  EXPECT_EQ(spec.fault_level_name(1), "mislabelling@30%");
  EXPECT_EQ(spec.fault_level_name(2), "mislabelling@30%+removal@10%");
  EXPECT_THROW((void)spec.fault_level_name(3), InvariantError);
}

TEST(StudyPresets, CatalogueIsPinned) {
  // The CI smoke test and the bench wrappers key off these names; a rename
  // or removal must be deliberate (update the benches, docs, and this list).
  const std::vector<std::string> expected = {
      "smoke",          "fig3-mislabelling", "fig3-removal",
      "fig4-mislabelling", "fig4-repetition", "fig4",
      "table4",         "motivating-example", "combined-faults",
      "quant-ad",       "paper-full"};
  EXPECT_EQ(preset_names(), expected);
  EXPECT_THROW((void)preset("no-such-preset"), ConfigError);
  // Every preset expands without validation errors.
  for (const Preset& p : all_presets()) {
    EXPECT_NO_THROW(p.spec.validate()) << p.name;
    EXPECT_GT(p.spec.cell_count(), 0u) << p.name;
  }
}

}  // namespace
}  // namespace tdfm::study
