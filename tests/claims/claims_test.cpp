// The paper's conclusions as tests: each case runs a small fixed grid
// through study::run_campaign and asserts one row of EXPERIMENTS.md's
// "Reproduction summary" on mean AD.  A refactor that flips a technique
// ranking fails here even when every unit test still passes.
//
// Grids are the bench presets shrunk to roughly a sixth of bench cost
// (dataset scale, epochs); the seeds below were fixed before the first run
// and are never re-chosen to make a claim pass.  A claim that does not hold
// at these seeds on every kernel table is recorded in EXPERIMENTS.md as not
// reproduced at test scale instead of being asserted here.  At this scale
// the GTSRB golden ConvNet is right on fewer than one test image in ten, so
// ADs sit near 100% and the claims kept here are weak pins, not proofs.
//
// CMake registers this binary twice, at the default kernel table and with
// TDFM_KERNEL=scalar: a conclusion that flips with kernel rounding is not a
// conclusion.  Each case prints the numbers it judged, so runs at two
// commits can be compared line by line.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/logging.hpp"
#include "core/statistics.hpp"
#include "kernels/kernels.hpp"
#include "study/study.hpp"

namespace tdfm::study {
namespace {

constexpr std::uint64_t kSeed = 42;

/// Test-scale overrides shared by every grid: the preset's axes and
/// hyperparameters, a smaller dataset and fewer epochs.
StudySpec at_test_scale(StudySpec spec, double scale, std::size_t epochs,
                        std::size_t trials) {
  spec.scale = scale;
  spec.train_opts.epochs = epochs;
  spec.trials = trials;
  spec.seed = kSeed;
  return spec;
}

std::vector<CellRecord> run(const StudySpec& spec) {
  set_log_level(LogLevel::kWarn);
  RunOptions options;
  options.jobs = 4;
  return run_campaign(spec, options).records;
}

const TechniqueSummary& technique(const CampaignSummary& summary,
                                  const std::string& name) {
  const auto it = std::find_if(
      summary.technique_summaries.begin(), summary.technique_summaries.end(),
      [&](const TechniqueSummary& t) { return t.technique == name; });
  if (it == summary.technique_summaries.end()) {
    throw InvariantError("technique missing from summary: " + name);
  }
  return *it;
}

void print_ranks(const char* claim, const CampaignSummary& summary) {
  std::vector<double> golden;
  for (const GroupStats& g : summary.groups) {
    golden.push_back(g.golden_accuracy.mean);
  }
  std::printf("[claim %s] kernel=%s golden %.4f", claim,
              kernels::kernel_name(kernels::active_kernel()), mean_of(golden));
  for (const TechniqueSummary& t : summary.technique_summaries) {
    std::printf(" %s(rank %.2f, AD %.4f)", t.technique.c_str(), t.mean_rank,
                t.mean_ad);
  }
  std::printf("\n");
}

// Obs. 1 on a shallow model, on Fig. 3's ConvNet panel (GTSRB, mislabelling
// 10/30/50%, all six columns): the ensemble ranks best across the sweep and
// label smoothing does no worse than the unprotected baseline.  The printed
// line also carries RL's and LC's numbers ("RL/LC hurt shallow models"),
// which do not hold at this scale (EXPERIMENTS.md).
TEST(Claims, EnsembleRanksBestAndLabelSmoothingMatchesBaseOnConvNet) {
  StudySpec spec = preset_spec("fig3-mislabelling");
  spec.models = {models::Arch::kConvNet};
  const CampaignSummary s =
      summarize_campaign(run(at_test_scale(spec, 0.2, 4, 1)));
  print_ranks("fig3-convnet", s);
  EXPECT_EQ(s.technique_summaries.front().technique, "Ens");
  EXPECT_LE(technique(s, "LS").mean_ad, technique(s, "Base").mean_ad);
}

// §IV-C: a combination of fault types behaves like its dominant single
// type (Welch's t-test on the per-trial ADs finds no difference at 5%).  The
// analyzer pairs mislabelling+removal and mislabelling+repetition with
// mislabelling, and removal+repetition with repetition.
TEST(Claims, CombinedFaultsMatchTheDominantSingleFault) {
  const StudySpec spec =
      at_test_scale(preset_spec("combined-faults"), 0.25, 5, 3);
  const std::vector<CellRecord> records = run(spec);
  std::vector<double> golden_samples;
  for (const CellRecord& r : records) golden_samples.push_back(r.golden_accuracy);
  const double golden = mean_of(golden_samples);
  const CampaignSummary s = summarize_campaign(records);
  for (const GroupStats& g : s.groups) ASSERT_EQ(g.trials, spec.trials);
  ASSERT_EQ(s.fault_comparisons.size(), 3U);
  for (const FaultComparison& c : s.fault_comparisons) {
    std::printf("[claim combined-faults] kernel=%s golden %.4f %s AD %.4f vs "
                "%s AD %.4f: t=%.3f dof=%.2f\n",
                kernels::kernel_name(kernels::active_kernel()), golden,
                c.combined.c_str(), c.combined_ad, c.single.c_str(), c.single_ad,
                c.welch.t, c.welch.dof);
    EXPECT_FALSE(c.welch.significant_at_05) << c.combined << " vs " << c.single;
  }
}

}  // namespace
}  // namespace tdfm::study
