// End-to-end campaign scheduling: determinism across job counts and
// execution order, journal resume, compute-once caches, and the analyzer
// fold (src/study/runner.hpp, analyzer.hpp, dataset_cache.hpp).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../obs/json_check.hpp"
#include "core/error.hpp"
#include "obs/metrics.hpp"
#include "study/study.hpp"

namespace tdfm::study {
namespace {

/// A seconds-scale grid: tiny pneumonia dataset, shallow models, one fault
/// level.  `seed` doubles as the dataset-cache key discriminator, so each
/// test that asserts on cache counters uses its own seed.
StudySpec tiny_campaign(std::uint64_t seed,
                        std::vector<models::Arch> model_axis = {
                            models::Arch::kConvNet}) {
  StudySpec spec;
  spec.name = "test";
  spec.datasets = {data::DatasetKind::kPneumoniaSim};
  spec.models = std::move(model_axis);
  spec.fault_levels = {{faults::FaultSpec{faults::FaultType::kMislabelling, 30.0}}};
  spec.techniques = {mitigation::TechniqueKind::kBaseline,
                     mitigation::TechniqueKind::kLabelSmoothing,
                     mitigation::TechniqueKind::kEnsemble};
  spec.trials = 2;
  spec.scale = 0.5;
  spec.model_width = 4;
  spec.seed = seed;
  spec.train_opts.epochs = 2;
  spec.train_opts.batch_size = 16;
  spec.hyperparams.ens_members = {models::Arch::kConvNet};
  spec.tune_small_datasets = false;
  return spec;
}

std::string temp_journal(const std::string& name) {
  const std::string path =
      testing::TempDir() + "tdfm_campaign_" + name + ".jsonl";
  std::remove(path.c_str());
  return path;
}

void expect_equal_modulo_timing(const std::vector<CellRecord>& a,
                                const std::vector<CellRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(equal_modulo_timing(a[i], b[i]))
        << "cell " << a[i].cell << " differs beyond timing";
  }
}

TEST(OnceMap, ComputesEachKeyOnceAcrossThreads) {
  OnceMap<int> map;
  std::atomic<int> factory_runs{0};
  std::vector<std::thread> threads;
  std::atomic<int> sum{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      const int v = map.get(42, [&] {
        factory_runs.fetch_add(1);
        return 7;
      });
      sum.fetch_add(v);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(factory_runs.load(), 1);
  EXPECT_EQ(sum.load(), 8 * 7);
  EXPECT_EQ(map.misses(), 1u);
  EXPECT_EQ(map.hits(), 7u);
}

TEST(OnceMap, FailedFactoryAllowsRetry) {
  OnceMap<int> map;
  EXPECT_THROW((void)map.get(1, []() -> int { throw ConfigError("boom"); }),
               ConfigError);
  bool computed = false;
  EXPECT_EQ(map.get(1, [] { return 5; }, &computed), 5);
  EXPECT_TRUE(computed);
}

// The same spec at --jobs 1 and --jobs 4 (and in shuffled cell order)
// produces identical journal records modulo timing fields, while a
// different campaign seed changes them.
TEST(Campaign, BitIdenticalAcrossJobsAndExecutionOrder) {
  const StudySpec spec = tiny_campaign(101, {models::Arch::kConvNet,
                                             models::Arch::kDeconvNet});
  RunOptions serial;
  serial.jobs = 1;
  const CampaignResult base = run_campaign(spec, serial);
  ASSERT_EQ(base.records.size(), spec.cell_count());

  RunOptions wild;
  wild.jobs = 4;
  wild.shuffle_seed = 99;
  const CampaignResult shuffled = run_campaign(spec, wild);
  expect_equal_modulo_timing(base.records, shuffled.records);

  // And the default report is byte-identical, timings excluded.
  const auto summary_a = summarize_campaign(base.records);
  const auto summary_b = summarize_campaign(shuffled.records);
  EXPECT_EQ(render_csv(summary_a), render_csv(summary_b));
  EXPECT_EQ(render_ascii(summary_a), render_ascii(summary_b));
  EXPECT_EQ(render_json_summary(summary_a), render_json_summary(summary_b));

  StudySpec reseeded = spec;
  reseeded.seed += 1000;  // a seed no other test's dataset cache uses
  const CampaignResult other = run_campaign(reseeded, serial);
  ASSERT_EQ(other.records.size(), base.records.size());
  bool any_differs = false;
  for (std::size_t i = 0; i < base.records.size(); ++i) {
    any_differs = any_differs ||
                  other.records[i].golden_accuracy !=
                      base.records[i].golden_accuracy ||
                  other.records[i].ad != base.records[i].ad;
  }
  EXPECT_TRUE(any_differs);
}

// Satellite: a partial journal resumes without recomputing journaled cells,
// and the merged report equals a from-scratch run bit-for-bit.
TEST(Campaign, ResumeSkipsJournaledCellsAndReportMatches) {
  const StudySpec spec = tiny_campaign(102);
  const std::string full_path = temp_journal("full");
  RunOptions full_run;
  full_run.jobs = 2;
  full_run.journal_path = full_path;
  const CampaignResult full = run_campaign(spec, full_run);
  EXPECT_EQ(full.executed, spec.cell_count());
  EXPECT_EQ(full.skipped, 0u);

  // Simulate a kill after 3 cells: a journal holding only a prefix.
  const auto journaled = Journal::load(full_path);
  ASSERT_EQ(journaled.size(), spec.cell_count());
  const std::string partial_path = temp_journal("partial");
  {
    Journal partial(partial_path);
    for (std::size_t i = 0; i < 3; ++i) partial.append(journaled[i]);
  }

  RunOptions resume_run;
  resume_run.jobs = 2;
  resume_run.journal_path = partial_path;
  resume_run.resume = true;
  const CampaignResult resumed = run_campaign(spec, resume_run);
  EXPECT_EQ(resumed.skipped, 3u);
  EXPECT_EQ(resumed.executed, spec.cell_count() - 3);
  expect_equal_modulo_timing(full.records, resumed.records);
  EXPECT_EQ(render_csv(summarize_campaign(full.records)),
            render_csv(summarize_campaign(resumed.records)));

  // The resumed journal now covers the whole grid (adopted + appended).
  EXPECT_EQ(Journal::load(partial_path).size(), spec.cell_count());
  std::remove(full_path.c_str());
  std::remove(partial_path.c_str());
}

TEST(Campaign, ResumeWithFullJournalRecomputesNothing) {
  const StudySpec spec = tiny_campaign(103);
  const std::string path = temp_journal("noop");
  RunOptions run;
  run.jobs = 1;
  run.journal_path = path;
  const CampaignResult first = run_campaign(spec, run);
  run.resume = true;
  const CampaignResult second = run_campaign(spec, run);
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(second.skipped, spec.cell_count());
  EXPECT_EQ(second.records, first.records)
      << "adopted records carry their original timings";
  std::remove(path.c_str());
}

TEST(Campaign, CachesShareWorkWithoutChangingResults) {
  obs::set_metrics_enabled(true);
  const StudySpec spec = tiny_campaign(104, {models::Arch::kConvNet,
                                             models::Arch::kDeconvNet});
  RunOptions run;
  run.jobs = 4;
  const CampaignResult result = run_campaign(spec, run);
  obs::set_metrics_enabled(false);

  // Dataset: one generate() for the whole grid, every other cell hits.
  EXPECT_EQ(result.dataset_cache.misses, 1u);
  EXPECT_EQ(result.dataset_cache.hits + result.dataset_cache.misses,
            spec.cell_count());
  // Golden: one fit per (model, trial) = 4 misses, shared by 12 cells.
  EXPECT_EQ(result.golden_cache.misses, 2u * 2u);
  EXPECT_EQ(result.golden_cache.hits + result.golden_cache.misses,
            spec.cell_count());
  // Ensemble fit: shared across the two model panels -> per trial one miss,
  // one hit; only ensemble cells consult this cache.
  EXPECT_EQ(result.shared_fit_cache.misses, 2u);
  EXPECT_EQ(result.shared_fit_cache.hits, 2u);

  // Cache hits are observable through the obs metrics registry (acceptance
  // criterion: "dataset-cache hits observable via obs metrics registry").
  EXPECT_GE(obs::Registry::global().counter("study.dataset_cache.hits").value(),
            result.dataset_cache.hits);
  EXPECT_GE(
      obs::Registry::global().counter("study.golden_cache.misses").value(),
      result.golden_cache.misses);

  // Sharing must not perturb bits: every ensemble record of a trial agrees
  // on faulty accuracy across panels (identical predictions, same data).
  for (const CellRecord& a : result.records) {
    if (a.technique != "Ens") continue;
    EXPECT_TRUE(a.shared_fit);
    for (const CellRecord& b : result.records) {
      if (b.technique == "Ens" && b.trial == a.trial) {
        EXPECT_DOUBLE_EQ(a.faulty_accuracy, b.faulty_accuracy);
      }
    }
  }
}

TEST(Campaign, AnalyzerFoldsRecordsIntoPaperAggregates) {
  const StudySpec spec = tiny_campaign(105);
  const CampaignResult result = run_campaign(spec, {});
  const CampaignSummary summary = summarize_campaign(result.records);
  EXPECT_EQ(summary.total_records, spec.cell_count());
  EXPECT_EQ(summary.datasets, std::vector<std::string>{"pneumonia-sim"});
  EXPECT_EQ(summary.techniques,
            (std::vector<std::string>{"Base", "LS", "Ens"}));
  ASSERT_EQ(summary.groups.size(), 3u);  // 1 dataset x 1 model x 1 level x 3
  for (const GroupStats& g : summary.groups) {
    EXPECT_EQ(g.trials, 2u);
    EXPECT_GE(g.ad.ci95_half_width, 0.0);
  }
  // Mean ranks cover all techniques, averaging to (k+1)/2.
  ASSERT_EQ(summary.technique_summaries.size(), 3u);
  double rank_sum = 0.0;
  for (const TechniqueSummary& t : summary.technique_summaries) {
    EXPECT_EQ(t.contexts, 1u);
    rank_sum += t.mean_rank;
  }
  EXPECT_DOUBLE_EQ(rank_sum, 6.0);
  EXPECT_LE(summary.technique_summaries.front().mean_rank,
            summary.technique_summaries.back().mean_rank);

  // Renderings: valid JSON, CSV row count, markdown table markers, and the
  // timings opt-in actually changes the output.
  EXPECT_TRUE(
      test::JsonChecker(render_json_summary(summary)).valid());
  const std::string csv = render_csv(summary);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);  // header + 3 groups
  const std::string markdown = render_markdown(summary);
  EXPECT_NE(markdown.find("| fault level"), std::string::npos);
  EXPECT_NE(markdown.find("|---"), std::string::npos);
  ReportOptions with_timings;
  with_timings.include_timings = true;
  EXPECT_NE(render_ascii(summary, with_timings),
            render_ascii(summary, ReportOptions{}));
}

TEST(Campaign, ResumeRequiresAJournalPath) {
  const StudySpec spec = tiny_campaign(106);
  RunOptions run;
  run.resume = true;
  EXPECT_THROW((void)run_campaign(spec, run), InvariantError);
}

TEST(Campaign, FailingCellSurfacesTheError) {
  StudySpec spec = tiny_campaign(107);
  spec.hyperparams.ens_members = {};  // default five members
  spec.trials = 1;
  // Sabotage: an out-of-range fault percentage throws inside the injector,
  // on a worker thread; the scheduler must surface it to the caller.
  spec.fault_levels = {{faults::FaultSpec{faults::FaultType::kMislabelling, 170.0}}};
  RunOptions run;
  run.jobs = 2;
  EXPECT_THROW((void)run_campaign(spec, run), InvariantError);
}

}  // namespace
}  // namespace tdfm::study
