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
#include "core/statistics.hpp"
#include "core/table.hpp"
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

/// A hand-built record: no training, only the fields the analyzer reads.
CellRecord record(const std::string& level, const std::string& technique,
                  std::size_t trial, double ad,
                  const std::string& model = "ConvNet") {
  CellRecord r;
  r.cell = model + "/" + level + "/" + technique + "/" + std::to_string(trial);
  r.dataset = "gtsrb-sim";
  r.model = model;
  r.fault_level = level;
  r.technique = technique;
  r.trial = trial;
  r.golden_accuracy = 0.8 + 0.01 * static_cast<double>(trial);
  r.faulty_accuracy = r.golden_accuracy - ad / 2;
  r.ad = ad;
  r.reverse_ad = ad / 4;
  r.naive_drop = ad / 2;
  return r;
}

/// The quant-ad preset's shape: two models, the clean level and 30%
/// mislabelling, four techniques, two trials, every cell measured at q8_0.
std::vector<CellRecord> quant_ad_shaped_records() {
  std::vector<CellRecord> records;
  double ad = 0.05;
  for (const std::string model : {"ConvNet", "MobileNet"}) {
    for (const std::string level : {"none", "mislabelling@30%"}) {
      for (const std::string technique : {"Base", "LS", "RL", "Ens"}) {
        for (std::size_t trial = 1; trial <= 2; ++trial) {
          CellRecord r = record(level, technique, trial, ad, model);
          r.quantized = true;
          r.quantized_accuracy = r.faulty_accuracy - 0.01;
          r.quantized_ad = ad + 0.02;
          r.quantized_vs_fp32_ad = 0.03 * static_cast<double>(trial);
          records.push_back(r);
          ad += 0.0125;
        }
      }
    }
  }
  return records;
}

// A combined level is compared only with its dominant single level:
// mislabelling, else repetition, in the same (dataset, model, technique).
TEST(Analyzer, WelchPanelNeedsACombinedLevelAndItsDominantSingleLevel) {
  const std::string header = "## Combined vs dominant single fault";
  std::vector<CellRecord> records;
  for (std::size_t trial = 1; trial <= 3; ++trial) {
    records.push_back(record("mislabelling@30%", "Base", trial, 0.1 * trial));
    records.push_back(record("removal@30%+repetition@30%", "Base", trial, 0.2));
  }
  CampaignSummary s = summarize_campaign(records);
  EXPECT_TRUE(s.fault_comparisons.empty());
  EXPECT_EQ(render_ascii(s).find(header), std::string::npos);

  for (std::size_t trial = 1; trial <= 3; ++trial) {
    records.push_back(record("repetition@30%", "Base", trial, 0.3));
    records.push_back(record("mislabelling@30%+removal@30%", "Base", trial, 0.4));
    records.push_back(record("mislabelling@30%+removal@30%", "LS", trial, 0.4));
  }
  s = summarize_campaign(records);
  ASSERT_EQ(s.fault_comparisons.size(), 2U);  // LS has no single level
  EXPECT_EQ(s.fault_comparisons[0].combined, "removal@30%+repetition@30%");
  EXPECT_EQ(s.fault_comparisons[0].single, "repetition@30%");
  EXPECT_EQ(s.fault_comparisons[1].combined, "mislabelling@30%+removal@30%");
  EXPECT_EQ(s.fault_comparisons[1].single, "mislabelling@30%");
  EXPECT_NE(render_ascii(s).find(header), std::string::npos);
}

TEST(Analyzer, WelchPanelIsTheWelchTestOnPerTrialAds) {
  const std::vector<double> combined = {0.10, 0.25, 0.40, 0.30};
  const std::vector<double> single = {0.35, 0.30, 0.55};
  std::vector<CellRecord> records;
  for (std::size_t i = 0; i < single.size(); ++i) {
    records.push_back(record("repetition@10%", "Base", i + 1, single[i]));
  }
  for (std::size_t i = 0; i < combined.size(); ++i) {
    records.push_back(record("repetition@10%+removal@10%", "Base", i + 1, combined[i]));
  }
  const CampaignSummary s = summarize_campaign(records);
  ASSERT_EQ(s.fault_comparisons.size(), 1U);
  const FaultComparison& c = s.fault_comparisons[0];
  const WelchResult w = welch_t_test(combined, single);
  EXPECT_EQ(c.welch.t, w.t);
  EXPECT_EQ(c.welch.dof, w.dof);
  EXPECT_EQ(c.welch.significant_at_05, w.significant_at_05);
  EXPECT_EQ(c.combined_ad, mean_of(combined));
  EXPECT_EQ(c.single_ad, mean_of(single));
  EXPECT_NE(render_ascii(s).find("| " + fixed(w.t, 2) + " | " + fixed(w.dof, 1) + " |"),
            std::string::npos);
}

// Table IV's layout appears when the clean level is the only level: Base
// shows the golden accuracy, the other columns each technique's accuracy.
TEST(Analyzer, TableFourPanelOnlyForACleanOnlyGrid) {
  const std::string header = "## Table IV: accuracy without fault injection";
  std::vector<CellRecord> records = {record("none", "Base", 1, 0.0),
                                     record("none", "LS", 1, 0.3),
                                     record("none", "Base", 1, 0.0, "MobileNet")};
  const std::string text = render_ascii(summarize_campaign(records));
  EXPECT_NE(text.find(header), std::string::npos);
  EXPECT_NE(text.find("| ConvNet   | gtsrb-sim | 81%  | 66% |"), std::string::npos) << text;
  EXPECT_NE(text.find("| MobileNet | gtsrb-sim | 81%  | -   |"), std::string::npos) << text;
  records.push_back(record("mislabelling@30%", "Base", 1, 0.2));
  EXPECT_EQ(render_ascii(summarize_campaign(records)).find(header), std::string::npos);
}

// The benchmark's and the bits manifest's grid gains no panel.
TEST(Analyzer, QuantAdShapedGridRendersAsBefore) {
  const std::string expected = R"(## AD: gtsrb-sim / ConvNet  (golden accuracy 81.5%)
+------------------+---------------+---------------+---------------+---------------+
| fault level      | Base          | LS            | RL            | Ens           |
+------------------+---------------+---------------+---------------+---------------+
| none             | 5.6% ± 7.9%  | 8.1% ± 7.9%  | 10.6% ± 7.9% | 13.1% ± 7.9% |
| mislabelling@30% | 15.6% ± 7.9% | 18.1% ± 7.9% | 20.6% ± 7.9% | 23.1% ± 7.9% |
+------------------+---------------+---------------+---------------+---------------+

## AD: gtsrb-sim / MobileNet  (golden accuracy 81.5%)
+------------------+---------------+---------------+---------------+---------------+
| fault level      | Base          | LS            | RL            | Ens           |
+------------------+---------------+---------------+---------------+---------------+
| none             | 25.6% ± 7.9% | 28.1% ± 7.9% | 30.6% ± 7.9% | 33.1% ± 7.9% |
| mislabelling@30% | 35.6% ± 7.9% | 38.1% ± 7.9% | 40.6% ± 7.9% | 43.1% ± 7.9% |
+------------------+---------------+---------------+---------------+---------------+

## Technique mean ranks (lower is better)
+-----------+-----------+---------+-----------+----------+
| technique | mean rank | mean AD | median AD | contexts |
+-----------+-----------+---------+-----------+----------+
| Base      | 1.00      | 20.6%   | 20.6%     | 4        |
| LS        | 2.00      | 23.1%   | 23.1%     | 4        |
| RL        | 3.00      | 25.6%   | 25.6%     | 4        |
| Ens       | 4.00      | 28.1%   | 28.1%     | 4        |
+-----------+-----------+---------+-----------+----------+

## Quantization: int8 vs fp32
+-----------+-----------+------------------+-----------+---------------+---------------+----------+-----------------+
| dataset   | model     | fault level      | technique | fp32 AD       | int8 AD       | int8 acc | int8 vs fp32 AD |
+-----------+-----------+------------------+-----------+---------------+---------------+----------+-----------------+
| gtsrb-sim | ConvNet   | none             | Base      | 5.6% ± 7.9%  | 7.6% ± 7.9%  | 77.7%    | 4.5%            |
| gtsrb-sim | ConvNet   | none             | LS        | 8.1% ± 7.9%  | 10.1% ± 7.9% | 76.4%    | 4.5%            |
| gtsrb-sim | ConvNet   | none             | RL        | 10.6% ± 7.9% | 12.6% ± 7.9% | 75.2%    | 4.5%            |
| gtsrb-sim | ConvNet   | none             | Ens       | 13.1% ± 7.9% | 15.1% ± 7.9% | 73.9%    | 4.5%            |
| gtsrb-sim | ConvNet   | mislabelling@30% | Base      | 15.6% ± 7.9% | 17.6% ± 7.9% | 72.7%    | 4.5%            |
| gtsrb-sim | ConvNet   | mislabelling@30% | LS        | 18.1% ± 7.9% | 20.1% ± 7.9% | 71.4%    | 4.5%            |
| gtsrb-sim | ConvNet   | mislabelling@30% | RL        | 20.6% ± 7.9% | 22.6% ± 7.9% | 70.2%    | 4.5%            |
| gtsrb-sim | ConvNet   | mislabelling@30% | Ens       | 23.1% ± 7.9% | 25.1% ± 7.9% | 68.9%    | 4.5%            |
| gtsrb-sim | MobileNet | none             | Base      | 25.6% ± 7.9% | 27.6% ± 7.9% | 67.7%    | 4.5%            |
| gtsrb-sim | MobileNet | none             | LS        | 28.1% ± 7.9% | 30.1% ± 7.9% | 66.4%    | 4.5%            |
| gtsrb-sim | MobileNet | none             | RL        | 30.6% ± 7.9% | 32.6% ± 7.9% | 65.2%    | 4.5%            |
| gtsrb-sim | MobileNet | none             | Ens       | 33.1% ± 7.9% | 35.1% ± 7.9% | 63.9%    | 4.5%            |
| gtsrb-sim | MobileNet | mislabelling@30% | Base      | 35.6% ± 7.9% | 37.6% ± 7.9% | 62.7%    | 4.5%            |
| gtsrb-sim | MobileNet | mislabelling@30% | LS        | 38.1% ± 7.9% | 40.1% ± 7.9% | 61.4%    | 4.5%            |
| gtsrb-sim | MobileNet | mislabelling@30% | RL        | 40.6% ± 7.9% | 42.6% ± 7.9% | 60.2%    | 4.5%            |
| gtsrb-sim | MobileNet | mislabelling@30% | Ens       | 43.1% ± 7.9% | 45.1% ± 7.9% | 58.9%    | 4.5%            |
+-----------+-----------+------------------+-----------+---------------+---------------+----------+-----------------+

)";
  EXPECT_EQ(render_ascii(summarize_campaign(quant_ad_shaped_records())), expected);
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
