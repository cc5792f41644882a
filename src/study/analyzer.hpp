// Journal analysis: fold per-cell records into the paper's aggregates.
//
// The Analyzer is a pure fold over CellRecords — it never recomputes
// anything, so `--report` on a finished journal is instant and a resumed
// campaign's report is byte-identical to a from-scratch one.  Timing fields
// are excluded from every rendering by default (ReportOptions) precisely to
// keep that byte-identity; pass include_timings for the §IV-E overhead view.
//
// Aggregations mirror the paper:
//   * per-(dataset, model, fault level, technique) mean ± 95% CI over trials
//     — the cells of Figs. 3/4 and Table IV;
//   * per-technique mean rank across contexts (a context = dataset x model x
//     fault level), the statistic behind Observations 1-3 ("ensembles rank
//     best most consistently, ...");
//   * Welch's t-test of each combined fault level against its dominant
//     single level on the per-trial ADs (§IV-C), when the grid holds both.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/statistics.hpp"
#include "study/journal.hpp"

namespace tdfm::study {

/// Aggregate of one (dataset, model, fault level, technique) group.
struct GroupStats {
  std::string dataset;
  std::string model;
  std::string fault_level;
  std::string technique;
  std::size_t trials = 0;
  SampleStats ad;
  SampleStats reverse_ad;
  SampleStats naive_drop;
  SampleStats faulty_accuracy;
  SampleStats golden_accuracy;
  SampleStats train_seconds;
  SampleStats infer_seconds;
  double inference_models = 1.0;
  /// q8_0 measurement (StudySpec::measure_quantized); the quantized stats
  /// below are meaningful only when true.
  bool quantized = false;
  SampleStats quantized_accuracy;
  SampleStats quantized_ad;          ///< int8 vs fp32 golden
  SampleStats quantized_vs_fp32_ad;  ///< int8 vs the same cell's fp32 preds
};

/// Per-technique cross-context roll-up (Observations 1-3).
struct TechniqueSummary {
  std::string technique;
  double mean_ad = 0.0;    ///< mean of all per-record ADs
  double median_ad = 0.0;  ///< median of all per-record ADs
  double mean_rank = 0.0;  ///< mean rank across complete contexts (1 = best)
  std::size_t contexts = 0;  ///< contexts that scored every technique
};

/// One §IV-C comparison: a combined fault level against the single level
/// that dominates it (mislabelling, else repetition), on the per-trial ADs
/// of one (dataset, model, technique).
struct FaultComparison {
  std::string dataset;
  std::string model;
  std::string technique;
  std::string combined;      ///< e.g. "mislabelling@30%+removal@30%"
  std::string single;        ///< e.g. "mislabelling@30%"
  double combined_ad = 0.0;  ///< mean of the combined level's ADs
  double single_ad = 0.0;    ///< mean of the single level's ADs
  WelchResult welch;
};

struct CampaignSummary {
  // Axis value orderings, first-seen in the record stream (expansion order
  // when the records come from run_campaign).
  std::vector<std::string> datasets;
  std::vector<std::string> models;
  std::vector<std::string> fault_levels;
  std::vector<std::string> techniques;
  /// Nested-axis order: dataset > model > fault level > technique; groups
  /// with no records are omitted.
  std::vector<GroupStats> groups;
  /// Sorted best mean rank first (ties keep technique order).
  std::vector<TechniqueSummary> technique_summaries;
  /// Group order of the combined levels; empty unless some combined level
  /// and its dominant single level share a (dataset, model, technique).
  std::vector<FaultComparison> fault_comparisons;
  std::size_t total_records = 0;
};

/// Folds records into the summary.  Order-insensitive modulo the first-seen
/// axis orderings; records from run_campaign arrive in expansion order, so
/// identical grids summarise identically.
[[nodiscard]] CampaignSummary summarize_campaign(
    std::span<const CellRecord> records);

struct ReportOptions {
  /// Include wall-clock columns (train/infer seconds).  Off by default so
  /// reports are byte-identical across resumes, job counts, and reorderings.
  bool include_timings = false;
};

/// Box-drawing tables for the terminal: one AD panel per (dataset, model),
/// the technique roll-up, the panels the records call for (the combined-
/// fault comparisons; Table IV's accuracies when `none` is the only fault
/// level; int8 vs fp32), and (optionally) the overhead table.
[[nodiscard]] std::string render_ascii(const CampaignSummary& summary,
                                       const ReportOptions& options = {});

/// The same content as GitHub-markdown tables (EXPERIMENTS.md material).
[[nodiscard]] std::string render_markdown(const CampaignSummary& summary,
                                          const ReportOptions& options = {});

/// One CSV row per group, for downstream plotting.
[[nodiscard]] std::string render_csv(const CampaignSummary& summary,
                                     const ReportOptions& options = {});

/// Machine-readable summary (schema "tdfm-study-summary-v1").
[[nodiscard]] std::string render_json_summary(const CampaignSummary& summary,
                                              const ReportOptions& options = {});

}  // namespace tdfm::study
