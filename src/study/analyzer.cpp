#include "study/analyzer.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <sstream>
#include <utility>

#include "core/table.hpp"
#include "faults/fault_injector.hpp"
#include "obs/json.hpp"

namespace tdfm::study {

namespace {

/// Appends `value` if absent, preserving first-seen order.
void note_axis(std::vector<std::string>& axis, const std::string& value) {
  if (std::find(axis.begin(), axis.end(), value) == axis.end()) {
    axis.push_back(value);
  }
}

std::size_t index_of(const std::vector<std::string>& axis,
                     const std::string& value) {
  return static_cast<std::size_t>(
      std::find(axis.begin(), axis.end(), value) - axis.begin());
}

GroupStats fold_group(const std::vector<const CellRecord*>& records) {
  GroupStats g;
  const CellRecord& first = *records.front();
  g.dataset = first.dataset;
  g.model = first.model;
  g.fault_level = first.fault_level;
  g.technique = first.technique;
  g.trials = records.size();
  std::vector<double> ad, rad, drop, acc, gold, train, infer;
  for (const CellRecord* r : records) {
    ad.push_back(r->ad);
    rad.push_back(r->reverse_ad);
    drop.push_back(r->naive_drop);
    acc.push_back(r->faulty_accuracy);
    gold.push_back(r->golden_accuracy);
    train.push_back(r->train_seconds);
    infer.push_back(r->infer_seconds);
  }
  g.ad = summarize(ad);
  g.reverse_ad = summarize(rad);
  g.naive_drop = summarize(drop);
  g.faulty_accuracy = summarize(acc);
  g.golden_accuracy = summarize(gold);
  g.train_seconds = summarize(train);
  g.infer_seconds = summarize(infer);
  g.inference_models = first.inference_models;
  if (first.quantized) {
    g.quantized = true;
    std::vector<double> qacc, qad, qfp;
    for (const CellRecord* r : records) {
      qacc.push_back(r->quantized_accuracy);
      qad.push_back(r->quantized_ad);
      qfp.push_back(r->quantized_vs_fp32_ad);
    }
    g.quantized_accuracy = summarize(qacc);
    g.quantized_ad = summarize(qad);
    g.quantized_vs_fp32_ad = summarize(qfp);
  }
  return g;
}

/// The single level a combined one behaves like (§IV-C): its mislabelling
/// part, else its repetition part; "" for a single level or neither part.
std::string dominant_single_level(const std::string& level) {
  if (level.find('+') == std::string::npos) return "";
  for (const faults::FaultType type :
       {faults::FaultType::kMislabelling, faults::FaultType::kRepetition}) {
    const std::string prefix = std::string(faults::fault_name(type)) + "@";
    std::size_t pos = 0;
    while (pos < level.size()) {
      const std::size_t end = std::min(level.find('+', pos), level.size());
      if (level.compare(pos, prefix.size(), prefix) == 0) {
        return level.substr(pos, end - pos);
      }
      pos = end + 1;
    }
  }
  return "";
}

std::vector<double> ads_of(const std::vector<const CellRecord*>& records) {
  std::vector<double> ads;
  for (const CellRecord* r : records) ads.push_back(r->ad);
  return ads;
}

}  // namespace

CampaignSummary summarize_campaign(std::span<const CellRecord> records) {
  CampaignSummary s;
  s.total_records = records.size();
  for (const CellRecord& r : records) {
    note_axis(s.datasets, r.dataset);
    note_axis(s.models, r.model);
    note_axis(s.fault_levels, r.fault_level);
    note_axis(s.techniques, r.technique);
  }

  // Group in nested-axis order so the output order is axis-driven, not
  // record-order-driven.
  std::map<std::array<std::size_t, 4>, std::vector<const CellRecord*>> groups;
  for (const CellRecord& r : records) {
    groups[{index_of(s.datasets, r.dataset), index_of(s.models, r.model),
            index_of(s.fault_levels, r.fault_level),
            index_of(s.techniques, r.technique)}]
        .push_back(&r);
  }
  s.groups.reserve(groups.size());
  for (const auto& [key, members] : groups) s.groups.push_back(fold_group(members));

  for (const auto& [key, members] : groups) {
    const std::string single = dominant_single_level(s.fault_levels[key[2]]);
    const auto other =
        groups.find({key[0], key[1], index_of(s.fault_levels, single), key[3]});
    if (single.empty() || other == groups.end()) continue;
    const std::vector<double> combined_ads = ads_of(members);
    const std::vector<double> single_ads = ads_of(other->second);
    s.fault_comparisons.push_back(
        {s.datasets[key[0]], s.models[key[1]], s.techniques[key[3]],
         s.fault_levels[key[2]], single, mean_of(combined_ads),
         mean_of(single_ads), welch_t_test(combined_ads, single_ads)});
  }

  // Technique roll-up: contexts are (dataset, model, fault level) rows; a
  // row enters the ranking only when it scored every technique, so ranks
  // stay comparable (Table IV's "-" cells simply drop their contexts).
  std::map<std::array<std::size_t, 3>, std::vector<double>> context_rows;
  for (const GroupStats& g : s.groups) {
    const std::array<std::size_t, 3> ctx = {index_of(s.datasets, g.dataset),
                                            index_of(s.models, g.model),
                                            index_of(s.fault_levels, g.fault_level)};
    auto& row = context_rows[ctx];
    row.resize(s.techniques.size(), 0.0);
    row[index_of(s.techniques, g.technique)] = g.ad.mean;
  }
  std::map<std::array<std::size_t, 3>, std::size_t> context_counts;
  for (const GroupStats& g : s.groups) {
    ++context_counts[{index_of(s.datasets, g.dataset),
                      index_of(s.models, g.model),
                      index_of(s.fault_levels, g.fault_level)}];
  }
  std::vector<std::vector<double>> complete_rows;
  for (const auto& [ctx, row] : context_rows) {
    if (context_counts[ctx] == s.techniques.size()) complete_rows.push_back(row);
  }
  const std::vector<double> ranks = rank_techniques(complete_rows);

  std::vector<std::vector<double>> per_technique_ads(s.techniques.size());
  for (const CellRecord& r : records) {
    per_technique_ads[index_of(s.techniques, r.technique)].push_back(r.ad);
  }
  for (std::size_t t = 0; t < s.techniques.size(); ++t) {
    TechniqueSummary ts;
    ts.technique = s.techniques[t];
    ts.mean_ad = mean_of(per_technique_ads[t]);
    ts.median_ad = median_of(per_technique_ads[t]);
    ts.mean_rank = ranks.empty() ? 0.0 : ranks[t];
    ts.contexts = complete_rows.size();
    s.technique_summaries.push_back(std::move(ts));
  }
  std::stable_sort(s.technique_summaries.begin(), s.technique_summaries.end(),
                   [](const TechniqueSummary& a, const TechniqueSummary& b) {
                     return a.mean_rank < b.mean_rank;
                   });
  return s;
}

namespace {

const GroupStats* find_group(const CampaignSummary& s, const std::string& dataset,
                             const std::string& model, const std::string& level,
                             const std::string& technique) {
  const auto it = std::find_if(
      s.groups.begin(), s.groups.end(), [&](const GroupStats& g) {
        return g.dataset == dataset && g.model == model &&
               g.fault_level == level && g.technique == technique;
      });
  return it == s.groups.end() ? nullptr : &*it;
}

/// Shared table assembly for the ascii and markdown renderers; `markdown`
/// only switches the AsciiTable output mode.
std::string render_tables(const CampaignSummary& s, const ReportOptions& opts,
                          bool markdown) {
  std::ostringstream os;
  const auto emit = [&](const AsciiTable& t) {
    os << (markdown ? t.render_markdown() : t.render()) << "\n";
  };

  // One AD panel per (dataset, model) — rows = fault levels, columns =
  // techniques, cells = "mean% ± ci%" (Figs. 3/4 layout).
  for (const std::string& dataset : s.datasets) {
    for (const std::string& model : s.models) {
      std::vector<std::string> header = {"fault level"};
      header.insert(header.end(), s.techniques.begin(), s.techniques.end());
      AsciiTable table(header);
      double golden = 0.0;
      bool any = false;
      for (const std::string& level : s.fault_levels) {
        std::vector<std::string> row = {level};
        bool row_any = false;
        for (const std::string& technique : s.techniques) {
          const GroupStats* g = find_group(s, dataset, model, level, technique);
          if (g == nullptr) {
            row.push_back("-");
          } else {
            row.push_back(percent_with_ci(g->ad.mean, g->ad.ci95_half_width));
            golden = g->golden_accuracy.mean;
            row_any = true;
          }
        }
        if (row_any) {
          table.add_row(std::move(row));
          any = true;
        }
      }
      if (!any) continue;
      os << "## AD: " << dataset << " / " << model
         << "  (golden accuracy " << percent(golden) << ")\n";
      emit(table);
    }
  }

  // Cross-context technique roll-up (Observations 1-3).
  {
    AsciiTable table({"technique", "mean rank", "mean AD", "median AD",
                      "contexts"});
    for (const TechniqueSummary& t : s.technique_summaries) {
      table.add_row({t.technique, fixed(t.mean_rank, 2), percent(t.mean_ad),
                     percent(t.median_ad), std::to_string(t.contexts)});
    }
    os << "## Technique mean ranks (lower is better)\n";
    emit(table);
  }

  if (!s.fault_comparisons.empty()) {
    AsciiTable table({"dataset", "model", "technique", "combined", "single",
                      "t", "dof", "at 5%"});
    for (const FaultComparison& c : s.fault_comparisons) {
      table.add_row({c.dataset, c.model, c.technique, c.combined, c.single,
                     fixed(c.welch.t, 2), fixed(c.welch.dof, 1),
                     c.welch.significant_at_05 ? "DIFFERENT" : "similar"});
    }
    os << "## Combined vs dominant single fault (Welch t-test on per-trial "
          "AD)\n";
    emit(table);
  }

  // Table IV layout for a clean-only grid: rows (model, dataset), Base =
  // golden accuracy, every other column the technique's accuracy.
  if (s.fault_levels == std::vector<std::string>{"none"}) {
    std::vector<std::string> header = {"model", "dataset"};
    header.insert(header.end(), s.techniques.begin(), s.techniques.end());
    AsciiTable table(header);
    for (const std::string& dataset : s.datasets) {
      for (const std::string& model : s.models) {
        std::vector<std::string> row = {model, dataset};
        bool any = false;
        for (const std::string& technique : s.techniques) {
          const GroupStats* g = find_group(s, dataset, model, "none", technique);
          if (g == nullptr) {
            row.push_back("-");
            continue;
          }
          any = true;
          row.push_back(percent(technique == "Base" ? g->golden_accuracy.mean
                                                    : g->faulty_accuracy.mean,
                                0));
        }
        if (any) table.add_row(std::move(row));
      }
    }
    os << "## Table IV: accuracy without fault injection (Base = golden)\n";
    emit(table);
  }

  // int8-vs-fp32 panel (quant-ad preset): fp32 AD next to int8 AD (both vs
  // the fp32 golden) plus the direct int8-vs-fp32 prediction delta, so the
  // quantization cost is readable per mitigation technique.
  const bool any_quantized = std::any_of(
      s.groups.begin(), s.groups.end(),
      [](const GroupStats& g) { return g.quantized; });
  if (any_quantized) {
    AsciiTable table({"dataset", "model", "fault level", "technique",
                      "fp32 AD", "int8 AD", "int8 acc", "int8 vs fp32 AD"});
    for (const GroupStats& g : s.groups) {
      if (!g.quantized) continue;
      table.add_row(
          {g.dataset, g.model, g.fault_level, g.technique,
           percent_with_ci(g.ad.mean, g.ad.ci95_half_width),
           percent_with_ci(g.quantized_ad.mean, g.quantized_ad.ci95_half_width),
           percent(g.quantized_accuracy.mean),
           percent(g.quantized_vs_fp32_ad.mean)});
    }
    os << "## Quantization: int8 vs fp32\n";
    emit(table);
  }

  if (opts.include_timings) {
    AsciiTable table({"dataset", "model", "fault level", "technique",
                      "train s", "infer ms", "models"});
    for (const GroupStats& g : s.groups) {
      table.add_row({g.dataset, g.model, g.fault_level, g.technique,
                     fixed(g.train_seconds.mean, 2),
                     fixed(g.infer_seconds.mean * 1e3, 1),
                     fixed(g.inference_models, 0)});
    }
    os << "## Overhead (wall-clock; varies run to run)\n";
    emit(table);
  }
  return os.str();
}

}  // namespace

std::string render_ascii(const CampaignSummary& summary,
                         const ReportOptions& options) {
  return render_tables(summary, options, /*markdown=*/false);
}

std::string render_markdown(const CampaignSummary& summary,
                            const ReportOptions& options) {
  return render_tables(summary, options, /*markdown=*/true);
}

std::string render_csv(const CampaignSummary& summary,
                       const ReportOptions& options) {
  std::ostringstream os;
  // Quantization columns appear only when some group measured int8, so the
  // csv shape of fp32-only campaigns is unchanged.
  const bool any_quantized = std::any_of(
      summary.groups.begin(), summary.groups.end(),
      [](const GroupStats& g) { return g.quantized; });
  os << "dataset,model,fault_level,technique,trials,mean_ad,ad_ci95,"
        "mean_accuracy,golden_accuracy,mean_reverse_ad,mean_naive_drop,"
        "inference_models";
  if (any_quantized) {
    os << ",quantized_accuracy,quantized_ad,quantized_vs_fp32_ad";
  }
  if (options.include_timings) os << ",train_seconds,infer_seconds";
  os << "\n";
  for (const GroupStats& g : summary.groups) {
    os << g.dataset << ',' << g.model << ',' << g.fault_level << ','
       << g.technique << ',' << g.trials << ',' << fixed(g.ad.mean, 6) << ','
       << fixed(g.ad.ci95_half_width, 6) << ','
       << fixed(g.faulty_accuracy.mean, 6) << ','
       << fixed(g.golden_accuracy.mean, 6) << ','
       << fixed(g.reverse_ad.mean, 6) << ',' << fixed(g.naive_drop.mean, 6)
       << ',' << fixed(g.inference_models, 2);
    if (any_quantized) {
      os << ',' << fixed(g.quantized_accuracy.mean, 6) << ','
         << fixed(g.quantized_ad.mean, 6) << ','
         << fixed(g.quantized_vs_fp32_ad.mean, 6);
    }
    if (options.include_timings) {
      os << ',' << fixed(g.train_seconds.mean, 6) << ','
         << fixed(g.infer_seconds.mean, 6);
    }
    os << "\n";
  }
  return os.str();
}

std::string render_json_summary(const CampaignSummary& summary,
                                const ReportOptions& options) {
  using obs::json_number;
  using obs::json_string;
  std::ostringstream os;
  const auto string_array = [](const std::vector<std::string>& xs) {
    std::string out = "[";
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i) out += ", ";
      out += obs::json_string(xs[i]);
    }
    return out + "]";
  };
  os << "{\"schema\": \"tdfm-study-summary-v1\""
     << ", \"records\": " << summary.total_records
     << ", \"datasets\": " << string_array(summary.datasets)
     << ", \"models\": " << string_array(summary.models)
     << ", \"fault_levels\": " << string_array(summary.fault_levels)
     << ", \"techniques\": " << string_array(summary.techniques)
     << ", \"groups\": [";
  for (std::size_t i = 0; i < summary.groups.size(); ++i) {
    const GroupStats& g = summary.groups[i];
    if (i) os << ", ";
    os << "{\"dataset\": " << json_string(g.dataset)
       << ", \"model\": " << json_string(g.model)
       << ", \"fault_level\": " << json_string(g.fault_level)
       << ", \"technique\": " << json_string(g.technique)
       << ", \"trials\": " << g.trials
       << ", \"mean_ad\": " << json_number(g.ad.mean)
       << ", \"ad_ci95\": " << json_number(g.ad.ci95_half_width)
       << ", \"mean_accuracy\": " << json_number(g.faulty_accuracy.mean)
       << ", \"golden_accuracy\": " << json_number(g.golden_accuracy.mean)
       << ", \"mean_reverse_ad\": " << json_number(g.reverse_ad.mean)
       << ", \"mean_naive_drop\": " << json_number(g.naive_drop.mean)
       << ", \"inference_models\": " << json_number(g.inference_models);
    if (g.quantized) {
      os << ", \"quantized_accuracy\": " << json_number(g.quantized_accuracy.mean)
         << ", \"quantized_ad\": " << json_number(g.quantized_ad.mean)
         << ", \"quantized_vs_fp32_ad\": "
         << json_number(g.quantized_vs_fp32_ad.mean);
    }
    if (options.include_timings) {
      os << ", \"train_seconds\": " << json_number(g.train_seconds.mean)
         << ", \"infer_seconds\": " << json_number(g.infer_seconds.mean);
    }
    os << "}";
  }
  os << "], \"technique_ranks\": [";
  for (std::size_t i = 0; i < summary.technique_summaries.size(); ++i) {
    const TechniqueSummary& t = summary.technique_summaries[i];
    if (i) os << ", ";
    os << "{\"technique\": " << json_string(t.technique)
       << ", \"mean_rank\": " << json_number(t.mean_rank)
       << ", \"mean_ad\": " << json_number(t.mean_ad)
       << ", \"median_ad\": " << json_number(t.median_ad)
       << ", \"contexts\": " << t.contexts << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace tdfm::study
