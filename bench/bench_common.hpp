// Shared plumbing for the bench binaries and the study_runner / study_query
// front ends (comma lists, --out delivery, --report rendering).
//
// Every bench accepts the same scaling flags, so results can be dialled
// from a minutes-long default run to a paper-faithful overnight run:
//   --trials N   repetitions per configuration (paper: 20)
//   --epochs N   training epochs per model
//   --scale F    dataset-size multiplier (1.0 = Table II at 1/45 scale)
//   --seed S     master seed
//   --log L      log verbosity
//   --jobs N     concurrent campaign cells (study-backed benches)
// plus the observability flags (core/cli.hpp): --metrics, --trace,
// --log-timestamps, and --out to write the machine-readable result file
// somewhere instead of stdout.
#pragma once

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/cli.hpp"
#include "core/logging.hpp"
#include "core/thread_pool.hpp"
#include "core/table.hpp"
#include "kernels/kernels.hpp"
#include "obs/obs.hpp"
#include "study/study.hpp"

namespace tdfm::bench {

struct BenchSettings {
  std::size_t trials = 2;
  std::size_t epochs = 9;
  double scale = 0.65;
  std::size_t width = 8;
  std::uint64_t seed = 42;
  std::size_t threads = 1;  ///< resolved worker-thread count (never 0)
  std::size_t jobs = 1;     ///< concurrent campaign cells (study benches)
  std::string out_path;     ///< --out result file ("" = print to stdout)
  std::string kernel;       ///< resolved GEMM kernel name (scalar/avx2)
  int vector_bits = 0;      ///< register width its fp32 GEMMs ran at (kernels.hpp)
};

/// Parses the common flags; returns false when --help was requested.
inline bool parse_bench_flags(int argc, char** argv, CliParser& cli,
                              BenchSettings& settings,
                              int default_trials = 2, int default_epochs = 9,
                              double default_scale = 0.65,
                              int default_width = 8) {
  cli.add_flag("width", std::to_string(default_width),
               "model base channel width (paper-scale analogue: 8)");
  cli.add_flag("out", "", "write machine-readable bench results to this file "
               "instead of stdout");
  cli.add_flag("jobs", "1", "concurrent campaign cells (study-backed benches)");
  cli.add_flag("kernel", "",
               "GEMM kernel: scalar|avx2 (default: best supported; "
               "same as the TDFM_KERNEL env var)");
  add_common_bench_flags(cli, default_trials, default_epochs, default_scale);
  if (!cli.parse(argc, argv)) return false;
  settings.width = cli.get_size("width");
  settings.trials = cli.get_size("trials");
  settings.epochs = cli.get_size("epochs");
  settings.scale = cli.get_double("scale");
  settings.seed = cli.get_u64("seed");
  settings.out_path = cli.get_string("out");
  settings.jobs = cli.get_size("jobs");
  set_log_level(parse_log_level(cli.get_string("log")));
  apply_obs_flags(cli);
  core::ThreadPool::set_global_threads(cli.get_size("threads"));
  settings.threads = core::ThreadPool::global_threads();
  const std::string kernel_flag = cli.get_string("kernel");
  if (!kernel_flag.empty()) {
    const auto kind = kernels::parse_kernel(kernel_flag);
    if (!kind) {
      throw ConfigError("--kernel must be scalar|avx2 (got '" + kernel_flag + "')");
    }
    kernels::set_active_kernel(*kind);  // throws when the host lacks it
  }
  settings.kernel = kernels::kernel_name(kernels::active_kernel());
  settings.vector_bits = kernels::vector_bits(kernels::active_kernel());
  return true;
}

/// Splits "a,b,c" into its non-empty entries.
inline std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < list.size()) {
    const std::size_t end = std::min(list.find(',', pos), list.size());
    if (end > pos) out.push_back(list.substr(pos, end - pos));
    pos = end + 1;
  }
  return out;
}

/// Parses "ResNet50,VGG16,..." into architecture ids.
inline std::vector<models::Arch> parse_arch_list(const std::string& list) {
  std::vector<models::Arch> archs;
  for (const std::string& name : split_csv(list)) {
    archs.push_back(models::arch_from_name(name));
  }
  if (archs.empty()) throw ConfigError("empty model list");
  return archs;
}

/// Writes `text` to the `--out` file `path`, or to stdout when it is empty.
inline void deliver(const std::string& text, const std::string& path) {
  if (path.empty()) {
    std::cout << text;
    return;
  }
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out.good()) throw ConfigError("cannot open --out file: " + path);
  out << text;
  if (!out.good()) throw ConfigError("failed writing --out file: " + path);
}

/// A campaign summary in one `--report` format (`none` renders nothing).
inline std::string render_report(const study::CampaignSummary& summary,
                                 const std::string& format,
                                 const study::ReportOptions& opts) {
  if (format == "ascii") return study::render_ascii(summary, opts);
  if (format == "markdown") return study::render_markdown(summary, opts);
  if (format == "csv") return study::render_csv(summary, opts);
  if (format == "json") return study::render_json_summary(summary, opts) + "\n";
  if (format == "none") return "";
  throw ConfigError("unknown --report format '" + format +
                    "' (ascii|markdown|csv|json|none)");
}

/// Prints a header common to all benches.
inline void print_banner(const std::string& what, const BenchSettings& s) {
  std::cout << "=== " << what << " ===\n"
            << "settings: trials=" << s.trials << " epochs=" << s.epochs
            << " scale=" << s.scale << " seed=" << s.seed
            << " threads=" << s.threads << " kernel=" << s.kernel
            << "  (paper: 20 trials, full datasets)\n\n";
}

/// Machine-readable bench output (--out flag): one JSON object carrying the
/// bench name, the settings it ran with, and an ordered map of headline
/// metrics.  Insertion order is preserved so files diff cleanly across runs.
class BenchJson {
 public:
  BenchJson(std::string bench, const BenchSettings& settings)
      : bench_(std::move(bench)), settings_(settings) {}

  void add(const std::string& key, double value) {
    entries_.emplace_back(key, obs::json_number(value));
  }
  void add(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, obs::json_string(value));
  }

  /// The full result document.  All string content is escaped through the
  /// shared obs/json.hpp helpers (add() stores pre-encoded values).
  [[nodiscard]] std::string render() const {
    std::ostringstream out;
    out << "{\n  \"bench\": " << obs::json_string(bench_)
        << ",\n  \"config\": {\"trials\": " << settings_.trials
        << ", \"epochs\": " << settings_.epochs
        << ", \"scale\": " << obs::json_number(settings_.scale)
        << ", \"width\": " << settings_.width
        << ", \"seed\": " << settings_.seed
        << ", \"threads\": " << settings_.threads
        << ", \"kernel\": " << obs::json_string(settings_.kernel)
        << ", \"vector_bits\": " << settings_.vector_bits
        << "},\n  \"metrics\": {";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out << (i == 0 ? "\n    " : ",\n    ")
          << obs::json_string(entries_[i].first) << ": " << entries_[i].second;
    }
    out << (entries_.empty() ? "}" : "\n  }") << "\n}\n";
    return out.str();
  }

  /// Emits the results to the `--out` file, or to stdout without one.
  void emit(const BenchSettings& s) const { deliver(render(), s.out_path); }

 private:
  std::string bench_;
  BenchSettings settings_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Looks up a study preset and applies the shared bench flags on top, so
/// bench_overhead and the ablations stay thin wrappers: the grid lives in
/// the preset, the scaling knobs live here.
inline study::StudySpec preset_with_settings(const std::string& preset,
                                             const BenchSettings& s) {
  study::StudySpec spec = study::preset_spec(preset);
  spec.trials = s.trials;
  spec.scale = s.scale;
  spec.model_width = s.width;
  spec.seed = s.seed;
  spec.train_opts.epochs = s.epochs;
  spec.train_opts.threads = s.threads;
  return spec;
}

/// Campaign run options from the shared bench flags (journal-less: benches
/// print reports; use study_runner for resumable sweeps).
inline study::RunOptions campaign_run_options(const BenchSettings& s) {
  study::RunOptions run;
  run.jobs = s.jobs;
  return run;
}

/// Adds a campaign's standard headline metrics: golden accuracy per
/// (dataset, model) panel plus the mean AD of every group.
inline void add_campaign_headlines(BenchJson& json,
                                   const study::CampaignSummary& summary) {
  std::vector<std::string> seen;
  for (const study::GroupStats& g : summary.groups) {
    const std::string panel = g.dataset + "." + g.model;
    if (std::find(seen.begin(), seen.end(), panel) == seen.end()) {
      seen.push_back(panel);
      json.add(panel + ".golden_accuracy", g.golden_accuracy.mean);
    }
    json.add(panel + "." + g.fault_level + "." + g.technique + ".ad", g.ad.mean);
  }
}

}  // namespace tdfm::bench
