// Shared plumbing of the perfbench workloads: options, the result record
// printed as one JSON line, robust summaries, host probes and trace folding.
//
// Every workload runs in its own process (main.cpp dispatches on
// --workload) and reports through a Result.  run.py turns that line into
// the benchmark's output; everything else a workload wants to say goes to
// stderr as `note` lines.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window (end-to-end mode)
  bool trace = false;     ///< per-layer mode instead of end-to-end mode
  bool tiny = false;      ///< seconds-long shapes for the self-tests
  std::string workdir;    ///< scratch directory inside the checkout
};

/// What one workload process measured.  Metrics keep insertion order so the
/// printed line is stable.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void add(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and says why on stderr.
  void fail(const std::string& why);
};

/// Prints `result` as the JSON line run.py parses (stdout, last line).
void emit(const Result& result);

/// Diagnostic line on stderr ("note: ...").
void note(const std::string& text);
/// `label` followed by the values, as a note.
void note_values(const std::string& label, const std::vector<double>& values);

[[nodiscard]] double seconds_since(Clock::time_point t0);
[[nodiscard]] double median(std::vector<double> xs);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> xs, double q);

/// Median wall time of `reps` calls of `fn`, in seconds.
[[nodiscard]] double median_time(std::size_t reps, const std::function<void()>& fn);

/// Peak resident set of this process (getrusage ru_maxrss), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Online CPUs of the host.
[[nodiscard]] std::size_t host_cpus();

/// Throws unless `threads` (every thread the workload runs at once,
/// including the caller) fits in the host's CPUs and the global pool is
/// pinned to one thread.
void check_thread_budget(std::size_t threads, const std::string& what);

/// 16-hex digest of `text` (study::stable_hash64).
[[nodiscard]] std::string digest(const std::string& text);

/// Mean duration in ms of the recorded trace spans, grouped by `key`; spans
/// for which `key` returns "" are skipped.
[[nodiscard]] std::map<std::string, double> mean_span_ms(
    const std::function<std::string(const std::string&)>& key);

/// "Conv2D(3->8, k3 s1 p1):fwd" -> "conv2d" for a span ending in `suffix`,
/// else "".
[[nodiscard]] std::string layer_kind(const std::string& span, const std::string& suffix);

/// The leaf layer kinds the nn.fwd_ms / nn.bwd_ms metrics report.
[[nodiscard]] const std::vector<std::string>& layer_kinds();

}  // namespace perfbench
