#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "core/error.hpp"
#include "core/thread_pool.hpp"
#include "obs/trace.hpp"
#include "study/spec.hpp"

namespace perfbench {

void Result::add(const std::string& name, double value, const std::string& unit) {
  metrics.emplace_back(name, std::make_pair(value, unit));
}

void Result::fail(const std::string& why) {
  correct = false;
  note("check failed: " + why);
}

namespace {

/// JSON number with all its digits; non-finite values become null (run.py
/// rejects them).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void emit(const Result& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, value] = result.metrics[i];
    out << (i ? ", " : "") << '"' << name << "\": {\"value\": "
        << json_number(value.first) << ", \"unit\": \"" << value.second << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void note(const std::string& text) { std::cerr << "note: " << text << std::endl; }

void note_values(const std::string& label, const std::vector<double>& values) {
  std::ostringstream out;
  out << label;
  for (const double v : values) out << ' ' << v;
  note(out.str());
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double quantile(std::vector<double> xs, double q) {
  TDFM_CHECK(!xs.empty(), "quantile of an empty sample");
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double median_time(std::size_t reps, const std::function<void()>& fn) {
  std::vector<double> times;
  times.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(seconds_since(t0));
  }
  return median(std::move(times));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t host_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

void check_thread_budget(std::size_t threads, const std::string& what) {
  TDFM_CHECK(tdfm::core::ThreadPool::global_threads() == 1,
             "the global thread pool must stay pinned to 1 thread");
  TDFM_CHECK(threads <= host_cpus(),
             what + " runs " + std::to_string(threads) + " threads on a host with " +
                 std::to_string(host_cpus()) + " CPUs");
  note(what + ": " + std::to_string(threads) + " threads of " +
       std::to_string(host_cpus()) + " CPUs, pool pinned to 1");
}

std::string digest(const std::string& text) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(tdfm::study::stable_hash64(text)));
  return buf;
}

std::map<std::string, double> mean_span_ms(
    const std::function<std::string(const std::string&)>& key) {
  std::map<std::string, std::pair<double, std::size_t>> acc;
  for (const tdfm::obs::TraceEvent& e : tdfm::obs::trace_events_snapshot()) {
    const std::string k = key(e.name);
    if (k.empty()) continue;
    auto& [total_us, count] = acc[k];
    total_us += static_cast<double>(e.dur_us);
    ++count;
  }
  std::map<std::string, double> out;
  for (const auto& [k, v] : acc) out[k] = v.first / 1000.0 / static_cast<double>(v.second);
  return out;
}

std::string layer_kind(const std::string& span, const std::string& suffix) {
  if (span.size() <= suffix.size() ||
      span.compare(span.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return "";
  }
  std::string kind = span.substr(0, std::min(span.find('('), span.size() - suffix.size()));
  for (char& c : kind) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return kind;
}

const std::vector<std::string>& layer_kinds() {
  static const std::vector<std::string> kinds = {
      "conv2d", "depthwiseconv2d", "batchnorm2d", "relu",
      "maxpool2d", "globalavgpool", "flatten", "dense"};
  return kinds;
}

}  // namespace perfbench
