#include "obs/snapshot.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <tuple>

#include "core/durable.hpp"
#include "core/error.hpp"
#include "core/logging.hpp"
#include "obs/flat_json.hpp"
#include "obs/json.hpp"

namespace tdfm::obs {

namespace {

std::int64_t now_wall_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

MetricsSnapshot collect_snapshot(SnapshotMeta meta) {
  MetricsSnapshot snap;
  if (meta.wall_us == 0) meta.wall_us = now_wall_us();
  snap.meta = std::move(meta);
  snap.samples = Registry::global().scrape();
  return snap;
}

std::string metric_line(const MetricSample& s) {
  std::ostringstream os;
  switch (s.kind) {
    case MetricSample::Kind::kCounter:
      os << "{\"type\":\"counter\",\"name\":" << json_string(s.name)
         << ",\"value\":" << s.count << "}";
      break;
    case MetricSample::Kind::kGauge:
      os << "{\"type\":\"gauge\",\"name\":" << json_string(s.name)
         << ",\"value\":" << json_exact_number(s.value) << "}";
      break;
    case MetricSample::Kind::kHistogram: {
      os << "{\"type\":\"histogram\",\"name\":" << json_string(s.name)
         << ",\"count\":" << s.count << ",\"sum\":" << json_exact_number(s.value)
         << ",\"upper_bounds\":[";
      for (std::size_t i = 0; i < s.upper_bounds.size(); ++i) {
        if (i) os << ',';
        os << json_exact_number(s.upper_bounds[i]);
      }
      os << "],\"bucket_counts\":[";
      for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
        if (i) os << ',';
        os << s.bucket_counts[i];
      }
      os << "]}";
      break;
    }
  }
  return os.str();
}

std::string serialize_snapshot(const MetricsSnapshot& snap) {
  const SnapshotMeta& m = snap.meta;
  std::ostringstream os;
  os << "{\"type\":\"snapshot\",\"schema_version\":" << kSnapshotSchemaVersion
     << ",\"pid\":" << m.pid << ",\"shard_index\":" << m.shard_index
     << ",\"shard_count\":" << m.shard_count << ",\"seq\":" << m.seq
     << ",\"wall_us\":" << m.wall_us << ",\"label\":" << json_string(m.label)
     << ",\"grid_cells\":" << m.grid_cells << ",\"cells_done\":" << m.cells_done
     << ",\"cells_executed\":" << m.cells_executed
     << ",\"cells_stolen\":" << m.cells_stolen
     << ",\"elapsed_seconds\":" << json_exact_number(m.elapsed_seconds) << "}\n";
  for (const MetricSample& s : snap.samples) os << metric_line(s) << '\n';
  return os.str();
}

MetricsSnapshot parse_snapshot(std::string_view text) {
  MetricsSnapshot snap;
  bool saw_header = false;
  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    ++line_no;

    std::string type;
    std::string name;
    MetricSample sample;
    SnapshotMeta meta;
    FlatValue value;  // a counter's count or a gauge's value: type decides
    double schema_version = -1.0;
    FlatJsonParser parser(line, "snapshot parse error");
    parser.parse([&](const std::string& key, const FlatValue& v) {
      const auto size = [&] { return v.as_int<std::size_t>(key); };
      if (key == "type" && v.is_string()) type = v.str;
      else if (key == "name" && v.is_string()) name = v.str;
      else if (key == "schema_version") schema_version = v.num;
      else if (key == "pid") meta.pid = v.as_int<std::int64_t>(key);
      else if (key == "shard_index") meta.shard_index = size();
      else if (key == "shard_count") meta.shard_count = size();
      else if (key == "seq") meta.seq = v.as_int<std::uint64_t>(key);
      else if (key == "wall_us") meta.wall_us = v.as_int<std::int64_t>(key);
      else if (key == "label" && v.is_string()) meta.label = v.str;
      else if (key == "grid_cells") meta.grid_cells = size();
      else if (key == "cells_done") meta.cells_done = size();
      else if (key == "cells_executed") meta.cells_executed = size();
      else if (key == "cells_stolen") meta.cells_stolen = size();
      else if (key == "elapsed_seconds") meta.elapsed_seconds = v.num;
      else if (key == "value") value = v;
      else if (key == "count") sample.count = v.as_int<std::uint64_t>(key);
      else if (key == "sum") sample.value = v.num;
      else if (key == "upper_bounds") sample.upper_bounds = v.array;
      else if (key == "bucket_counts") {
        sample.bucket_counts = v.as_ints<std::uint64_t>(key);
      }
      // Unknown keys: ignored (forward compatibility within a version).
    });

    if (!saw_header) {
      if (type != "snapshot") {
        throw ConfigError("snapshot parse error: first line is not a "
                          "snapshot header (type=\"" + type + "\")");
      }
      if (schema_version != static_cast<double>(kSnapshotSchemaVersion)) {
        throw ConfigError("snapshot parse error: unsupported schema_version " +
                          std::to_string(schema_version) + " (this build reads " +
                          std::to_string(kSnapshotSchemaVersion) + ")");
      }
      snap.meta = std::move(meta);
      saw_header = true;
      continue;
    }
    if (name.empty()) {
      throw ConfigError("snapshot parse error: metric line " +
                        std::to_string(line_no) + " has no name");
    }
    sample.name = std::move(name);
    if (type == "counter") {
      sample.kind = MetricSample::Kind::kCounter;
      sample.count = value.as_int<std::uint64_t>("value");
      sample.value = 0.0;
    } else if (type == "gauge") {
      sample.kind = MetricSample::Kind::kGauge;
      sample.value = value.num;
      sample.count = 0;
    } else if (type == "histogram") {
      sample.kind = MetricSample::Kind::kHistogram;
      if (sample.bucket_counts.size() != sample.upper_bounds.size() + 1) {
        throw ConfigError("snapshot parse error: histogram " + sample.name +
                          " has " + std::to_string(sample.bucket_counts.size()) +
                          " buckets for " + std::to_string(sample.upper_bounds.size()) +
                          " bounds (want bounds+1)");
      }
    } else {
      throw ConfigError("snapshot parse error: unknown metric type \"" + type +
                        "\" on line " + std::to_string(line_no));
    }
    snap.samples.push_back(std::move(sample));
  }
  if (!saw_header) {
    throw ConfigError("snapshot parse error: empty file (no header line)");
  }
  return snap;
}

void write_snapshot_atomic(const std::string& path, const MetricsSnapshot& snap) {
  // A concurrent reader (the --progress driver) sees the whole new snapshot
  // or the whole old one.
  core::write_file_atomic(path, serialize_snapshot(snap));
}

std::string snapshot_path(const std::string& dir, std::int64_t pid) {
  return dir + "/metrics-" + std::to_string(pid) + ".jsonl";
}

std::vector<std::string> list_snapshot_files(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return paths;  // not exported yet
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    const std::string name = entry.path().filename().string();
    if (name.rfind("metrics-", 0) != 0) continue;
    if (name.size() < 6 || name.substr(name.size() - 6) != ".jsonl") continue;
    paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

SnapshotScan read_snapshot_dir(const std::string& dir) {
  SnapshotScan scan;
  for (const std::string& path : list_snapshot_files(dir)) {
    try {
      scan.snapshots.push_back(parse_snapshot(core::read_file(path)));
    } catch (const ConfigError& e) {
      // An unreadable, torn or foreign file costs one scrape interval,
      // never the view.
      TDFM_LOG(kWarn) << "obs: skipping snapshot " << path << ": " << e.what();
      ++scan.skipped;
    }
  }
  return scan;
}

void Aggregator::add(const MetricsSnapshot& snap) {
  for (const MetricSample& s : snap.samples) {
    switch (s.kind) {
      case MetricSample::Kind::kCounter:
        counters_[s.name] += s.count;
        break;
      case MetricSample::Kind::kGauge:
        take_gauge(s.name, GaugeState{s.value, snap.meta.wall_us, snap.meta.pid});
        break;
      case MetricSample::Kind::kHistogram: {
        HistState h;
        h.upper_bounds = s.upper_bounds;
        h.bucket_counts = s.bucket_counts;
        h.sum = s.value;
        h.count = s.count;
        take_histogram(s.name, h);
        break;
      }
    }
  }
  sources_.push_back(snap.meta);
}

void Aggregator::merge(const Aggregator& other) {
  for (const auto& [name, v] : other.counters_) counters_[name] += v;
  for (const auto& [name, g] : other.gauges_) take_gauge(name, g);
  for (const auto& [name, h] : other.hists_) take_histogram(name, h);
  sources_.insert(sources_.end(), other.sources_.begin(), other.sources_.end());
}

void Aggregator::take_gauge(const std::string& name, const GaugeState& incoming) {
  auto [it, inserted] = gauges_.emplace(name, incoming);
  if (inserted) return;
  // Newest snapshot wins; (wall_us, pid, value) is a total order, so the
  // result never depends on which snapshot was added first.
  GaugeState& cur = it->second;
  if (std::tie(incoming.wall_us, incoming.pid, incoming.value) >
      std::tie(cur.wall_us, cur.pid, cur.value)) {
    cur = incoming;
  }
}

void Aggregator::take_histogram(const std::string& name, const HistState& incoming) {
  auto [it, inserted] = hists_.emplace(name, incoming);
  if (inserted) return;
  HistState& cur = it->second;
  if (cur.upper_bounds != incoming.upper_bounds) {
    // Summing across different bucket layouts would silently mis-bin; this
    // is a schema conflict (mixed build versions exporting into one dir).
    throw ConfigError("obs aggregation conflict: histogram " + name +
                      " has mismatched bucket bounds across snapshots");
  }
  for (std::size_t i = 0; i < cur.bucket_counts.size(); ++i) {
    cur.bucket_counts[i] += incoming.bucket_counts[i];
  }
  cur.sum += incoming.sum;
  cur.count += incoming.count;
}

std::vector<MetricSample> Aggregator::samples() const {
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + hists_.size());
  for (const auto& [name, v] : counters_) {
    MetricSample s;
    s.kind = MetricSample::Kind::kCounter;
    s.name = name;
    s.count = v;
    out.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.kind = MetricSample::Kind::kGauge;
    s.name = name;
    s.value = g.value;
    out.push_back(std::move(s));
  }
  for (const auto& [name, h] : hists_) {
    MetricSample s;
    s.kind = MetricSample::Kind::kHistogram;
    s.name = name;
    s.count = h.count;
    s.value = h.sum;
    s.upper_bounds = h.upper_bounds;
    s.bucket_counts = h.bucket_counts;
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<SnapshotMeta> Aggregator::latest_per_shard() const {
  std::map<std::size_t, SnapshotMeta> best;
  for (const SnapshotMeta& m : sources_) {
    auto [it, inserted] = best.emplace(m.shard_index, m);
    if (inserted) continue;
    const SnapshotMeta& cur = it->second;
    if (std::tie(m.wall_us, m.seq, m.pid) >
        std::tie(cur.wall_us, cur.seq, cur.pid)) {
      it->second = m;
    }
  }
  std::vector<SnapshotMeta> out;
  out.reserve(best.size());
  for (auto& [idx, m] : best) out.push_back(std::move(m));
  return out;
}

double histogram_quantile(const std::vector<double>& upper_bounds,
                          const std::vector<std::uint64_t>& bucket_counts,
                          double q) {
  if (bucket_counts.empty()) return 0.0;
  TDFM_CHECK(bucket_counts.size() == upper_bounds.size() + 1,
             "histogram_quantile: want bounds+1 buckets");
  std::uint64_t total = 0;
  for (const std::uint64_t c : bucket_counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < bucket_counts.size(); ++i) {
    const double next = cum + static_cast<double>(bucket_counts[i]);
    if (next < target && i + 1 < bucket_counts.size()) {
      cum = next;
      continue;
    }
    if (i >= upper_bounds.size()) {
      // Mass in the +inf bucket: the best bounded statement is the last
      // finite bound (the estimate saturates, as Prometheus's does).
      return upper_bounds.empty() ? 0.0 : upper_bounds.back();
    }
    const double hi = upper_bounds[i];
    double lo = i == 0 ? std::min(0.0, hi) : upper_bounds[i - 1];
    const double in_bucket = static_cast<double>(bucket_counts[i]);
    if (in_bucket <= 0.0) return hi;
    return lo + (hi - lo) * ((target - cum) / in_bucket);
  }
  return upper_bounds.empty() ? 0.0 : upper_bounds.back();
}

double histogram_quantile(const MetricSample& sample, double q) {
  TDFM_CHECK(sample.kind == MetricSample::Kind::kHistogram,
             "histogram_quantile: sample is not a histogram");
  return histogram_quantile(sample.upper_bounds, sample.bucket_counts, q);
}

}  // namespace tdfm::obs
