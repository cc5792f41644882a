#include "obs/telemetry.hpp"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>

#include "core/error.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"

namespace tdfm::obs {

namespace {

struct SinkState {
  std::mutex mu;
  std::ofstream out;
  bool open = false;
  EpochObserver observer;
  bool atexit_registered = false;
};

SinkState& sink() {
  static SinkState s;
  return s;
}

// Cheap hot-path guard; kept in sync with sink state under its mutex.
std::atomic<bool> g_active{false};

void write_line_locked(SinkState& s, const std::string& line) {
  if (!s.open) return;
  s.out << line << '\n';
  s.out.flush();  // JSONL stays valid even if the run dies mid-way
}

void flush_at_exit() {
  flush_metrics();
  SinkState& s = sink();
  const std::lock_guard<std::mutex> lk(s.mu);
  if (s.open) {
    s.out.close();
    s.open = false;
  }
}

}  // namespace

bool telemetry_enabled() { return g_active.load(std::memory_order_relaxed); }

void set_epoch_observer(EpochObserver observer) {
  SinkState& s = sink();
  const std::lock_guard<std::mutex> lk(s.mu);
  s.observer = std::move(observer);
  g_active.store(s.open || static_cast<bool>(s.observer), std::memory_order_relaxed);
}

void set_metrics_output(const std::string& path) {
  SinkState& s = sink();
  const std::lock_guard<std::mutex> lk(s.mu);
  if (s.open) {
    s.out.close();
    s.open = false;
  }
  if (!path.empty()) {
    s.out.open(path, std::ios::trunc);
    TDFM_CHECK(s.out.good(), "cannot open metrics output file");
    s.open = true;
    set_metrics_enabled(true);
    if (!s.atexit_registered) {
      s.atexit_registered = true;
      // Construct the registry before registering the handler so it is
      // destroyed after flush_at_exit runs.
      (void)Registry::global();
      std::atexit(flush_at_exit);
    }
  }
  g_active.store(s.open || static_cast<bool>(s.observer), std::memory_order_relaxed);
}

void emit_epoch(const EpochRecord& r) {
  if (!telemetry_enabled()) return;
  SinkState& s = sink();
  const std::lock_guard<std::mutex> lk(s.mu);
  if (s.observer) s.observer(r);
  if (!s.open) return;
  std::string line = "{\"type\":\"epoch\",\"net\":" + json_string(r.net);
  line += ",\"epoch\":" + std::to_string(r.epoch);
  line += ",\"epochs\":" + std::to_string(r.epochs);
  line += ",\"loss\":" + json_number(r.loss);
  line += ",\"lr\":" + json_number(r.lr);
  line += ",\"wall_s\":" + json_number(r.wall_seconds);
  line += ",\"total_s\":" + json_number(r.total_seconds);
  line += ",\"samples_per_s\":" + json_number(r.samples_per_second);
  line += "}";
  write_line_locked(s, line);
}

void emit_cell(const CellRecord& r) {
  if (!telemetry_enabled()) return;
  SinkState& s = sink();
  const std::lock_guard<std::mutex> lk(s.mu);
  if (!s.open) return;
  std::string line = "{\"type\":\"cell\",\"model\":" + json_string(r.model);
  line += ",\"fault_level\":" + json_string(r.fault_level);
  line += ",\"technique\":" + json_string(r.technique);
  line += ",\"trial\":" + std::to_string(r.trial);
  line += ",\"train_s\":" + json_number(r.train_seconds);
  line += ",\"infer_s\":" + json_number(r.infer_seconds);
  line += ",\"accuracy\":" + json_number(r.accuracy);
  line += ",\"ad\":" + json_number(r.ad);
  line += "}";
  write_line_locked(s, line);
}

void flush_metrics() {
  // Scrape outside the sink lock (the registry has its own mutex).
  const std::vector<MetricSample> samples = Registry::global().scrape();
  SinkState& s = sink();
  const std::lock_guard<std::mutex> lk(s.mu);
  if (!s.open) return;
  for (const MetricSample& m : samples) write_line_locked(s, metric_line(m));
}

}  // namespace tdfm::obs
