#include "obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <tuple>

#include "core/durable.hpp"
#include "core/error.hpp"
#include "core/logging.hpp"
#include "obs/flat_json.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"

namespace tdfm::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}

namespace {

// Cap per thread (~48 MB of events at 48 B each) so a pathological run
// degrades to dropped events instead of exhausting memory.
constexpr std::size_t kMaxEventsPerThread = std::size_t{1} << 20;

struct ThreadBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
};

struct TraceState {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 0;
  std::string output_path;
  bool atexit_registered = false;
  std::int64_t pid = 0;       ///< 0 = stamp getpid() at write time
  std::string process_label;  ///< "" = no process_name metadata event
};

TraceState& state() {
  static TraceState s;
  return s;
}

std::atomic<std::uint64_t> g_dropped{0};

thread_local std::shared_ptr<ThreadBuffer> t_buffer;
thread_local std::vector<std::string> t_span_stack;

ThreadBuffer& local_buffer() {
  if (!t_buffer) {
    t_buffer = std::make_shared<ThreadBuffer>();
    TraceState& s = state();
    const std::lock_guard<std::mutex> lk(s.mu);
    t_buffer->tid = s.next_tid++;
    s.buffers.push_back(t_buffer);
  }
  return *t_buffer;
}

/// All timestamps are microseconds since this process-wide epoch; pinned no
/// later than the first set_trace_enabled(true) so spans never precede it.
std::chrono::steady_clock::time_point trace_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

void record_event(std::string name, std::int64_t ts_us, std::int64_t dur_us) {
  ThreadBuffer& buf = local_buffer();
  const std::lock_guard<std::mutex> lk(buf.mu);
  if (buf.events.size() >= kMaxEventsPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf.events.push_back(TraceEvent{std::move(name), ts_us, dur_us, buf.tid});
}

/// The Chrome trace document, one event per line — the shape
/// parse_chrome_trace reads back.
std::string render_chrome_trace(const std::vector<ChromeTraceEvent>& events) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ChromeTraceEvent& e = events[i];
    if (i) out << ',';
    out << "\n{\"name\":" << json_string(e.name);
    if (e.ph == "M") {
      out << ",\"ph\":\"M\",\"pid\":" << e.pid << ",\"tid\":" << e.tid
          << ",\"args\":{\"name\":" << json_string(e.arg_name) << "}}";
    } else {
      out << ",\"cat\":\"tdfm\",\"ph\":\"X\",\"pid\":" << e.pid
          << ",\"tid\":" << e.tid << ",\"ts\":" << e.ts_us
          << ",\"dur\":" << e.dur_us << '}';
    }
  }
  out << "\n]}\n";
  return out.str();
}

void write_trace_at_exit() {
  std::string path;
  {
    TraceState& s = state();
    const std::lock_guard<std::mutex> lk(s.mu);
    path = s.output_path;
  }
  if (!path.empty()) write_chrome_trace(path);
}

}  // namespace

void set_trace_enabled(bool on) {
  if (on) trace_epoch();  // pin the epoch before the first span
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

std::string current_span_name() {
  return t_span_stack.empty() ? std::string{} : t_span_stack.back();
}

Span::Span(std::string_view name) : start_(clock::now()) {
  if (trace_enabled()) {
    active_ = true;
    name_.assign(name);
    t_span_stack.push_back(name_);
  }
  if (flight::enabled()) {
    if (name_.empty()) name_.assign(name);  // keep it for the kSpanEnd event
    flight::record(flight::EventKind::kSpanBegin, name);
  }
}

double Span::stop() {
  if (done_) return elapsed_;
  done_ = true;
  const auto end = clock::now();
  elapsed_ = std::chrono::duration<double>(end - start_).count();
  if (flight::enabled()) flight::record(flight::EventKind::kSpanEnd, name_);
  if (active_) {
    if (!t_span_stack.empty()) t_span_stack.pop_back();
    const auto ts = std::chrono::duration_cast<std::chrono::microseconds>(
                        start_ - trace_epoch())
                        .count();
    const auto dur =
        std::chrono::duration_cast<std::chrono::microseconds>(end - start_).count();
    record_event(std::move(name_), std::max<std::int64_t>(ts, 0), dur);
  }
  return elapsed_;
}

Span::~Span() {
  if (!done_) stop();
}

double Span::elapsed_seconds() const {
  if (done_) return elapsed_;
  return std::chrono::duration<double>(clock::now() - start_).count();
}

std::vector<TraceEvent> trace_events_snapshot() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    TraceState& s = state();
    const std::lock_guard<std::mutex> lk(s.mu);
    buffers = s.buffers;
  }
  std::vector<TraceEvent> out;
  for (const auto& buf : buffers) {
    const std::lock_guard<std::mutex> lk(buf->mu);
    out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  return out;
}

void clear_trace_events() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    TraceState& s = state();
    const std::lock_guard<std::mutex> lk(s.mu);
    buffers = s.buffers;
  }
  for (const auto& buf : buffers) {
    const std::lock_guard<std::mutex> lk(buf->mu);
    buf->events.clear();
  }
  g_dropped.store(0, std::memory_order_relaxed);
}

std::uint64_t trace_dropped_events() {
  return g_dropped.load(std::memory_order_relaxed);
}

void set_trace_process(std::int64_t pid, std::string label) {
  TraceState& s = state();
  const std::lock_guard<std::mutex> lk(s.mu);
  s.pid = pid;
  s.process_label = std::move(label);
}

void write_chrome_trace(const std::string& path) {
  std::vector<TraceEvent> events = trace_events_snapshot();
  std::sort(events.begin(), events.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.ts_us != b.ts_us ? a.ts_us < b.ts_us : a.tid < b.tid;
  });
  std::int64_t pid = 0;
  std::string label;
  {
    TraceState& s = state();
    const std::lock_guard<std::mutex> lk(s.mu);
    pid = s.pid;
    label = s.process_label;
  }
  // Real pids qualify events so merged multi-process timelines keep each
  // shard's spans on its own row instead of stacking everything on pid 0.
  if (pid == 0) pid = static_cast<std::int64_t>(::getpid());
  std::vector<ChromeTraceEvent> out;
  out.reserve(events.size() + 1);
  if (!label.empty()) out.push_back({"process_name", "M", pid, 0, 0, 0, label});
  for (TraceEvent& e : events) {
    out.push_back({std::move(e.name), "X", pid, e.tid, e.ts_us, e.dur_us, ""});
  }
  core::write_file_atomic(path, render_chrome_trace(out));
}

TraceParse parse_chrome_trace(std::string_view text) {
  TraceParse out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    start = end + 1;
    // Trim the inter-event comma and surrounding whitespace; only object
    // lines are events (the envelope's "{"...traceEvents":[" / "]}" lines
    // are not, and are skipped by the starts-with-'{' + parse test).
    while (!line.empty() && (line.back() == ',' || line.back() == ' ' ||
                             line.back() == '\r')) {
      line.remove_suffix(1);
    }
    while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
    if (line.empty() || line.front() != '{') continue;
    if (line == "{") continue;  // envelope opener when written unindented
    if (line.back() != '}') {
      // "...traceEvents":[" is the envelope opener; anything else that
      // opens an object without closing it is the torn tail of a killed
      // writer and must be visible in the merge accounting.
      if (line.back() == '[') continue;
      ++out.skipped_lines;
      continue;
    }
    ChromeTraceEvent ev;
    bool saw_name = false;
    try {
      FlatJsonParser parser(line, "trace parse error");
      parser.parse([&](const std::string& key, const FlatValue& v) {
        if (key == "name" && v.is_string()) {
          ev.name = v.str;
          saw_name = true;
        } else if (key == "ph" && v.is_string()) ev.ph = v.str;
        else if (key == "pid") ev.pid = v.as_int<std::int64_t>(key);
        else if (key == "tid") ev.tid = v.as_int<std::int64_t>(key);
        else if (key == "ts") ev.ts_us = v.as_int<std::int64_t>(key);
        else if (key == "dur") ev.dur_us = v.as_int<std::int64_t>(key);
        else if (key == "args.name" && v.is_string()) ev.arg_name = v.str;
      });
    } catch (const ConfigError&) {
      ++out.skipped_lines;  // torn tail of a killed writer, or foreign junk
      continue;
    }
    if (!saw_name) {
      ++out.skipped_lines;
      continue;
    }
    out.events.push_back(std::move(ev));
  }
  return out;
}

TraceMergeResult merge_chrome_traces(const std::vector<std::string>& paths,
                                     const std::string& out_path) {
  TraceMergeResult result;
  std::vector<ChromeTraceEvent> events;
  for (const std::string& path : paths) {
    std::string text;
    try {
      text = core::read_file(path);
    } catch (const ConfigError& e) {
      TDFM_LOG(kWarn) << "trace merge: skipping input: " << e.what();
      ++result.missing;
      continue;
    }
    TraceParse parsed = parse_chrome_trace(text);
    if (parsed.skipped_lines > 0) {
      TDFM_LOG(kWarn) << "trace merge: " << path << ": skipped "
                      << parsed.skipped_lines << " unparseable line(s)";
    }
    result.skipped_lines += parsed.skipped_lines;
    ++result.inputs;
    events.insert(events.end(), std::make_move_iterator(parsed.events.begin()),
                  std::make_move_iterator(parsed.events.end()));
  }
  // Deterministic timeline: metadata rows first (by pid), then spans by
  // (ts, pid, tid, name, dur) — independent of the order inputs were given.
  std::sort(events.begin(), events.end(),
            [](const ChromeTraceEvent& a, const ChromeTraceEvent& b) {
              const int arank = a.ph == "M" ? 0 : 1;
              const int brank = b.ph == "M" ? 0 : 1;
              return std::tie(arank, a.ts_us, a.pid, a.tid, a.name, a.dur_us) <
                     std::tie(brank, b.ts_us, b.pid, b.tid, b.name, b.dur_us);
            });
  result.events = events.size();
  core::write_file_atomic(out_path, render_chrome_trace(events));
  return result;
}

void set_trace_output(const std::string& path) {
  TraceState& s = state();
  const std::lock_guard<std::mutex> lk(s.mu);
  s.output_path = path;
  if (!path.empty() && !s.atexit_registered) {
    s.atexit_registered = true;
    std::atexit(write_trace_at_exit);
  }
}

}  // namespace tdfm::obs
