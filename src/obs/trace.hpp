// RAII trace spans serialized to Chrome trace_event JSON.
//
// A Span times an interval on one thread.  When tracing is enabled it also
// records a complete ('X') trace event into a per-thread buffer; the merged
// buffers serialize to a JSON file loadable in Perfetto / chrome://tracing.
// Spans nest: each thread keeps a span stack, and ThreadPool::for_range
// reads current_span_name() to attribute its worker-side chunks to the span
// that issued the parallel region.
//
// Recording never feeds back into the observed computation — the only
// shared state is the per-thread event buffer (own mutex, uncontended) —
// so threaded training stays bit-identical with tracing on
// (tests/nn/threading_determinism_test.cpp).  When tracing is disabled a
// Span is just a stopwatch: one relaxed load, no allocation, no buffer
// traffic, which is what lets experiment code use Span unconditionally for
// its wall-clock measurements.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tdfm::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}

/// Master switch for trace recording.  Off by default.
void set_trace_enabled(bool on);
[[nodiscard]] inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// One complete span: [ts_us, ts_us + dur_us] on thread `tid` (thread ids
/// are small integers assigned in buffer-registration order).
struct TraceEvent {
  std::string name;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::uint32_t tid = 0;
};

/// Innermost active span name on the calling thread ("" when none).
[[nodiscard]] std::string current_span_name();

/// RAII timed interval; records a trace event when tracing was enabled at
/// construction.  Also the repo's general "time this and use the number"
/// utility — stop() returns elapsed seconds, replacing ad-hoc Stopwatch
/// pairs around measured sections.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent): records the trace event if active and
  /// returns the elapsed seconds.
  double stop();

  /// Seconds since construction (or the frozen value after stop()).
  [[nodiscard]] double elapsed_seconds() const;

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
  double elapsed_ = 0.0;
  bool active_ = false;
  bool done_ = false;
  std::string name_;
};

/// Identifies this process in emitted traces.  Events carry the real OS pid
/// by default; a label (e.g. "shard 1/3") becomes a `process_name` metadata
/// event so merged multi-process timelines name their rows.  Call before
/// write_chrome_trace; pid 0 means "use getpid()".
void set_trace_process(std::int64_t pid, std::string label);

/// One event parsed back out of a Chrome trace file ('X' spans and 'M'
/// process metadata — the two kinds this repo emits).
struct ChromeTraceEvent {
  std::string name;
  std::string ph = "X";
  std::int64_t pid = 0;
  std::int64_t tid = 0;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::string arg_name;  ///< metadata payload (args.name)
};

/// Parses a Chrome trace file previously written by write_chrome_trace (one
/// event per line).  Unparseable lines — e.g. the torn tail of a worker
/// killed mid-write — are skipped and counted, not fatal: a merged timeline
/// with one truncated shard beats no timeline.
struct TraceParse {
  std::vector<ChromeTraceEvent> events;
  std::size_t skipped_lines = 0;
};
[[nodiscard]] TraceParse parse_chrome_trace(std::string_view text);

/// Fuses per-process trace files into one timeline: metadata events first
/// (sorted by pid), then spans by (ts, pid, tid, name) — a deterministic
/// order independent of input order.  Missing input files are skipped with
/// a warning (a crashed shard may never have flushed one).  The output is
/// written with core::write_file_atomic.
struct TraceMergeResult {
  std::size_t inputs = 0;         ///< files found and read
  std::size_t missing = 0;        ///< paths that did not exist
  std::size_t events = 0;         ///< events in the merged timeline
  std::size_t skipped_lines = 0;  ///< torn/foreign lines dropped
};
TraceMergeResult merge_chrome_traces(const std::vector<std::string>& paths,
                                     const std::string& out_path);

/// Copy of every recorded event across all threads (test support).
[[nodiscard]] std::vector<TraceEvent> trace_events_snapshot();

/// Discards all recorded events (buffers stay registered).
void clear_trace_events();

/// Events dropped because a per-thread buffer hit its cap.
[[nodiscard]] std::uint64_t trace_dropped_events();

/// Writes the Chrome trace_event JSON ({"traceEvents": [...]}) to `path`
/// with core::write_file_atomic, in merge_chrome_traces' line shapes.
void write_chrome_trace(const std::string& path);

/// Registers `path` to receive write_chrome_trace() at process exit
/// (the --trace CLI flag).  An empty path cancels.
void set_trace_output(const std::string& path);

}  // namespace tdfm::obs
