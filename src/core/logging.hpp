// Minimal leveled logger.
//
// Experiments run for minutes; progress lines let the operator see which
// configuration is training.  The logger writes to stderr so that bench
// stdout stays machine-parseable (tables/CSV only).
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace tdfm {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global log threshold; messages below it are discarded.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Parses "debug"/"info"/"warn"/"error"/"off"; throws ConfigError otherwise.
[[nodiscard]] LogLevel parse_log_level(std::string_view name);

/// When enabled, every log line carries an ISO-8601 UTC timestamp and a
/// small per-thread id, e.g. "[2026-08-06T12:34:56.789Z T002] [INFO ] ...".
/// Lines stay atomic (composed fully before the single stream write).
/// Exposed on benches/examples as --log-timestamps.
void set_log_timestamps(bool on);

/// A fixed prefix prepended to every log line (after the timestamp, before
/// the level tag), e.g. "[shard 1/3] " so interleaved multi-process stderr
/// stays attributable.  Empty clears it.
void set_log_prefix(std::string prefix);

namespace detail {
void log_line(LogLevel level, std::string_view msg);
}

/// Stream-style log statement: LOG(kInfo) << "epoch " << e;
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { detail::log_line(level_, os_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};

}  // namespace tdfm

#define TDFM_LOG(level) ::tdfm::LogStream(::tdfm::LogLevel::level)
