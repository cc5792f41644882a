#include "core/logging.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <mutex>

#include "core/error.hpp"

namespace tdfm {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};
std::atomic<bool> g_timestamps{false};

/// Worker-identity prefix (set_log_prefix).  Guarded by a mutex: set once at
/// startup, read per line — contention-free in practice.
std::mutex g_prefix_mu;
std::string g_prefix;  // NOLINT(runtime/string) — process lifetime

/// Dense per-thread label assigned on first log from that thread.
std::uint32_t thread_label() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

/// "2026-08-06T12:34:56.789Z T002 " — UTC wall clock plus thread id.
std::string timestamp_prefix() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ T%03u",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms), thread_label());
  return buf;
}

constexpr std::string_view level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?????";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }
LogLevel log_level() { return g_level.load(); }

void set_log_timestamps(bool on) { g_timestamps.store(on); }

void set_log_prefix(std::string prefix) {
  const std::lock_guard<std::mutex> lk(g_prefix_mu);
  g_prefix = std::move(prefix);
}

LogLevel parse_log_level(std::string_view name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  throw ConfigError("unknown log level: " + std::string(name));
}

namespace detail {
void log_line(LogLevel level, std::string_view msg) {
  if (level < g_level.load() || msg.empty()) return;
  // Compose the full line first so concurrent log statements (parallel
  // ensemble members) cannot interleave mid-line.
  std::string line;
  line.reserve(msg.size() + 42);
  if (g_timestamps.load()) {
    line += '[';
    line += timestamp_prefix();
    line += "] ";
  }
  {
    const std::lock_guard<std::mutex> lk(g_prefix_mu);
    line += g_prefix;
  }
  line += '[';
  line += level_tag(level);
  line += "] ";
  line += msg;
  line += '\n';
  std::cerr << line;
}
}  // namespace detail

}  // namespace tdfm
