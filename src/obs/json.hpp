// Minimal JSON emission helpers shared by the obs exporters (JSONL metrics,
// Chrome trace, bench result files) and the persisted record codecs.
// Emission only — parsing lives in obs/flat_json.hpp.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

namespace tdfm::obs {

/// Escapes a string for use inside a JSON string literal (no quotes added).
[[nodiscard]] inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Renders a double as a JSON number ("null" for non-finite values, which
/// JSON cannot represent).
[[nodiscard]] inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Renders a double with every significant digit ("null" when not finite),
/// so parsing it back yields the same bits: the number format of every
/// persisted record (journal, decision log, store manifest, snapshots).
[[nodiscard]] inline std::string json_exact_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Quoted + escaped JSON string literal.
[[nodiscard]] inline std::string json_string(std::string_view s) {
  return '"' + json_escape(s) + '"';
}

}  // namespace tdfm::obs
