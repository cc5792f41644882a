#include "pipeline/decision_log.hpp"

#include <sstream>

#include "core/error.hpp"
#include "obs/flat_json.hpp"
#include "obs/json.hpp"

namespace tdfm::pipeline {

using obs::json_exact_number;

const char* action_name(Action action) {
  switch (action) {
    case Action::kBootstrap: return "bootstrap";
    case Action::kPromote: return "promote";
    case Action::kHold: return "hold";
    case Action::kRollback: return "rollback";
    case Action::kCorrupt: return "corrupt";
  }
  throw InvariantError("unknown pipeline action");
}

Action action_from_name(std::string_view name) {
  if (name == "bootstrap") return Action::kBootstrap;
  if (name == "promote") return Action::kPromote;
  if (name == "hold") return Action::kHold;
  if (name == "rollback") return Action::kRollback;
  if (name == "corrupt") return Action::kCorrupt;
  throw ConfigError("unknown pipeline action: " + std::string(name));
}

std::string to_jsonl(const Decision& d) {
  std::ostringstream os;
  os << "{\"round\": " << d.round
     << ", \"action\": " << obs::json_string(action_name(d.action))
     << ", \"live_version\": " << d.live_version
     << ", \"candidate_version\": " << d.candidate_version
     << ", \"technique\": " << obs::json_string(d.technique)
     << ", \"window_first_seq\": " << d.window_first_seq
     << ", \"window_last_seq\": " << d.window_last_seq
     << ", \"window_samples\": " << d.window_samples
     << ", \"candidate_accuracy\": " << json_exact_number(d.candidate_accuracy)
     << ", \"live_accuracy\": " << json_exact_number(d.live_accuracy)
     << ", \"candidate_ad\": " << json_exact_number(d.candidate_ad)
     << ", \"reverse_ad\": " << json_exact_number(d.reverse_ad)
     << ", \"ad_threshold\": " << json_exact_number(d.ad_threshold)
     << ", \"rollback_threshold\": " << json_exact_number(d.rollback_threshold)
     << ", \"quantized\": " << (d.quantized ? "true" : "false")
     << ", \"corrupted\": " << (d.corrupted ? "true" : "false")
     << ", \"reason\": " << obs::json_string(d.reason) << "}";
  return os.str();
}

Decision parse_decision(std::string_view line) {
  Decision d;
  bool saw_action = false;
  obs::FlatJsonParser parser(line, "decision log parse error");
  parser.parse([&](const std::string& key, const obs::FlatValue& v) {
    const std::string& s = v.str;
    const double num = v.num;
    const bool is_string = v.is_string();
    const bool is_bool = v.is_bool();
    const auto u64 = [&] { return v.as_int<std::uint64_t>(key); };
    if (key == "action" && is_string) {
      d.action = action_from_name(s);
      saw_action = true;
    } else if (key == "round") d.round = u64();
    else if (key == "live_version") d.live_version = u64();
    else if (key == "candidate_version") d.candidate_version = u64();
    else if (key == "technique" && is_string) d.technique = s;
    else if (key == "window_first_seq") d.window_first_seq = u64();
    else if (key == "window_last_seq") d.window_last_seq = u64();
    else if (key == "window_samples") d.window_samples = u64();
    else if (key == "candidate_accuracy") d.candidate_accuracy = num;
    else if (key == "live_accuracy") d.live_accuracy = num;
    else if (key == "candidate_ad") d.candidate_ad = num;
    else if (key == "reverse_ad") d.reverse_ad = num;
    else if (key == "ad_threshold") d.ad_threshold = num;
    else if (key == "rollback_threshold") d.rollback_threshold = num;
    else if (key == "quantized" && is_bool) d.quantized = num != 0.0;
    else if (key == "corrupted" && is_bool) d.corrupted = num != 0.0;
    else if (key == "reason" && is_string) d.reason = s;
    // Unknown keys: ignored (forward compatibility).
  });
  if (!saw_action) {
    throw ConfigError("decision record is missing its action");
  }
  return d;
}

}  // namespace tdfm::pipeline
