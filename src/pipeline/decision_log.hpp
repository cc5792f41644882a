// Crash-safe JSONL decision log of the online pipeline.
//
// Every control decision the canary controller takes — bootstrap, promote,
// hold, rollback, and the corruption drill — is appended as one flat JSON
// object.  The log is a core::DurableLog, under the same crash contract as
// the study journal (core/durable.hpp); this file keeps the record codec.
//
// Records deliberately contain *no wall-clock fields*: for a pinned seed and
// round schedule the log replays byte-identically across reruns and worker
// counts (the smoke script asserts this with cmp), which is what makes the
// log audit-grade — any byte difference between two runs is a real
// behavioural difference, never timing noise.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/durable.hpp"

namespace tdfm::pipeline {

/// What the controller decided (decision-log `action` field).
enum class Action {
  kBootstrap,  ///< initial version installed without a live model to beat
  kPromote,    ///< candidate passed the AD guardrail; hot-swapped in
  kHold,       ///< candidate failed the guardrail; live version kept
  kRollback,   ///< live health breached; last good version restored
  kCorrupt,    ///< fault drill: corrupted weights installed, bypassing canary
};

[[nodiscard]] const char* action_name(Action action);
[[nodiscard]] Action action_from_name(std::string_view name);

/// One decision.  Accuracy/AD fields measure the canary slice; fields that
/// do not apply to an action (e.g. candidate accuracy of a rollback) stay 0.
struct Decision {
  std::uint64_t round = 0;  ///< stream round the decision was taken in
  Action action = Action::kHold;
  std::uint64_t live_version = 0;       ///< version serving when judged
  std::uint64_t candidate_version = 0;  ///< version installed (0 = none)
  std::string technique;                ///< mitigation technique of the candidate
  std::uint64_t window_first_seq = 0;   ///< training-window provenance
  std::uint64_t window_last_seq = 0;
  std::uint64_t window_samples = 0;
  double candidate_accuracy = 0.0;  ///< canary-slice accuracy of the candidate
  double live_accuracy = 0.0;       ///< canary-slice accuracy of the live model
  double candidate_ad = 0.0;  ///< AD of candidate vs live (live plays golden)
  double reverse_ad = 0.0;
  double ad_threshold = 0.0;        ///< guardrail the decision was taken under
  double rollback_threshold = 0.0;  ///< health AD that forces a rollback
  bool quantized = false;   ///< candidate deployed in q8_0 form
  bool corrupted = false;   ///< candidate had corrupted weights (drill)
  std::string reason;       ///< one-line human-readable justification

  [[nodiscard]] bool operator==(const Decision&) const = default;
};

/// Serialises a decision as one flat JSON line (no trailing newline).
/// Doubles use obs::json_exact_number, so parse(to_jsonl(d)) == d bit for
/// bit.
[[nodiscard]] std::string to_jsonl(const Decision& d);

/// Parses one log line; throws ConfigError on malformed JSON or a record
/// missing its action.  Unknown keys are ignored (forward compatibility).
[[nodiscard]] Decision parse_decision(std::string_view line);

/// The decision log's record format, for core::DurableLog.
struct DecisionCodec {
  static constexpr std::string_view kKind = "decision log";
  static std::string render(const Decision& d) { return to_jsonl(d); }
  static Decision parse(std::string_view line) { return parse_decision(line); }
  static std::string flight_detail(const Decision& d) {
    return "decision r" + std::to_string(d.round) + " " + action_name(d.action);
  }
};

/// Append-only decision log bound to a JSONL file (or in-memory only when
/// constructed with an empty path).
using DecisionLog = core::DurableLog<Decision, DecisionCodec>;

}  // namespace tdfm::pipeline
