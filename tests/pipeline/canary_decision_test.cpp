// Canary judges (promote / hold / rollback with hysteresis) and the
// crash-safe decision log (JSONL round-trip, torn-tail recovery).
#include "pipeline/canary.hpp"
#include "pipeline/decision_log.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/error.hpp"

namespace tdfm::pipeline {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const char* name)
      : path(std::string(::testing::TempDir()) + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

// 10 samples, truth all 0.  Live gets the first 8 right; vectors below
// flip chosen subsets of those to build exact AD values.
const std::vector<int> kTruth{0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
const std::vector<int> kLive{0, 0, 0, 0, 0, 0, 0, 0, 1, 1};  // acc 0.8

CanaryConfig config() {
  CanaryConfig c;
  c.ad_threshold = 0.25;
  c.accuracy_margin = 0.1;
  c.rollback_factor = 2.0;  // rollback at health AD >= 0.5
  return c;
}

TEST(CanaryJudge, PromotesWithinGuardrail) {
  // Candidate flips 1 of live's 8 correct answers: AD = 1/8 = 0.125 <= 0.25,
  // and fixes one of live's errors, so accuracy does not trail.
  const std::vector<int> cand{1, 0, 0, 0, 0, 0, 0, 0, 0, 1};
  const CanaryVerdict v = judge_candidate(kLive, cand, kTruth, config());
  EXPECT_EQ(v.action, Action::kPromote);
  EXPECT_DOUBLE_EQ(v.ad, 0.125);
  EXPECT_DOUBLE_EQ(v.candidate_accuracy, 0.8);
  EXPECT_DOUBLE_EQ(v.live_accuracy, 0.8);
}

TEST(CanaryJudge, HoldsOnAdBreach) {
  // Candidate flips 3 of 8: AD = 0.375 > 0.25 — held even though its raw
  // accuracy matches live (churn on correct traffic is the guarded risk).
  const std::vector<int> cand{1, 1, 1, 0, 0, 0, 0, 0, 0, 0};
  const CanaryVerdict v = judge_candidate(kLive, cand, kTruth, config());
  EXPECT_EQ(v.action, Action::kHold);
  EXPECT_DOUBLE_EQ(v.ad, 0.375);
  EXPECT_NE(v.reason.find("threshold"), std::string::npos);
}

TEST(CanaryJudge, HoldsWhenAccuracyTrailsBeyondMargin) {
  // AD = 2/8 = 0.25 (inside the guardrail) but accuracy 0.6 trails live's
  // 0.8 beyond the 0.1 margin.
  const std::vector<int> cand{1, 1, 0, 0, 0, 0, 0, 0, 1, 1};
  const CanaryVerdict v = judge_candidate(kLive, cand, kTruth, config());
  EXPECT_EQ(v.action, Action::kHold);
  EXPECT_DOUBLE_EQ(v.ad, 0.25);
  EXPECT_DOUBLE_EQ(v.candidate_accuracy, 0.6);
}

TEST(CanaryJudge, NeverReturnsRollback) {
  // Even a catastrophic candidate is held, not rolled back: rollback is
  // reserved for the live model failing its own history.
  const std::vector<int> cand{1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
  EXPECT_EQ(judge_candidate(kLive, cand, kTruth, config()).action,
            Action::kHold);
}

TEST(HealthJudge, HealthyModelMatchingReferenceHolds) {
  const CanaryVerdict v = judge_live_health(kLive, kLive, kTruth, config());
  EXPECT_EQ(v.action, Action::kHold);
  EXPECT_DOUBLE_EQ(v.ad, 0.0);
}

TEST(HealthJudge, HysteresisBandHoldsBetweenThresholds) {
  // Health AD = 3/8 = 0.375: above the promotion threshold (0.25) but below
  // the rollback threshold (0.5).  The hysteresis band prevents a model that
  // barely failed promotion from flapping straight into rollback territory.
  const std::vector<int> live_now{1, 1, 1, 0, 0, 0, 0, 0, 1, 1};
  const CanaryVerdict v = judge_live_health(kLive, live_now, kTruth, config());
  EXPECT_EQ(v.action, Action::kHold);
  EXPECT_DOUBLE_EQ(v.ad, 0.375);
}

TEST(HealthJudge, RollsBackAboveRollbackThreshold) {
  // Health AD = 5/8 = 0.625 >= 0.5.
  const std::vector<int> live_now{1, 1, 1, 1, 1, 0, 0, 0, 1, 1};
  const CanaryVerdict v = judge_live_health(kLive, live_now, kTruth, config());
  EXPECT_EQ(v.action, Action::kRollback);
  EXPECT_DOUBLE_EQ(v.ad, 0.625);
}

TEST(HealthJudge, ZeroThresholdNeverRollsBackPerfectHealth) {
  CanaryConfig zero = config();
  zero.ad_threshold = 0.0;  // rollback threshold also 0
  EXPECT_EQ(judge_live_health(kLive, kLive, kTruth, zero).action,
            Action::kHold);
  // ...but any deviation at all trips it.
  std::vector<int> drift = kLive;
  drift[0] = 1;
  EXPECT_EQ(judge_live_health(kLive, drift, kTruth, zero).action,
            Action::kRollback);
}

TEST(CanaryJudge, RejectsInvalidConfig) {
  CanaryConfig bad = config();
  bad.rollback_factor = 0.5;  // would put rollback below promotion
  EXPECT_THROW((void)judge_candidate(kLive, kLive, kTruth, bad), Error);
  bad = config();
  bad.ad_threshold = 1.5;
  EXPECT_THROW((void)judge_candidate(kLive, kLive, kTruth, bad), Error);
}

Decision sample_decision() {
  Decision d;
  d.round = 7;
  d.action = Action::kPromote;
  d.live_version = 3;
  d.candidate_version = 4;
  d.technique = "LS+meta";
  d.window_first_seq = 640;
  d.window_last_seq = 831;
  d.window_samples = 192;
  d.candidate_accuracy = 1.0 / 3.0;  // awkward doubles on purpose
  d.live_accuracy = 0.1 + 0.2;
  d.candidate_ad = 0.017;
  d.reverse_ad = 1e-9;
  d.ad_threshold = 0.1;
  d.rollback_threshold = 0.15000000000000002;
  d.quantized = true;
  d.corrupted = false;
  d.reason = "ad 0.017 <= threshold 0.1, \"quoted\" and \\ escaped";
  return d;
}

TEST(DecisionLog, JsonRoundTripIsExact) {
  const Decision d = sample_decision();
  const Decision parsed = parse_decision(to_jsonl(d));
  EXPECT_EQ(parsed, d);  // %.17g doubles: bit-exact, not approximately equal
}

TEST(DecisionLog, ParseRejectsGarbageAndMissingAction) {
  EXPECT_THROW((void)parse_decision("not json at all"), Error);
  EXPECT_THROW((void)parse_decision("{\"round\": 1}"), Error);  // no action
  EXPECT_THROW((void)parse_decision("{\"action\": \"warp\"}"), Error);
}

TEST(DecisionLog, AppendThenLoadRestoresDecisions) {
  const TempFile file("decision_log_roundtrip.jsonl");
  Decision a = sample_decision();
  Decision b = sample_decision();
  b.round = 8;
  b.action = Action::kRollback;
  {
    DecisionLog log(file.path);
    log.append(a);
    log.append(b);
    EXPECT_EQ(log.records().size(), 2U);
  }
  bool torn = true;
  const std::vector<Decision> loaded = DecisionLog::load(file.path, &torn);
  EXPECT_FALSE(torn);
  ASSERT_EQ(loaded.size(), 2U);
  EXPECT_EQ(loaded[0], a);
  EXPECT_EQ(loaded[1], b);
}

TEST(DecisionLog, MissingFileLoadsEmpty) {
  bool torn = true;
  EXPECT_TRUE(DecisionLog::load("/nonexistent/dir/decisions.jsonl", &torn)
                  .empty());
  EXPECT_FALSE(torn);
}

TEST(DecisionLog, TornTailIsDroppedWithRecoveryFlag) {
  const TempFile file("decision_log_torn.jsonl");
  {
    DecisionLog log(file.path);
    log.append(sample_decision());
  }
  // Simulate kill -9 mid-append: a record fragment with no terminator.
  {
    std::ofstream out(file.path, std::ios::app);
    out << "{\"round\": 9, \"action\": \"prom";
  }
  bool torn = false;
  const std::vector<Decision> loaded = DecisionLog::load(file.path, &torn);
  EXPECT_TRUE(torn);
  ASSERT_EQ(loaded.size(), 1U);
  EXPECT_EQ(loaded[0], sample_decision());
}

TEST(DecisionLog, TerminatedGarbageThrows) {
  const TempFile file("decision_log_garbage.jsonl");
  {
    DecisionLog log(file.path);
    log.append(sample_decision());
  }
  {
    std::ofstream out(file.path, std::ios::app);
    out << "corrupted but newline-terminated\n";  // not a torn tail
  }
  EXPECT_THROW((void)DecisionLog::load(file.path), Error);
}

TEST(DecisionLog, OutOfRangeRoundIsANamedLineError) {
  const TempFile file("decision_log_range.jsonl");
  {
    DecisionLog log(file.path);
    log.append(sample_decision());
  }
  {
    std::ofstream out(file.path, std::ios::app);
    out << "{\"round\": 1e300, \"action\": \"hold\"}\n";
  }
  try {
    (void)DecisionLog::load(file.path);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2: field 'round'"),
              std::string::npos)
        << e.what();
  }
}

TEST(DecisionLog, ActionNamesRoundTrip) {
  for (const Action a : {Action::kBootstrap, Action::kPromote, Action::kHold,
                         Action::kRollback, Action::kCorrupt}) {
    EXPECT_EQ(action_from_name(action_name(a)), a);
  }
  EXPECT_THROW((void)action_from_name("sideways"), Error);
}

}  // namespace
}  // namespace tdfm::pipeline
