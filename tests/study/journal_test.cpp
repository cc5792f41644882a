// Journal serialisation, parsing, and crash-safe append-only persistence
// (src/study/journal.hpp).
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "../obs/json_check.hpp"
#include "core/error.hpp"
#include "study/journal.hpp"

namespace tdfm::study {
namespace {

CellRecord sample_record() {
  CellRecord r;
  r.cell = "00deadbeef00cafe";
  r.dataset = "pneumonia-sim";
  r.model = "ConvNet";
  r.fault_level = "mislabelling@30%";
  r.technique = "LS";
  r.trial = 2;
  r.golden_accuracy = 0.75;
  r.faulty_accuracy = 0.5;
  r.ad = 0.25;
  r.reverse_ad = 0.05;
  r.naive_drop = 0.2;
  r.train_seconds = 1.5;
  r.infer_seconds = 0.01;
  r.inference_models = 5.0;
  r.shared_fit = true;
  return r;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "tdfm_journal_" + name + ".jsonl";
}

TEST(Journal, JsonlRoundTripsEveryField) {
  const CellRecord r = sample_record();
  const std::string line = to_jsonl(r);
  EXPECT_TRUE(test::JsonChecker(line).valid()) << line;
  EXPECT_EQ(parse_record(line), r);
}

TEST(Journal, JsonlEscapesStringContent) {
  CellRecord r = sample_record();
  r.technique = "LS \"quoted\"\nnewline\ttab";
  const std::string line = to_jsonl(r);
  EXPECT_TRUE(test::JsonChecker(line).valid()) << line;
  EXPECT_EQ(parse_record(line).technique, r.technique);
}

// Satellite: \u escapes decode to real UTF-8 (one byte per code point was a
// silent mojibake bug), including astral-plane surrogate pairs.
TEST(Journal, UnicodeEscapesDecodeToUtf8) {
  const auto technique_of = [](const std::string& escaped) {
    return parse_record("{\"cell\": \"abc\", \"technique\": \"" + escaped +
                        "\"}")
        .technique;
  };
  EXPECT_EQ(technique_of("caf\\u00e9"), "caf\xC3\xA9");          // U+00E9, 2 bytes
  EXPECT_EQ(technique_of("\\u2713"), "\xE2\x9C\x93");            // U+2713, 3 bytes
  EXPECT_EQ(technique_of("\\ud83d\\ude00"), "\xF0\x9F\x98\x80"); // U+1F600, pair
  EXPECT_EQ(technique_of("\\u0041"), "A");
  // Lone surrogates are not scalar values.
  EXPECT_THROW((void)technique_of("\\ud83d"), ConfigError);
  EXPECT_THROW((void)technique_of("\\ud83dx"), ConfigError);
  EXPECT_THROW((void)technique_of("\\ude00"), ConfigError);
}

// Satellite: raw UTF-8 in a record survives serialise -> parse untouched
// (json_escape passes non-control bytes through).
TEST(Journal, Utf8ContentRoundTrips) {
  CellRecord r = sample_record();
  r.technique = "ens\xC3\xA9mble \xE2\x9C\x93 \xF0\x9F\x98\x80";
  const std::string line = to_jsonl(r);
  EXPECT_TRUE(test::JsonChecker(line).valid()) << line;
  EXPECT_EQ(parse_record(line), r);
}

TEST(Journal, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)parse_record("not json"), ConfigError);
  EXPECT_THROW((void)parse_record("{\"cell\": \"abc\""), ConfigError);
  EXPECT_THROW((void)parse_record("{\"cell\": \"abc\"} trailing"), ConfigError);
  // A record without its cell id is useless for resume: reject it.
  EXPECT_THROW((void)parse_record("{\"trial\": 1}"), ConfigError);
  // Unknown keys are forward-compatible noise.
  EXPECT_EQ(parse_record("{\"cell\": \"abc\", \"future_field\": 1}").cell, "abc");
}

// Satellite: the number scanner implements exactly the RFC 8259 grammar —
// foreign files with lax numbers fail loudly instead of parsing as junk.
TEST(Journal, ParseEnforcesJsonNumberGrammar) {
  const auto ad_of = [](const std::string& number) {
    return parse_record("{\"cell\": \"abc\", \"ad\": " + number + "}").ad;
  };
  EXPECT_DOUBLE_EQ(ad_of("0"), 0.0);
  EXPECT_DOUBLE_EQ(ad_of("-0.5"), -0.5);
  EXPECT_DOUBLE_EQ(ad_of("1e-05"), 1e-05);
  EXPECT_DOUBLE_EQ(ad_of("123.25e+2"), 12325.0);
  EXPECT_DOUBLE_EQ(ad_of("0.001"), 0.001);
  EXPECT_THROW((void)ad_of("+1"), ConfigError);    // leading '+'
  EXPECT_THROW((void)ad_of("1-2"), ConfigError);   // interior sign
  EXPECT_THROW((void)ad_of("1e5e5"), ConfigError); // double exponent
  EXPECT_THROW((void)ad_of(".5"), ConfigError);    // missing integer part
  EXPECT_THROW((void)ad_of("1."), ConfigError);    // missing fraction
  EXPECT_THROW((void)ad_of("01"), ConfigError);    // leading zero
  EXPECT_THROW((void)ad_of("-"), ConfigError);     // lone sign
  EXPECT_THROW((void)ad_of("1e"), ConfigError);    // empty exponent
  EXPECT_THROW((void)ad_of("--1"), ConfigError);
}

TEST(Journal, EqualModuloTimingIgnoresOnlyWallClock) {
  const CellRecord a = sample_record();
  CellRecord b = a;
  b.train_seconds = 99.0;
  b.infer_seconds = 7.0;
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(equal_modulo_timing(a, b));
  b.ad = 0.3;
  EXPECT_FALSE(equal_modulo_timing(a, b));
}

TEST(Journal, AppendPersistsAndLoadRoundTrips) {
  const std::string path = temp_path("persist");
  std::remove(path.c_str());
  {
    Journal journal(path);
    CellRecord r = sample_record();
    journal.append(r);
    r.cell = "1111111111111111";
    r.trial = 3;
    journal.append(r);
  }
  // Append-only persistence never creates a tmp file.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  const auto loaded = Journal::load(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0], sample_record());
  EXPECT_EQ(loaded[1].cell, "1111111111111111");
  std::remove(path.c_str());
}

// Tentpole: append is O(1) — one new line per record, earlier bytes frozen.
// (The old implementation rewrote the whole file per append, which under two
// writer processes meant last-writer-wins data loss.)
TEST(Journal, AppendLeavesEarlierBytesUntouched) {
  const std::string path = temp_path("append_only");
  std::remove(path.c_str());
  Journal journal(path);
  journal.append(sample_record());
  std::string before;
  {
    std::ifstream in(path, std::ios::binary);
    before.assign(std::istreambuf_iterator<char>(in), {});
  }
  CellRecord next = sample_record();
  next.cell = "3333333333333333";
  journal.append(next);
  std::string after;
  {
    std::ifstream in(path, std::ios::binary);
    after.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(after.size(), before.size());
  EXPECT_EQ(after.substr(0, before.size()), before);
  EXPECT_EQ(after.substr(before.size()), to_jsonl(next) + "\n");
  std::remove(path.c_str());
}

TEST(Journal, LoadOfMissingFileIsEmpty) {
  EXPECT_TRUE(Journal::load(temp_path("missing")).empty());
}

// Satellite: only a *missing* journal is a fresh campaign.  A journal that
// exists but cannot be read (here: a directory; for a process without
// permissions: EACCES) must throw — silently treating it as empty would
// recompute and re-journal a finished campaign.
TEST(Journal, LoadThrowsWhenExistingJournalIsUnreadable) {
  const std::string dir = testing::TempDir() + "tdfm_journal_unreadable_dir";
  ::mkdir(dir.c_str(), 0755);
  EXPECT_THROW((void)Journal::load(dir), ConfigError);
  ::rmdir(dir.c_str());
}

// Tentpole: a kill -9 mid-append tears at most the unterminated final line;
// load drops exactly that line and reports the recovery.
TEST(Journal, LoadRecoversTornFinalLine) {
  const std::string path = temp_path("torn");
  CellRecord second = sample_record();
  second.cell = "4444444444444444";
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << to_jsonl(sample_record()) << "\n" << to_jsonl(second) << "\n";
    // The kill -9 signature: a prefix of a record, no terminating newline.
    out << to_jsonl(sample_record()).substr(0, 57);
  }
  bool recovered = false;
  const auto loaded = Journal::load(path, &recovered);
  EXPECT_TRUE(recovered);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0], sample_record());
  EXPECT_EQ(loaded[1], second);
  std::remove(path.c_str());
}

// A final line that parses but is missing its newline is a *complete*
// record (the crash hit between write and nothing): keep it.
TEST(Journal, UnterminatedButCompleteFinalLineIsKept) {
  const std::string path = temp_path("unterminated");
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << to_jsonl(sample_record());  // no trailing '\n'
  }
  bool recovered = true;
  const auto loaded = Journal::load(path, &recovered);
  EXPECT_FALSE(recovered);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0], sample_record());
  std::remove(path.c_str());
}

TEST(Journal, AdoptedRecordsJoinTheSnapshotWithoutRewriting) {
  const std::string path = temp_path("adopt");
  std::remove(path.c_str());
  {
    Journal first(path);
    first.append(sample_record());
  }
  // Resume: records loaded from the file are adopted, not re-persisted.
  Journal journal(path);
  journal.adopt(Journal::load(path));
  CellRecord fresh = sample_record();
  fresh.cell = "2222222222222222";
  journal.append(fresh);
  ASSERT_EQ(journal.records().size(), 2u);
  const auto loaded = Journal::load(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0], sample_record());
  EXPECT_EQ(loaded[1], fresh);
  std::remove(path.c_str());
}

// Tentpole: two journals (stand-ins for two shard *processes*) appending to
// one file interleave whole records, never bytes — flock around each
// write(2).  Run under TSan via -DTDFM_SANITIZE=thread.
TEST(Journal, ConcurrentWritersInterleaveWholeRecords) {
  const std::string path = temp_path("two_writers");
  std::remove(path.c_str());
  constexpr int kPerWriter = 50;
  Journal a(path);
  Journal b(path);
  const auto writer = [&](Journal& j, const std::string& prefix) {
    for (int i = 0; i < kPerWriter; ++i) {
      CellRecord r = sample_record();
      r.cell = prefix + std::to_string(1000 + i);
      r.trial = static_cast<std::size_t>(i);
      j.append(r);
    }
  };
  std::thread ta(writer, std::ref(a), "aaaaaaaaaaaa");
  std::thread tb(writer, std::ref(b), "bbbbbbbbbbbb");
  ta.join();
  tb.join();
  // Every record parses (load throws on any torn or interleaved line), and
  // both writers' full sequences are present.
  const auto loaded = Journal::load(path);
  ASSERT_EQ(loaded.size(), 2u * kPerWriter);
  std::set<std::string> cells;
  for (const CellRecord& r : loaded) cells.insert(r.cell);
  EXPECT_EQ(cells.size(), 2u * kPerWriter);
  std::remove(path.c_str());
}

TEST(Journal, LoadReportsLineNumbersOnCorruption) {
  const std::string path = temp_path("corrupt");
  {
    std::ofstream out(path, std::ios::trunc);
    out << to_jsonl(sample_record()) << "\n" << "garbage\n";
  }
  try {
    (void)Journal::load(path);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  std::remove(path.c_str());
}

// An integer field outside its type's range is a named error, not an
// undefined float-to-integer conversion.
TEST(Journal, OutOfRangeTrialIsANamedLineError) {
  const std::string path = temp_path("trial_range");
  std::string bad = to_jsonl(sample_record());
  const std::string trial = "\"trial\": 2";
  bad.replace(bad.find(trial), trial.size(), "\"trial\": -1");
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << to_jsonl(sample_record()) << "\n" << bad << "\n";
  }
  try {
    (void)Journal::load(path);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2: field 'trial'"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tdfm::study
