// The crash contract of core/durable.hpp, driven through every line-record
// format that uses it: the study journal, the pipeline decision log and the
// store manifest.  Every prefix of a file (a kill -9 at any byte) and every
// inverted byte of an interior line (bit rot) must load to a defined result
// — records or a ConfigError — never another exception type.
#include "core/durable.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "pipeline/decision_log.hpp"
#include "store/store.hpp"
#include "study/journal.hpp"

namespace tdfm::core {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "tdfm_durable_" + name;
}

// --- the primitives ---------------------------------------------------------

TEST(WriteFileAtomic, ReplacesContentAndLeavesNoStagingFile) {
  const std::string path = temp_path("atomic.txt");
  write_file_atomic(path, "first\n");
  write_file_atomic(path, "second\n");
  EXPECT_EQ(read_file(path), "second\n");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(WriteFileAtomic, MissingDirectoryThrows) {
  EXPECT_THROW(write_file_atomic(temp_path("no/such/dir/file"), "x"),
               InvariantError);
}

TEST(ReadFile, MissingPathAndDirectoryThrowConfigError) {
  EXPECT_THROW((void)read_file(temp_path("missing")), ConfigError);
  const std::string dir = temp_path("read_dir");
  ::mkdir(dir.c_str(), 0755);
  EXPECT_THROW((void)read_file(dir), ConfigError);
  ::rmdir(dir.c_str());
}

TEST(OpenRecordFile, MissingIsEmptyButDirectoryThrows) {
  EXPECT_FALSE(open_record_file(temp_path("absent.jsonl"), "log").is_open());
  const std::string dir = temp_path("record_dir");
  ::mkdir(dir.c_str(), 0755);
  try {
    (void)open_record_file(dir, "log");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(dir), std::string::npos) << e.what();
  }
  ::rmdir(dir.c_str());
}

// --- every prefix, every inverted byte ---------------------------------------

/// One line-record format under test: a complete file and a loader that
/// returns how many records the bytes hold.
struct Format {
  std::string bytes;
  std::function<std::size_t(const std::string& bytes, bool* recovered)> load;
  bool needs_first_line = false;  ///< the manifest's header line
};

/// Loads `bytes` through a file on disk, as a resume would.
template <typename Log>
std::size_t load_through_file(const std::string& bytes, bool* recovered) {
  const std::string path = temp_path("fuzz.jsonl");
  std::ofstream(path, std::ios::trunc | std::ios::binary) << bytes;
  const std::size_t n = Log::load(path, recovered).size();
  std::remove(path.c_str());
  return n;
}

study::CellRecord cell(std::size_t i) {
  study::CellRecord r;
  r.cell = std::string(15, '0') + static_cast<char>('a' + i);
  r.dataset = "gtsrb-sim";
  r.model = "ConvNet";
  r.fault_level = "mislabelling@30%";
  r.technique = i == 1 ? "LS \"quoted\"" : "Base";
  r.trial = i + 1;
  r.golden_accuracy = 0.75;
  r.faulty_accuracy = 1.0 / 3.0;
  r.ad = 0.1 + 0.2;
  r.train_seconds = 1.5;
  r.shared_fit = i % 2 == 0;
  return r;
}

Format journal_format() {
  const std::string path = temp_path("journal.jsonl");
  std::remove(path.c_str());
  {
    study::Journal journal(path);
    for (std::size_t i = 0; i < 3; ++i) journal.append(cell(i));
  }
  Format f{read_file(path), &load_through_file<study::Journal>};
  std::remove(path.c_str());
  return f;
}

Format decision_log_format() {
  const std::string path = temp_path("decisions.jsonl");
  std::remove(path.c_str());
  {
    pipeline::DecisionLog log(path);
    for (std::uint64_t i = 0; i < 3; ++i) {
      pipeline::Decision d;
      d.round = i;
      d.action = i == 0 ? pipeline::Action::kBootstrap : pipeline::Action::kPromote;
      d.live_version = i;
      d.candidate_version = i + 1;
      d.technique = "LS";
      d.candidate_accuracy = 1.0 / 7.0;
      d.reason = "round " + std::to_string(i);
      log.append(d);
    }
  }
  Format f{read_file(path), &load_through_file<pipeline::DecisionLog>};
  std::remove(path.c_str());
  return f;
}

Format manifest_format() {
  const std::string dir = temp_path("store");
  fs::remove_all(dir);
  {
    store::StoreWriter writer(dir, {.segment_rows = 2});
    for (std::size_t i = 0; i < 3; ++i) writer.append(cell(i));
    writer.commit();
  }
  Format f;
  f.bytes = read_file(dir + "/" + store::kManifestFile);
  f.load = [](const std::string& bytes, bool* recovered) {
    const store::Manifest m = store::parse_manifest(bytes, recovered);
    std::size_t lines = 1 + m.segments.size() + (m.telemetry_files > 0);
    for (const store::Dictionary& d : m.dicts) lines += d.size();
    return lines;
  };
  f.needs_first_line = true;
  fs::remove_all(dir);
  return f;
}

/// Offsets of every '\n' in `bytes`: line k ends at ends[k].
std::vector<std::size_t> line_ends(const std::string& bytes) {
  std::vector<std::size_t> ends;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] == '\n') ends.push_back(i);
  }
  return ends;
}

void expect_every_prefix_loads(const Format& f) {
  const std::vector<std::size_t> ends = line_ends(f.bytes);
  ASSERT_EQ(ends.back() + 1, f.bytes.size()) << "fixture must end in '\\n'";
  for (std::size_t cut = 0; cut <= f.bytes.size(); ++cut) {
    // A line counts once its content is whole, newline or not; a line cut
    // inside its content is the torn tail.
    std::size_t whole = 0;
    bool torn = false;
    std::size_t start = 0;
    for (const std::size_t end : ends) {
      if (end <= cut) ++whole;
      else if (start < cut) torn = true;
      start = end + 1;
    }
    SCOPED_TRACE("prefix of " + std::to_string(cut) + " bytes");
    bool recovered = !torn;
    try {
      const std::size_t n = f.load(f.bytes.substr(0, cut), &recovered);
      EXPECT_FALSE(f.needs_first_line && whole == 0) << "no header, no error";
      EXPECT_EQ(n, whole);
      EXPECT_EQ(recovered, torn);
    } catch (const ConfigError& e) {
      EXPECT_TRUE(f.needs_first_line && whole == 0) << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-ConfigError escaped: " << e.what();
    }
  }
}

void expect_every_inverted_byte_is_named(const Format& f) {
  const std::vector<std::size_t> ends = line_ends(f.bytes);
  ASSERT_GE(ends.size(), 3U);
  for (std::size_t line = 1; line + 1 < ends.size(); ++line) {  // interior
    for (std::size_t at = ends[line - 1] + 1; at <= ends[line]; ++at) {
      std::string bytes = f.bytes;
      bytes[at] = static_cast<char>(~static_cast<unsigned char>(bytes[at]));
      SCOPED_TRACE("line " + std::to_string(line + 1) + ", byte " +
                   std::to_string(at));
      try {
        (void)f.load(bytes, nullptr);  // a valid parse is a fine outcome
      } catch (const ConfigError& e) {
        const std::string named = "line " + std::to_string(line + 1) + ":";
        EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
            << e.what();
      } catch (const std::exception& e) {
        ADD_FAILURE() << "non-ConfigError escaped: " << e.what();
      }
    }
  }
}

TEST(DurableTruncation, JournalEveryPrefix) {
  expect_every_prefix_loads(journal_format());
}

TEST(DurableTruncation, DecisionLogEveryPrefix) {
  expect_every_prefix_loads(decision_log_format());
}

TEST(DurableTruncation, ManifestEveryPrefix) {
  expect_every_prefix_loads(manifest_format());
}

TEST(DurableCorruption, JournalInvertedInteriorBytes) {
  expect_every_inverted_byte_is_named(journal_format());
}

TEST(DurableCorruption, DecisionLogInvertedInteriorBytes) {
  expect_every_inverted_byte_is_named(decision_log_format());
}

TEST(DurableCorruption, ManifestInvertedInteriorBytes) {
  expect_every_inverted_byte_is_named(manifest_format());
}

}  // namespace
}  // namespace tdfm::core
