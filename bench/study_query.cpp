// study_query — the results-store CLI over tdfm::store.
//
// A finished campaign's JSONL journal is append-friendly but query-hostile:
// every report, grep, or archive pass re-parses every byte.  study_query
// turns a journal into a compressed columnar store once, then answers
// questions from the store's manifest — usually without touching most of
// the compressed bytes at all:
//
//   study_query import --journal fig4.jsonl --store fig4.store
//   study_query info   --store fig4.store
//   study_query filter --store fig4.store --technique Ensemble5
//   study_query grep   --store fig4.store --pattern GTSRB
//   study_query agg    --store fig4.store --report markdown
//   study_query export --store fig4.store --out fig4.roundtrip.jsonl
//
// `import` is lossless: `export` reproduces the journal byte for byte
// (non-canonical lines ride along verbatim in a per-segment exception
// column).  `filter`/`grep` resolve their predicates against the string
// dictionaries first and skip every segment whose zone maps cannot hold a
// match — skipped segments are never read, let alone decompressed; the
// scan counters printed on stderr prove it.  `agg` feeds the matching
// records through the same Analyzer as study_runner --report, so the
// numbers cannot drift between the two tools.
//
// `--obs-dir` at import archives the campaign's observability-plane
// snapshots into the store (restore them with `restore-obs`), making the
// store a single self-contained artefact of a paper run.
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "core/durable.hpp"
#include "store/store.hpp"

namespace {

using namespace tdfm;
using namespace tdfm::bench;

constexpr const char* kUsage =
    "usage: study_query <command> [flags]\n"
    "\n"
    "commands:\n"
    "  import       journal JSONL -> store (lossless; see --verify)\n"
    "  export       store -> journal JSONL (byte-identical to the import)\n"
    "  filter       print matching records as JSONL (predicate pushdown)\n"
    "  grep         filter by substring over the dictionary-encoded fields\n"
    "  agg          aggregate matching records (same Analyzer as --report)\n"
    "  info         print the store's manifest statistics\n"
    "  restore-obs  write the archived telemetry snapshots back out\n"
    "\n"
    "run `study_query <command> --help` for that command's flags\n";

/// Shared query flags (filter, grep, agg); unset flags match everything.
void add_query_flags(CliParser& cli) {
  cli.add_flag("dataset", "", "exact dataset name");
  cli.add_flag("model", "", "exact model name");
  cli.add_flag("fault-level", "", "exact fault-level name");
  cli.add_flag("technique", "", "exact technique name");
  cli.add_flag("cell", "", "exact cell id (no zone map: scans all segments)");
  cli.add_flag("trial", "", "exact trial number");
  cli.add_flag("min-ad", "", "keep rows with ad >= this");
  cli.add_flag("max-ad", "", "keep rows with ad <= this");
}

store::Query query_from_flags(const CliParser& cli) {
  store::Query q;
  const auto opt = [&](const char* flag) -> std::optional<std::string> {
    const std::string v = cli.get_string(flag);
    return v.empty() ? std::nullopt : std::optional<std::string>(v);
  };
  q.dataset = opt("dataset");
  q.model = opt("model");
  q.fault_level = opt("fault-level");
  q.technique = opt("technique");
  q.cell = opt("cell");
  if (!cli.get_string("trial").empty()) q.trial = cli.get_u64("trial");
  if (!cli.get_string("min-ad").empty()) q.min_ad = cli.get_double("min-ad");
  if (!cli.get_string("max-ad").empty()) q.max_ad = cli.get_double("max-ad");
  return q;
}

/// The pushdown evidence, printed after every scan: how much of the store
/// the query never had to read.
void print_scan_stats(const store::ScanStats& stats) {
  std::cerr << "scanned " << stats.segments_scanned << "/"
            << stats.segments_total << " segments ("
            << stats.segments_skipped << " skipped by zone maps), "
            << stats.rows_matched << "/" << stats.rows_scanned
            << " decoded rows matched\n";
}

int cmd_import(int argc, char** argv) {
  CliParser cli;
  cli.add_flag("journal", "", "source JSONL journal (required)");
  cli.add_flag("store", "", "store directory to create or extend (required)");
  cli.add_flag("segment-rows", "0",
               "rows per segment (0 = default; an existing store's "
               "geometry wins)");
  cli.add_flag("obs-dir", "",
               "also archive this observability-plane directory's metric "
               "snapshots into the store");
  cli.add_flag("verify", "true",
               "re-export after import and fail unless the bytes match the "
               "journal (modulo a recovered torn tail)");
  cli.add_flag("log", "info", "log level: debug|info|warn|error|off");
  if (!cli.parse(argc, argv)) return 0;
  set_log_level(parse_log_level(cli.get_string("log")));
  const std::string journal = cli.get_string("journal");
  const std::string dir = cli.get_string("store");
  if (journal.empty() || dir.empty()) {
    throw ConfigError("import needs --journal and --store");
  }

  store::WriterOptions opts;
  if (cli.get_int("segment-rows") > 0) {
    opts.segment_rows = cli.get_size("segment-rows");
  }
  const store::ImportStats stats =
      store::import_journal(journal, dir, opts, cli.get_string("obs-dir"));
  std::cerr << "imported " << stats.records << " records into "
            << stats.segments << " segments (" << stats.raw_exceptions
            << " non-canonical lines kept verbatim"
            << (stats.recovered_torn_tail ? ", torn tail recovered" : "")
            << (stats.telemetry_files
                    ? ", " + std::to_string(stats.telemetry_files) +
                          " snapshots archived"
                    : "")
            << "): " << stats.journal_bytes << " journal bytes -> "
            << stats.store_bytes << " store bytes\n";

  if (cli.get_bool("verify")) {
    std::ostringstream exported;
    store::StoreReader(dir).export_jsonl(exported);
    std::string expected = core::read_file(journal);
    if (stats.recovered_torn_tail) {
      // Import dropped the torn final line exactly as a resume would; the
      // comparable prefix ends at the last newline.
      expected.erase(expected.find_last_of('\n') + 1);
    }
    TDFM_CHECK(exported.str() == expected,
               "import verification failed: export does not reproduce " +
                   journal + " byte-for-byte");
    std::cerr << "verified: export reproduces the journal byte-for-byte\n";
  }
  return 0;
}

int cmd_export(int argc, char** argv) {
  CliParser cli;
  cli.add_flag("store", "", "store directory (required)");
  cli.add_flag("out", "", "output journal path (default: stdout)");
  cli.add_flag("log", "info", "log level: debug|info|warn|error|off");
  if (!cli.parse(argc, argv)) return 0;
  set_log_level(parse_log_level(cli.get_string("log")));
  const std::string dir = cli.get_string("store");
  if (dir.empty()) throw ConfigError("export needs --store");
  const std::string out = cli.get_string("out");
  if (out.empty()) {
    store::StoreReader(dir).export_jsonl(std::cout);
  } else {
    store::export_journal(dir, out);
  }
  return 0;
}

int cmd_filter(int argc, char** argv, bool grep_mode) {
  CliParser cli;
  cli.add_flag("store", "", "store directory (required)");
  add_query_flags(cli);
  if (grep_mode) {
    cli.add_flag("pattern", "",
                 "substring matched against dataset/model/fault-level/"
                 "technique (required; dictionary-resolved, so unmatched "
                 "segments are skipped unread)");
  }
  cli.add_flag("out", "", "write matching JSONL to this file (default: stdout)");
  cli.add_flag("count", "false", "print only the match count");
  cli.add_flag("log", "info", "log level: debug|info|warn|error|off");
  if (!cli.parse(argc, argv)) return 0;
  set_log_level(parse_log_level(cli.get_string("log")));
  const std::string dir = cli.get_string("store");
  if (dir.empty()) {
    throw ConfigError(std::string(grep_mode ? "grep" : "filter") +
                      " needs --store");
  }
  store::Query q = query_from_flags(cli);
  if (grep_mode) {
    q.grep = cli.get_string("pattern");
    if (q.grep.empty()) throw ConfigError("grep needs --pattern");
  }

  const store::StoreReader reader(dir);
  std::ostringstream lines;
  const store::ScanStats stats = reader.query(
      q, [&](const study::CellRecord& r, const std::string& raw) {
        lines << (raw.empty() ? study::to_jsonl(r) : raw) << '\n';
      });
  if (cli.get_bool("count")) {
    deliver(std::to_string(stats.rows_matched) + "\n", cli.get_string("out"));
  } else {
    deliver(lines.str(), cli.get_string("out"));
  }
  print_scan_stats(stats);
  return 0;
}

int cmd_agg(int argc, char** argv) {
  CliParser cli;
  cli.add_flag("store", "", "store directory (required)");
  add_query_flags(cli);
  cli.add_flag("report", "ascii", "report format: ascii|markdown|csv|json|none");
  cli.add_flag("timings", "false",
               "include wall-clock columns (breaks byte-identity)");
  cli.add_flag("out", "", "write the report to this file (default: stdout)");
  cli.add_flag("log", "info", "log level: debug|info|warn|error|off");
  if (!cli.parse(argc, argv)) return 0;
  set_log_level(parse_log_level(cli.get_string("log")));
  const std::string dir = cli.get_string("store");
  if (dir.empty()) throw ConfigError("agg needs --store");

  const store::StoreReader reader(dir);
  std::vector<study::CellRecord> records;
  const store::ScanStats stats = reader.query(
      query_from_flags(cli),
      [&](const study::CellRecord& r, const std::string&) {
        records.push_back(r);
      });
  // The same fold as study_runner --report: mean ± 95% CI per (dataset,
  // model, fault level, technique) plus the per-technique roll-up.
  const study::CampaignSummary summary = study::summarize_campaign(records);
  study::ReportOptions opts;
  opts.include_timings = cli.get_bool("timings");
  deliver(render_report(summary, cli.get_string("report"), opts),
          cli.get_string("out"));
  print_scan_stats(stats);
  return 0;
}

int cmd_info(int argc, char** argv) {
  CliParser cli;
  cli.add_flag("store", "", "store directory (required)");
  cli.add_flag("log", "info", "log level: debug|info|warn|error|off");
  if (!cli.parse(argc, argv)) return 0;
  set_log_level(parse_log_level(cli.get_string("log")));
  const std::string dir = cli.get_string("store");
  if (dir.empty()) throw ConfigError("info needs --store");

  const store::StoreReader reader(dir);
  const store::Manifest& m = reader.manifest();
  std::cout << "store: " << dir << "\n"
            << "rows: " << m.rows << "\n"
            << "segments: " << m.segments.size() << " (" << m.segment_rows
            << " rows each)\n"
            << "data bytes: " << m.data_bytes << "\n"
            << "source: " << (m.source.empty() ? "(unset)" : m.source)
            << (m.source_recovered_torn_tail ? " (torn tail recovered)" : "")
            << "\n";
  for (std::size_t d = 0; d < store::kDictColumns; ++d) {
    std::cout << store::dict_column_name(d) << " dictionary: "
              << m.dicts[d].size() << " entries\n";
  }
  if (m.telemetry_files > 0) {
    std::cout << "telemetry: " << m.telemetry_files << " snapshots, "
              << m.telemetry_bytes << " bytes\n";
  }
  if (reader.recovered_truncated_tail()) {
    std::cout << "warning: truncated tail recovered at open\n";
  }
  std::cout << "codec: " << (store::zlib_available() ? "zlib" : "tlz")
            << " (blocks record their own codec)\n";
  return 0;
}

int cmd_restore_obs(int argc, char** argv) {
  CliParser cli;
  cli.add_flag("store", "", "store directory (required)");
  cli.add_flag("out", "", "directory to restore snapshots into (required)");
  cli.add_flag("log", "info", "log level: debug|info|warn|error|off");
  if (!cli.parse(argc, argv)) return 0;
  set_log_level(parse_log_level(cli.get_string("log")));
  const std::string dir = cli.get_string("store");
  const std::string out = cli.get_string("out");
  if (dir.empty() || out.empty()) {
    throw ConfigError("restore-obs needs --store and --out");
  }
  const std::size_t files = store::StoreReader(dir).restore_telemetry(out);
  std::cerr << "restored " << files << " snapshot files into " << out << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  // A bad TDFM_KERNEL fails here, before any work.
  (void)tdfm::kernels::active_kernel();
  if (argc < 2 || std::string(argv[1]) == "--help" ||
      std::string(argv[1]) == "help") {
    std::cout << kUsage;
    return argc < 2 ? 1 : 0;
  }
  // CliParser has no positional arguments: the subcommand is argv[1] and the
  // command parses the shifted remainder.
  const std::string cmd = argv[1];
  const int sub_argc = argc - 1;
  char** sub_argv = argv + 1;
  if (cmd == "import") return cmd_import(sub_argc, sub_argv);
  if (cmd == "export") return cmd_export(sub_argc, sub_argv);
  if (cmd == "filter") return cmd_filter(sub_argc, sub_argv, false);
  if (cmd == "grep") return cmd_filter(sub_argc, sub_argv, true);
  if (cmd == "agg") return cmd_agg(sub_argc, sub_argv);
  if (cmd == "info") return cmd_info(sub_argc, sub_argv);
  if (cmd == "restore-obs") return cmd_restore_obs(sub_argc, sub_argv);
  std::cerr << "unknown command '" << cmd << "'\n\n" << kUsage;
  return 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
