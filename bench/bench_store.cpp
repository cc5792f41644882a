// bench_store: the results-store's three headline numbers on a synthetic
// campaign journal — compression ratio, import throughput, and the
// filtered-query speedup of predicate pushdown over JSONL re-parsing.
//
// The journal is synthesized campaign-shaped (real axis names, 16-hex cell
// ids, accuracy-like doubles) so dictionary and zone-map behaviour match a
// paper-full run rather than a best case: every segment holds a handful of
// technique ids, so a one-technique query skips nothing by dictionary alone
// at small segment counts but prunes hard once segments outnumber the
// technique stride.  The query benchmark compares the same question asked
// both ways:
//
//   JSONL:  read the file, parse every line, keep matching records
//   store:  resolve the predicate against the dictionary, skip segments by
//           zone map, decode only the survivors
//
//   $ ./bench/bench_store --rows 50000 --out BENCH_store.json
#include <chrono>
#include <filesystem>
#include <random>

#include "bench_common.hpp"
#include "core/varint.hpp"
#include "store/store.hpp"

namespace tdfm::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr const char* kDatasets[] = {"GTSRB", "CIFAR-10", "Pneumonia"};
constexpr const char* kModels[] = {"ResNet50", "VGG16", "ConvNet"};
constexpr const char* kFaultLevels[] = {"10%", "30%", "50%"};
constexpr const char* kTechniques[] = {"None",       "Removal",
                                       "Relabelling", "LossCorrection",
                                       "Ensemble3",  "Ensemble5",
                                       "DataValuation"};

/// Campaign-shaped synthetic journal: one record per (context, technique,
/// trial) cell in expansion order, accuracy-like doubles with per-cell
/// noise.  Deterministic in `seed`.
std::vector<study::CellRecord> synthesize(std::size_t rows,
                                          std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> noise(-0.05, 0.05);
  std::vector<study::CellRecord> records;
  records.reserve(rows);
  std::size_t i = 0;
  while (records.size() < rows) {
    study::CellRecord r;
    r.dataset = kDatasets[(i / 7) % 3];
    r.model = kModels[(i / 21) % 3];
    r.fault_level = kFaultLevels[(i / 63) % 3];
    r.technique = kTechniques[i % 7];
    r.trial = 1 + (i / 189) % 20;
    char cell[20];
    std::snprintf(cell, sizeof(cell), "%016llx",
                  static_cast<unsigned long long>(
                      core::fnv1a64(r.dataset + r.model + r.fault_level +
                                    r.technique + std::to_string(i))));
    r.cell = cell;
    r.golden_accuracy = 0.9 + noise(gen) / 5;
    r.faulty_accuracy = 0.8 + noise(gen);
    r.ad = r.golden_accuracy - r.faulty_accuracy;
    r.reverse_ad = -r.ad;
    r.naive_drop = r.ad + noise(gen) / 10;
    r.train_seconds = 2.0 + noise(gen) * 20;
    r.infer_seconds = 0.1 + noise(gen);
    r.inference_models = r.technique.rfind("Ensemble", 0) == 0
                             ? static_cast<double>(r.technique.back() - '0')
                             : 1.0;
    r.shared_fit = r.inference_models > 1.0;
    records.push_back(std::move(r));
    ++i;
  }
  return records;
}

}  // namespace
}  // namespace tdfm::bench

int main(int argc, char** argv) try {
  using namespace tdfm;
  using namespace tdfm::bench;
  namespace fs = std::filesystem;

  CliParser cli;
  cli.add_flag("rows", "50000", "synthetic journal rows");
  cli.add_flag("segment-rows", "0", "rows per store segment (0 = default)");
  cli.add_flag("dir", "",
               "working directory for the journal and store (default: a "
               "bench_store.tmp directory next to the binary, removed after)");
  BenchSettings settings;
  if (!parse_bench_flags(argc, argv, cli, settings)) return 0;

  const std::size_t rows = cli.get_size("rows");
  const bool keep = !cli.get_string("dir").empty();
  const std::string dir =
      keep ? cli.get_string("dir") : std::string("bench_store.tmp");
  fs::create_directories(dir);
  const std::string journal_path = dir + "/journal.jsonl";
  const std::string store_dir = dir + "/store";
  fs::remove_all(store_dir);

  std::cout << "=== bench_store ===\n"
            << "rows=" << rows << " seed=" << settings.seed
            << " codec=" << (store::zlib_available() ? "zlib" : "tlz") << "\n\n";

  const auto records = synthesize(rows, settings.seed);
  {
    std::ofstream out(journal_path, std::ios::trunc | std::ios::binary);
    TDFM_CHECK(out.good(), "cannot write " + journal_path);
    for (const auto& r : records) out << study::to_jsonl(r) << '\n';
  }

  store::WriterOptions opts;
  if (cli.get_int("segment-rows") > 0) {
    opts.segment_rows = cli.get_size("segment-rows");
  }
  const auto t_import = Clock::now();
  const store::ImportStats import =
      store::import_journal(journal_path, store_dir, opts);
  const double import_seconds = seconds_since(t_import);
  const double ratio = static_cast<double>(import.journal_bytes) /
                       static_cast<double>(import.store_bytes);
  const double import_mb_s = static_cast<double>(import.journal_bytes) /
                             (1024.0 * 1024.0) / import_seconds;
  std::cout << "import: " << import.records << " records, "
            << import.segments << " segments, " << import.journal_bytes
            << " -> " << import.store_bytes << " bytes ("
            << fixed(ratio, 2) << "x smaller), "
            << fixed(import_mb_s, 1) << " MB/s\n";

  // Round-trip check: the bench never reports numbers for a lossy store.
  {
    std::ostringstream exported;
    store::StoreReader(store_dir).export_jsonl(exported);
    std::ostringstream expected;
    for (const auto& r : records) expected << study::to_jsonl(r) << '\n';
    TDFM_CHECK(exported.str() == expected.str(),
               "store export does not reproduce the journal");
  }

  // Filtered query, asked both ways.  The store is opened per-iteration:
  // manifest parsing is part of the price of answering from a cold store.
  const std::string technique = "Ensemble5";
  const auto t_jsonl = Clock::now();
  std::size_t jsonl_matches = 0;
  {
    std::ifstream in(journal_path, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      if (study::parse_record(line).technique == technique) ++jsonl_matches;
    }
  }
  const double jsonl_seconds = seconds_since(t_jsonl);

  const auto t_store = Clock::now();
  store::Query q;
  q.technique = technique;
  std::size_t store_matches = 0;
  const store::ScanStats scan = store::StoreReader(store_dir).query(
      q, [&](const study::CellRecord&, const std::string&) {
        ++store_matches;
      });
  const double store_seconds = seconds_since(t_store);
  TDFM_CHECK(store_matches == jsonl_matches,
             "store and JSONL disagree on the match count");
  const double speedup = jsonl_seconds / store_seconds;
  std::cout << "query technique=" << technique << ": " << store_matches
            << " matches; JSONL " << fixed(jsonl_seconds * 1e3, 1)
            << " ms vs store " << fixed(store_seconds * 1e3, 1) << " ms ("
            << fixed(speedup, 2) << "x), " << scan.segments_skipped << "/"
            << scan.segments_total << " segments skipped unread\n";

  // Zone-map pruning needs a predicate with segment-level locality; trials
  // change every 189 rows, so a one-trial query can skip most segments.
  const auto t_trial = Clock::now();
  store::Query qt;
  qt.trial = 1;
  std::size_t trial_matches = 0;
  const store::ScanStats trial_scan = store::StoreReader(store_dir).query(
      qt, [&](const study::CellRecord&, const std::string&) {
        ++trial_matches;
      });
  const double trial_seconds = seconds_since(t_trial);
  std::cout << "query trial=1: " << trial_matches << " matches in "
            << fixed(trial_seconds * 1e3, 1) << " ms, "
            << trial_scan.segments_skipped << "/" << trial_scan.segments_total
            << " segments skipped unread\n";

  BenchJson json("store", settings);
  json.add("rows", static_cast<double>(rows));
  json.add("journal_bytes", static_cast<double>(import.journal_bytes));
  json.add("store_bytes", static_cast<double>(import.store_bytes));
  json.add("compression_ratio", ratio);
  json.add("import_mb_per_s", import_mb_s);
  json.add("segments", static_cast<double>(import.segments));
  json.add("query_jsonl_seconds", jsonl_seconds);
  json.add("query_store_seconds", store_seconds);
  json.add("query_speedup", speedup);
  json.add("query_segments_skipped", static_cast<double>(scan.segments_skipped));
  json.add("query_segments_total", static_cast<double>(scan.segments_total));
  json.add("trial_query_seconds", trial_seconds);
  json.add("trial_query_segments_skipped",
           static_cast<double>(trial_scan.segments_skipped));
  json.add("codec", store::zlib_available() ? "zlib" : "tlz");
  json.emit(settings);

  if (!keep) fs::remove_all(dir);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
