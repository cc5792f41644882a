// study_runner — the campaign CLI over tdfm::study.
//
// Runs a named preset grid (or any preset with overridden axes/knobs) as a
// resumable, parallel campaign:
//
//   study_runner --list-presets true
//   study_runner --preset fig3-mislabelling --journal fig3.jsonl --jobs 4
//   <ctrl-C mid-run>
//   study_runner --preset fig3-mislabelling --journal fig3.jsonl --jobs 4
//                --resume true          # completes only the remaining cells
//   study_runner --journal fig3.jsonl --report markdown --report-only true
//
// A campaign also shards across processes with zero coordination (cells are
// content-hashed, so hash(cell) % N partitions the grid identically in every
// process):
//
//   study_runner --preset fig4 --shard 0/3 --journal fig4.s0.jsonl   # 3 shells
//   study_runner --preset fig4 --shard 1/3 --journal fig4.s1.jsonl   # ...
//   study_runner --preset fig4 --shard 2/3 --journal fig4.s2.jsonl
//   study_runner --merge fig4.s0.jsonl,fig4.s1.jsonl,fig4.s2.jsonl
//                --journal fig4.jsonl               # fuse + dedup + report
//   study_runner --merge auto --journal fig4.jsonl  # same, discovering the
//                # <journal>.shard<i>of<N>.jsonl siblings automatically
//
//   study_runner --preset fig4 --spawn 3 --journal fig4.jsonl        # or: one
//                # driver that spawns the 3 shard processes and merges
//
// Reports exclude wall-clock timings by default, so a resumed, sharded, or
// merged run's report is byte-identical to an uninterrupted single-process
// one at any --jobs value; pass --timings true for the §IV-E overhead view.
//
// The observability plane rides along without perturbing any of that:
//
//   study_runner --preset fig4 --spawn 3 --journal fig4.jsonl
//                --progress true --trace fig4.trace.json --flight true
//
// renders a live fleet status line (per-shard throughput, ETA, cache hit
// rates), merges the per-shard Chrome traces into one timeline spanning all
// shards, and — should a worker crash — leaves its flight recorder at
// <journal>.obs/crash-<pid>.json naming the cell it died in.  The plane is
// strictly read-only over campaign state: journal bytes and reports are
// identical with it on or off.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <thread>
#include <unordered_map>

#include "bench_common.hpp"
#include "core/durable.hpp"
#include "core/process.hpp"
#include "store/reader.hpp"
#include "study/progress.hpp"

namespace {

using namespace tdfm;

/// Parses "--shard i/N" (0-based shard index).  Empty means unsharded.
void parse_shard(const std::string& text, std::size_t* index,
                 std::size_t* count) {
  *index = 0;
  *count = 1;
  if (text.empty()) return;
  const std::size_t slash = text.find('/');
  try {
    if (slash == std::string::npos) throw std::invalid_argument(text);
    *index = std::stoul(text.substr(0, slash));
    *count = std::stoul(text.substr(slash + 1));
  } catch (const std::exception&) {
    throw ConfigError("--shard wants i/N (e.g. 0/3), got '" + text + "'");
  }
  if (*count < 1 || *index >= *count) {
    throw ConfigError("--shard index must satisfy 0 <= i < N, got '" + text +
                      "'");
  }
}

/// Per-shard journal path: <journal>.shard<i>of<N>.jsonl — the naming the
/// --spawn driver and the smoke script agree on.
std::string shard_journal_path(const std::string& base, std::size_t i,
                               std::size_t n) {
  return base + ".shard" + std::to_string(i) + "of" + std::to_string(n) +
         ".jsonl";
}

/// Orders journal records by the spec's expansion order (foreign cell ids
/// sort last, by id).  The journal is in completion order, which depends on
/// --jobs, sharding, and timing; reports must not.
void sort_by_expansion(std::vector<study::CellRecord>& records,
                       const study::StudySpec& spec) {
  std::unordered_map<std::string, std::size_t> expansion_order;
  const auto cells = study::expand_cells(spec);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    expansion_order.emplace(study::cell_id(spec, cells[i]), i);
  }
  const auto rank = [&](const study::CellRecord& r) {
    const auto it = expansion_order.find(r.cell);
    return it == expansion_order.end() ? cells.size() : it->second;
  };
  std::stable_sort(records.begin(), records.end(),
                   [&](const auto& a, const auto& b) {
                     const std::size_t ra = rank(a), rb = rank(b);
                     return ra != rb ? ra < rb : a.cell < b.cell;
                   });
}

/// Per-shard trace path, derived from the shard journal path the same way
/// the --spawn driver derives everything else.
std::string shard_trace_path(const std::string& shard_journal) {
  return shard_journal + ".trace.json";
}

/// Fuses the per-shard Chrome traces next to `shard_paths` into `out_path`
/// (used by both --spawn and --merge when --trace names an output).
void merge_shard_traces(const std::vector<std::string>& shard_paths,
                        const std::string& out_path) {
  std::vector<std::string> traces;
  traces.reserve(shard_paths.size());
  for (const std::string& p : shard_paths) traces.push_back(shard_trace_path(p));
  const obs::TraceMergeResult tm = obs::merge_chrome_traces(traces, out_path);
  std::cerr << "merged " << tm.inputs << " shard traces: " << tm.events
            << " events (" << tm.skipped_lines << " torn lines dropped, "
            << tm.missing << " files missing) -> " << out_path << "\n";
}

/// One aggregation pass over the plane directory.
obs::Aggregator aggregate_snapshot_dir(const std::string& dir,
                                       std::size_t* skipped = nullptr) {
  const obs::SnapshotScan scan = obs::read_snapshot_dir(dir);
  obs::Aggregator agg;
  for (const obs::MetricsSnapshot& s : scan.snapshots) agg.add(s);
  if (skipped) *skipped = scan.skipped;
  return agg;
}

}  // namespace

int main(int argc, char** argv) try {
  // A bad TDFM_KERNEL fails here, before any work.
  (void)tdfm::kernels::active_kernel();
  using namespace tdfm;
  using namespace tdfm::bench;

  CliParser cli;
  cli.add_flag("preset", "smoke", "campaign preset (see --list-presets true)");
  cli.add_flag("list-presets", "false", "print the preset catalogue and exit");
  cli.add_flag("journal", "", "JSONL journal file (enables --resume)");
  cli.add_flag("resume", "false", "skip cells already recorded in --journal");
  cli.add_flag("report-only", "false",
               "do not run anything; report the --journal contents");
  cli.add_flag("store", "",
               "with --report-only: read records from this results-store "
               "directory (study_query import) instead of --journal; the "
               "report is byte-identical to the JSONL-backed one");
  cli.add_flag("jobs", "1", "concurrent cells (0 = hardware concurrency)");
  cli.add_flag("shard", "",
               "run only this shard of the grid, as i/N (0-based); cells are "
               "partitioned by hash(cell_id) % N");
  cli.add_flag("merge", "",
               "fuse these comma-separated shard journals into --journal "
               "(dedup + conflict check), then report; runs nothing; 'auto' "
               "discovers the <journal>.shard<i>of<N>.jsonl siblings");
  cli.add_flag("spawn", "0",
               "driver mode: spawn N shard worker processes over --journal's "
               "derived per-shard journals, merge on completion");
  cli.add_flag("steal", "false",
               "sharded runs: after draining the own shard, claim cells no "
               "sibling journal records yet (idle shards help slow ones)");
  cli.add_flag("siblings", "",
               "comma-separated sibling shard journals consulted by --steal "
               "(--spawn fills this in automatically)");
  cli.add_flag("shuffle", "0",
               "non-zero: run pending cells in this seed's shuffled order");
  cli.add_flag("progress", "false",
               "driver mode (--spawn): render a live aggregated status line "
               "on stderr from the shards' metric snapshots; strictly "
               "read-only (journal and report bytes are unchanged)");
  cli.add_flag("obs-dir", "",
               "observability-plane directory for metric snapshots and crash "
               "dumps (default: <journal>.obs when --progress, --flight, or "
               "--obs-report need one)");
  cli.add_flag("obs-interval-ms", "500",
               "metric-snapshot export period for campaign workers");
  cli.add_flag("flight", "false",
               "arm the in-memory flight recorder; SIGSEGV/SIGABRT/SIGBUS "
               "dump it to <obs-dir>/crash-<pid>.json");
  cli.add_flag("abort-after-cells", "0",
               "crash drill: SIGABRT after beginning the Nth cell (tests "
               "the flight recorder's crash dump; 0 = off)");
  cli.add_flag("obs-report", "false",
               "aggregate the snapshots in --obs-dir (or <journal>.obs) and "
               "print the merged snapshot as JSON lines; runs nothing");
  cli.add_flag("validate-json", "",
               "strictly parse this file as JSON and exit 0/1 (tooling "
               "helper for scripts; runs nothing)");
  cli.add_flag("report", "ascii", "report format: ascii|markdown|csv|json|none");
  cli.add_flag("timings", "false",
               "include wall-clock columns (breaks byte-identity across runs)");
  cli.add_flag("out", "", "write the report to this file instead of stdout");
  // Preset overrides; the "preset" sentinel keeps the preset's value.
  cli.add_flag("models", "preset", "override the model axis (comma-separated)");
  cli.add_flag("datasets", "preset",
               "override the dataset axis (comma-separated)");
  cli.add_flag("trials", "preset", "override trials per cell");
  cli.add_flag("epochs", "preset", "override training epochs");
  cli.add_flag("scale", "preset", "override the dataset-size multiplier");
  cli.add_flag("width", "preset", "override the model base channel width");
  cli.add_flag("seed", "preset", "override the campaign master seed");
  cli.add_flag("threads", "0",
               "global-pool threads per cell at --jobs 1 (ignored above)");
  cli.add_flag("log", "info", "log level: debug|info|warn|error|off");
  add_obs_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  set_log_level(parse_log_level(cli.get_string("log")));
  apply_obs_flags(cli);

  if (cli.get_bool("list-presets")) {
    for (const study::Preset& p : study::all_presets()) {
      std::cout << p.name << ": " << p.description << " ("
                << p.spec.cell_count() << " cells)\n";
    }
    return 0;
  }

  // Tooling helper: strict RFC 8259 validation with the repo's own parser,
  // so scripts need no external JSON tooling to check merged traces and
  // crash dumps.
  if (!cli.get_string("validate-json").empty()) {
    const std::string path = cli.get_string("validate-json");
    if (obs::json_valid(core::read_file(path))) {
      std::cout << path << ": valid JSON\n";
      return 0;
    }
    std::cerr << path << ": invalid JSON\n";
    return 1;
  }

  const std::string journal_path = cli.get_string("journal");
  const bool progress = cli.get_bool("progress");
  const bool flight = cli.get_bool("flight");
  std::string obs_dir = cli.get_string("obs-dir");
  if (obs_dir.empty() && !journal_path.empty() &&
      (progress || flight || cli.get_bool("obs-report"))) {
    obs_dir = journal_path + ".obs";
  }

  // Observer mode: fold the plane directory and print the aggregate.  The
  // merged counters are the sums of the per-shard counters, which is what
  // the smoke script asserts.
  if (cli.get_bool("obs-report")) {
    if (obs_dir.empty()) {
      throw ConfigError("--obs-report needs --obs-dir or --journal");
    }
    std::size_t skipped = 0;
    const obs::Aggregator agg = aggregate_snapshot_dir(obs_dir, &skipped);
    const study::ProgressSummary p = study::summarize_progress(agg);
    obs::MetricsSnapshot merged;
    merged.meta.label = "aggregate of " +
                        std::to_string(agg.sources().size()) + " snapshots";
    merged.meta.shard_count = p.shards == 0 ? 1 : p.shards;
    merged.meta.grid_cells = p.grid_cells;
    merged.meta.cells_done = p.done;
    merged.meta.cells_executed = p.executed;
    merged.meta.cells_stolen = p.stolen;
    merged.samples = agg.samples();
    // Surface the plane's own health in the report itself (not only on
    // stderr): how many snapshot files were skipped as torn/foreign, and —
    // when a journal rides along — whether loading it had to recover a
    // torn tail (the kill -9 signature).
    const auto add_counter = [&](const std::string& name, std::uint64_t n) {
      obs::MetricSample s;
      s.kind = obs::MetricSample::Kind::kCounter;
      s.name = name;
      s.count = n;
      merged.samples.push_back(std::move(s));
    };
    add_counter("obs_report_snapshots_skipped", skipped);
    std::string journal_note;
    if (!journal_path.empty()) {
      try {
        bool torn = false;
        const auto records = study::Journal::load(journal_path, &torn);
        add_counter("obs_report_journal_records", records.size());
        add_counter("obs_report_journal_torn_tail_recovered", torn ? 1 : 0);
        journal_note = " | journal: " + std::to_string(records.size()) +
                       " records" + (torn ? ", torn tail recovered" : "");
      } catch (const ConfigError& e) {
        // The plane is an observer: a damaged journal degrades the report,
        // never fails it.
        TDFM_LOG(kWarn) << "obs-report: cannot load journal " << journal_path
                        << ": " << e.what();
        journal_note = " | journal: unreadable";
      }
    }
    std::sort(merged.samples.begin(), merged.samples.end(),
              [](const obs::MetricSample& a, const obs::MetricSample& b) {
                return a.name < b.name;
              });
    deliver(obs::serialize_snapshot(merged), cli.get_string("out"));
    std::cerr << study::render_progress_line(p)
              << (skipped ? " | " + std::to_string(skipped) + " torn" : "")
              << journal_note << "\n";
    return 0;
  }

  study::ReportOptions report_opts;
  report_opts.include_timings = cli.get_bool("timings");
  const std::string format = cli.get_string("report");

  study::StudySpec spec = study::preset_spec(cli.get_string("preset"));
  const auto overridden = [&](const std::string& flag) {
    return cli.get_string(flag) != "preset";
  };
  if (overridden("models")) {
    spec.models = parse_arch_list(cli.get_string("models"));
  }
  if (overridden("datasets")) {
    spec.datasets.clear();
    for (const std::string& name : split_csv(cli.get_string("datasets"))) {
      spec.datasets.push_back(data::dataset_from_name(name));
    }
  }
  if (overridden("trials")) {
    spec.trials = cli.get_size("trials");
  }
  if (overridden("epochs")) {
    spec.train_opts.epochs = cli.get_size("epochs");
  }
  if (overridden("scale")) spec.scale = cli.get_double("scale");
  if (overridden("width")) {
    spec.model_width = cli.get_size("width");
  }
  if (overridden("seed")) spec.seed = cli.get_u64("seed");
  spec.train_opts.threads = cli.get_size("threads");

  // Merge mode: fuse per-shard journals into --journal, then report.
  if (!cli.get_string("merge").empty()) {
    if (journal_path.empty()) {
      throw ConfigError("--merge needs --journal (the output)");
    }
    std::vector<std::string> shard_paths;
    if (cli.get_string("merge") == "auto") {
      // Discover the <journal>.shard<i>of<N>.jsonl siblings the --spawn
      // driver (or a by-hand sharded run following its naming) left behind.
      shard_paths = study::discover_shard_journals(journal_path);
      if (shard_paths.empty()) {
        throw ConfigError("--merge auto found no " + journal_path +
                          ".shard<i>of<N>.jsonl siblings");
      }
      std::cerr << "discovered " << shard_paths.size() << " shard journals"
                << " next to " << journal_path << "\n";
    } else {
      shard_paths = split_csv(cli.get_string("merge"));
    }
    auto merged = study::merge_journals(shard_paths);
    study::write_journal(journal_path, merged.records);
    std::cerr << "merged " << shard_paths.size() << " journals: "
              << merged.inputs << " records in, " << merged.records.size()
              << " unique cells out (" << merged.duplicates
              << " timing-duplicates dropped) -> " << journal_path << "\n";
    if (!cli.get_string("trace").empty()) {
      // The merge itself is not traced: cancel our own at-exit trace write
      // so it cannot clobber the merged timeline.
      const std::string trace_path = cli.get_string("trace");
      obs::set_trace_enabled(false);
      obs::set_trace_output("");
      merge_shard_traces(shard_paths, trace_path);
    }
    if (format != "none") {
      sort_by_expansion(merged.records, spec);
      const auto summary = study::summarize_campaign(merged.records);
      deliver(render_report(summary, format, report_opts),
              cli.get_string("out"));
    }
    return 0;
  }

  if (cli.get_bool("report-only")) {
    const std::string store_dir = cli.get_string("store");
    if (journal_path.empty() && store_dir.empty()) {
      throw ConfigError("--report-only needs --journal or --store");
    }
    // The store-backed path feeds the same Analyzer the same records in the
    // same order, so the report bytes cannot depend on which backend held
    // them (store_smoke.sh asserts this with cmp).
    auto records = store_dir.empty() ? study::Journal::load(journal_path)
                                     : store::read_all_records(store_dir);
    // Order records by the preset's expansion order so the report is
    // byte-identical to the one the live run printed.
    sort_by_expansion(records, spec);
    const auto summary = study::summarize_campaign(records);
    deliver(render_report(summary, format, report_opts), cli.get_string("out"));
    return 0;
  }

  // Driver mode: one worker process per shard, then merge and report.
  const std::size_t spawn = cli.get_size("spawn");
  if (spawn > 0) {
    if (journal_path.empty()) {
      throw ConfigError("--spawn needs --journal (merge target; per-shard "
                        "journals derive from it)");
    }
    std::vector<std::string> shard_paths(spawn);
    for (std::size_t i = 0; i < spawn; ++i) {
      shard_paths[i] = shard_journal_path(journal_path, i, spawn);
    }
    const bool steal = cli.get_bool("steal");
    const std::string trace_path = cli.get_string("trace");
    if (!trace_path.empty()) {
      // The shards trace; the driver only merges.  Cancel the driver's own
      // at-exit trace write so it cannot clobber the merged timeline.
      obs::set_trace_enabled(false);
      obs::set_trace_output("");
    }
    std::vector<pid_t> pids(spawn);
    for (std::size_t i = 0; i < spawn; ++i) {
      std::vector<std::string> child = {argv[0],
                                        "--preset", cli.get_string("preset"),
                                        "--shard", std::to_string(i) + "/" +
                                                       std::to_string(spawn),
                                        "--journal", shard_paths[i],
                                        "--jobs", cli.get_string("jobs"),
                                        "--threads", cli.get_string("threads"),
                                        "--log", cli.get_string("log"),
                                        "--report", "none"};
      for (const char* flag : {"models", "datasets", "trials", "epochs",
                               "scale", "width", "seed"}) {
        if (overridden(flag)) {
          child.insert(child.end(), {std::string("--") + flag,
                                     cli.get_string(flag)});
        }
      }
      if (cli.get_bool("resume")) child.insert(child.end(), {"--resume", "true"});
      if (steal) {
        std::string siblings;
        for (std::size_t k = 0; k < spawn; ++k) {
          if (k == i) continue;
          if (!siblings.empty()) siblings += ',';
          siblings += shard_paths[k];
        }
        child.insert(child.end(),
                     {"--steal", "true", "--siblings", siblings});
      }
      if (!obs_dir.empty()) {
        child.insert(child.end(),
                     {"--obs-dir", obs_dir, "--obs-interval-ms",
                      cli.get_string("obs-interval-ms")});
      }
      if (flight) child.insert(child.end(), {"--flight", "true"});
      if (!trace_path.empty()) {
        child.insert(child.end(), {"--trace", shard_trace_path(shard_paths[i])});
      }
      pids[i] = core::spawn_process(child);
    }
    // Poll the fleet instead of blocking per child, so --progress can fold
    // the plane directory between checks and render a live status line.
    std::string failures;
    std::vector<bool> exited(spawn, false);
    std::size_t live = spawn;
    std::size_t last_len = 0;
    while (live > 0) {
      for (std::size_t i = 0; i < spawn; ++i) {
        if (exited[i]) continue;
        core::ProcessExit exit;
        if (!core::try_wait_process(pids[i], &exit)) continue;
        exited[i] = true;
        --live;
        if (!exit.ok()) {
          failures += (failures.empty() ? "" : ", ") + std::string("shard ") +
                      std::to_string(i) + ": " + exit.describe();
        }
      }
      if (progress) {
        std::string line = study::render_progress_line(
            study::summarize_progress(aggregate_snapshot_dir(obs_dir)));
        const std::size_t len = line.size();
        if (len < last_len) line.append(last_len - len, ' ');  // erase tail
        last_len = len;
        std::cerr << '\r' << line << std::flush;
      }
      if (live > 0) std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
    if (progress) std::cerr << '\n';
    // Completed shards keep their journals either way: a rerun with
    // --resume true recomputes only what is missing.
    TDFM_CHECK(failures.empty(), "shard workers failed (" + failures +
                                     "); rerun with --resume true");
    auto merged = study::merge_journals(shard_paths);
    study::write_journal(journal_path, merged.records);
    std::cerr << "spawned " << spawn << " shard workers; merged "
              << merged.inputs << " records into " << merged.records.size()
              << " unique cells (" << merged.duplicates
              << " timing-duplicates) -> " << journal_path << "\n";
    if (!trace_path.empty()) merge_shard_traces(shard_paths, trace_path);
    if (format != "none") {
      sort_by_expansion(merged.records, spec);
      const auto summary = study::summarize_campaign(merged.records);
      deliver(render_report(summary, format, report_opts),
              cli.get_string("out"));
    }
    return 0;
  }

  study::RunOptions run;
  run.jobs = cli.get_size("jobs");
  run.resume = cli.get_bool("resume");
  run.journal_path = journal_path;
  run.shuffle_seed = cli.get_u64("shuffle");
  parse_shard(cli.get_string("shard"), &run.shard_index, &run.shard_count);
  run.work_steal = cli.get_bool("steal");
  run.sibling_journals = split_csv(cli.get_string("siblings"));
  run.obs_dir = obs_dir;
  run.obs_interval_ms = cli.get_int("obs-interval-ms");
  run.abort_after_cells = cli.get_u64("abort-after-cells");

  // Sharded workers qualify everything they emit: log lines get a
  // "[shard i/N]" prefix, trace events a process_name row, snapshots and
  // crash dumps a label — so merged views stay attributable.
  const std::string shard_label =
      run.shard_count > 1
          ? "shard " + std::to_string(run.shard_index) + "/" +
                std::to_string(run.shard_count)
          : "";
  if (!shard_label.empty()) {
    set_log_prefix("[" + shard_label + "] ");
    obs::set_trace_process(0, shard_label);
  }
  if (flight) {
    obs::flight::install_crash_handler(
        obs_dir.empty() ? std::string(".") : obs_dir,
        shard_label.empty() ? spec.name : shard_label);
  }

  std::cerr << "campaign '" << spec.name << "': " << spec.cell_count()
            << " cells, jobs=" << run.jobs
            << (run.shard_count > 1
                    ? ", shard " + std::to_string(run.shard_index) + "/" +
                          std::to_string(run.shard_count)
                    : "")
            << (run.resume ? ", resuming from " + journal_path : "") << "\n";
  const auto result = study::run_campaign(spec, run);
  std::cerr << "executed " << result.executed << " cells ("
            << result.stolen << " stolen), skipped " << result.skipped
            << " (journaled); dataset cache " << result.dataset_cache.hits
            << "/" << result.dataset_cache.hits + result.dataset_cache.misses
            << " hits, golden cache " << result.golden_cache.hits << "/"
            << result.golden_cache.hits + result.golden_cache.misses
            << " hits, shared-fit cache " << result.shared_fit_cache.hits
            << "/" << result.shared_fit_cache.hits + result.shared_fit_cache.misses
            << " hits; " << fixed(result.elapsed_seconds, 1) << "s\n";

  const auto summary = study::summarize_campaign(result.records);
  deliver(render_report(summary, format, report_opts), cli.get_string("out"));
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
