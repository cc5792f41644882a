// perfbench: one workload of the tdfm benchmark, in this process.
//
//   perfbench --workload campaign|serve-fp32|serve-q8|pipeline --seed N
//             --seconds S --trace 0|1 --workdir DIR [--tiny 1]
//
// --trace 0 measures the workload's end-to-end metrics with tracing off;
// --trace 1 times one untraced and one traced pass (the difference is the
// tracing overhead) and the public calls into the layers the workload
// exercises.  The result is the last stdout line; run.py (next to this file)
// builds the binary, runs it and checks the line against BENCHMARK.json.
#include <filesystem>
#include <iostream>

#include "common.hpp"
#include "core/cli.hpp"
#include "core/error.hpp"
#include "core/logging.hpp"
#include "core/thread_pool.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) try {
  using namespace perfbench;
  tdfm::CliParser cli;
  cli.add_flag("workload", "", "campaign | serve-fp32 | serve-q8 | pipeline");
  cli.add_flag("seed", "1", "input seed: every generated input derives from it");
  cli.add_flag("seconds", "10", "measured window of an end-to-end run");
  cli.add_flag("trace", "0", "1 = per-layer run instead of end-to-end run");
  cli.add_flag("tiny", "0", "1 = seconds-long shapes (self-tests)");
  cli.add_flag("workdir", "", "scratch directory (created, then removed)");
  if (!cli.parse(argc, argv)) return 0;

  Options opts;
  opts.workload = cli.get_string("workload");
  opts.seed = cli.get_u64("seed");
  opts.seconds = cli.get_double("seconds");
  opts.trace = cli.get_bool("trace");
  opts.tiny = cli.get_bool("tiny");
  opts.workdir = cli.get_string("workdir");
  TDFM_CHECK(opts.seconds > 0.0, "--seconds must be positive");
  TDFM_CHECK(!opts.workdir.empty(), "--workdir is required");

  tdfm::set_log_level(tdfm::LogLevel::kWarn);
  // Pinned, never the hardware-concurrency default: every workload counts
  // its threads against the host in check_thread_budget.
  tdfm::core::ThreadPool::set_global_threads(1);
  std::filesystem::create_directories(opts.workdir);

  Result result;
  if (opts.workload == "campaign") {
    result = run_campaign(opts);
  } else if (opts.workload == "serve-fp32") {
    result = run_serving(opts, /*quantized=*/false);
  } else if (opts.workload == "serve-q8") {
    result = run_serving(opts, /*quantized=*/true);
  } else if (opts.workload == "pipeline") {
    result = run_pipeline(opts);
  } else {
    throw tdfm::ConfigError("unknown --workload '" + opts.workload + "'");
  }
  std::filesystem::remove_all(opts.workdir);
  emit(result);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "perfbench: " << e.what() << "\n";
  return 1;
}
