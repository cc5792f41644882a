// E7 — §IV-C: combinations of multiple fault types.
//
// The paper injects pairs of fault types (mislabelling+removal,
// mislabelling+repetition, removal+repetition) and finds the AD
// statistically similar to that of the dominant single fault type:
// combinations containing mislabelling behave like mislabelling alone, and
// removal+repetition behaves like repetition alone.  This bench reproduces
// the comparison and runs Welch's t-test on the per-trial AD samples.
//
// Thin wrapper over the `combined-faults` study preset (levels 0-2 are the
// single fault types, 3-5 the pairs); --model and --percent reshape it.
#include "bench_common.hpp"

int main(int argc, char** argv) try {
  using namespace tdfm;
  using namespace tdfm::bench;

  CliParser cli;
  cli.add_flag("model", "ConvNet", "model under test");
  cli.add_flag("percent", "30", "fault percentage for every campaign");
  BenchSettings s;
  if (!parse_bench_flags(argc, argv, cli, s, /*trials=*/3, /*epochs=*/16,
                         /*scale=*/0.8, /*width=*/8)) {
    return 0;
  }
  print_banner("E7: combined fault types vs single fault types (§IV-C)", s);

  study::StudySpec spec = preset_with_settings("combined-faults", s);
  spec.models = {models::arch_from_name(cli.get_string("model"))};
  const double pct = cli.get_double("percent");
  for (faults::FaultLevel& level : spec.fault_levels) {
    for (faults::FaultSpec& fault : level) fault.percent = pct;
  }

  obs::Stopwatch watch;
  const auto result = study::run_campaign(spec, campaign_run_options(s));
  const auto summary = study::summarize_campaign(result.records);
  std::cout << study::render_ascii(summary);
  BenchJson json("combined_faults", s);
  add_campaign_headlines(json, summary);

  // Welch t-tests: combination vs its dominant single fault type, on the
  // per-trial AD samples of each level.
  const auto ad_samples = [&](std::size_t level) {
    const std::string name = spec.fault_level_name(level);
    std::vector<double> out;
    for (const study::CellRecord& r : result.records) {
      if (r.fault_level == name) out.push_back(r.ad);
    }
    return out;
  };
  struct Pair {
    std::size_t combined;
    std::size_t single;
    const char* label;
  };
  const Pair pairs[] = {
      {3, 0, "mislabel+removal    vs mislabel  "},
      {4, 0, "mislabel+repetition vs mislabel  "},
      {5, 2, "removal+repetition  vs repetition"},
  };
  std::cout << "Welch t-tests on per-trial AD samples (the paper reports "
               "all three pairs statistically similar):\n";
  for (const Pair& p : pairs) {
    const WelchResult w = welch_t_test(ad_samples(p.combined), ad_samples(p.single));
    std::cout << "  " << p.label << ": t=" << fixed(w.t, 2)
              << " dof=" << fixed(w.dof, 1)
              << (w.significant_at_05 ? "  -> DIFFERENT at 5%"
                                      : "  -> statistically similar")
              << '\n';
    json.add(std::string("welch.") + p.label, w.t);
  }
  std::cout << "elapsed: " << fixed(watch.elapsed_seconds(), 1) << "s\n";
  json.add("elapsed_seconds", watch.elapsed_seconds());
  json.emit(s);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
