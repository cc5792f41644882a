// Ablation — label relaxation vs classical label smoothing, and the
// AD-vs-naive-drop metric comparison (DESIGN.md §5).
//
// Table I selects *label relaxation* [16] as the representative of the
// label-smoothing family; classical fixed-alpha smoothing is the obvious
// foil.  This bench compares both (at two alphas each) against the
// baseline under mislabelling, and prints the same cells under the naive
// accuracy-drop metric to show why the paper's AD definition matters.
#include "bench_common.hpp"

int main(int argc, char** argv) try {
  using namespace tdfm;
  using namespace tdfm::bench;

  CliParser cli;
  cli.add_flag("percent", "30", "mislabelling percentage");
  BenchSettings s;
  if (!parse_bench_flags(argc, argv, cli, s, /*trials=*/2, /*epochs=*/16,
                         /*scale=*/0.5, /*width=*/8)) {
    return 0;
  }
  print_banner("ablation: label relaxation vs classical smoothing", s);

  struct Variant {
    const char* label;
    bool relaxation;
    float alpha;
  };
  const std::vector<Variant> variants{
      {"relaxation a=0.1 (paper)", true, 0.1F},
      {"relaxation a=0.3", true, 0.3F},
      {"classical  a=0.1", false, 0.1F},
      {"classical  a=0.3", false, 0.3F},
  };

  obs::Stopwatch watch;
  BenchJson json("ablation_ls_variant", s);
  AsciiTable table({"variant", "AD", "naive drop", "accuracy"});
  // The Fig. 3 grid narrowed to one ConvNet cell; the baseline row comes
  // first, then LS under each variant's hyperparameters.
  study::StudySpec spec = preset_with_settings("fig3-mislabelling", s);
  spec.models = {models::Arch::kConvNet};
  spec.fault_levels = {{faults::FaultSpec{faults::FaultType::kMislabelling,
                                          cli.get_double("percent")}}};
  spec.techniques = {mitigation::TechniqueKind::kBaseline};

  const auto add_row = [&](const char* label) {
    const auto result = study::run_campaign(spec, campaign_run_options(s));
    const study::GroupStats g =
        study::summarize_campaign(result.records).groups.front();
    table.add_row({label, percent_with_ci(g.ad.mean, g.ad.ci95_half_width),
                   percent(g.naive_drop.mean), percent(g.faulty_accuracy.mean, 0)});
    json.add(std::string(label) + ".ad", g.ad.mean);
    json.add(std::string(label) + ".naive_drop", g.naive_drop.mean);
  };

  add_row("baseline (no technique)");
  spec.techniques = {mitigation::TechniqueKind::kLabelSmoothing};
  for (const Variant& v : variants) {
    spec.hyperparams.ls_use_relaxation = v.relaxation;
    spec.hyperparams.ls_alpha = v.alpha;
    add_row(v.label);
  }
  std::cout << table.render()
            << "\nnotes: AD and naive drop diverge whenever the protected "
               "model trades mistakes instead of losing accuracy outright — "
               "AD (§III-C) counts only golden-correct images lost.\n";
  std::cout << "elapsed: " << fixed(watch.elapsed_seconds(), 1) << "s\n";
  json.add("elapsed_seconds", watch.elapsed_seconds());
  json.emit(s);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
