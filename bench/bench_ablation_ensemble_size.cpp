// Ablation — ensemble size and composition (DESIGN.md §5).
//
// The paper fixes n = 5 (found most effective in the authors' prior work
// [21]) with the five lowest-baseline-AD members.  This ablation sweeps the
// member count and compares a diverse member set against a homogeneous one
// (five ConvNets), quantifying how much of the ensemble's resilience comes
// from *diversity* rather than mere replication (§IV-B's claim).
#include "bench_common.hpp"

#include "mitigation/ensemble.hpp"

int main(int argc, char** argv) try {
  using namespace tdfm;
  using namespace tdfm::bench;

  CliParser cli;
  cli.add_flag("percent", "30", "mislabelling percentage");
  BenchSettings s;
  if (!parse_bench_flags(argc, argv, cli, s, /*trials=*/2, /*epochs=*/10,
                         /*scale=*/0.5, /*width=*/8)) {
    return 0;
  }
  print_banner("ablation: ensemble size & diversity (DESIGN.md §5)", s);

  using models::Arch;
  struct Variant {
    const char* label;
    std::vector<Arch> members;
  };
  const std::vector<Variant> variants{
      {"n=1 (ConvNet)", {Arch::kConvNet}},
      {"n=3 diverse", {Arch::kConvNet, Arch::kVGG11, Arch::kMobileNet}},
      {"n=5 diverse (paper)", mitigation::EnsembleTechnique::default_members()},
      {"n=5 homogeneous",
       {Arch::kConvNet, Arch::kConvNet, Arch::kConvNet, Arch::kConvNet,
        Arch::kConvNet}},
  };

  // The Fig. 3 grid narrowed to one ConvNet cell; only the member set moves.
  study::StudySpec spec = preset_with_settings("fig3-mislabelling", s);
  spec.models = {Arch::kConvNet};
  spec.fault_levels = {{faults::FaultSpec{faults::FaultType::kMislabelling,
                                          cli.get_double("percent")}}};
  spec.techniques = {mitigation::TechniqueKind::kEnsemble};

  obs::Stopwatch watch;
  BenchJson json("ablation_ensemble_size", s);
  AsciiTable table({"variant", "AD", "accuracy", "train time"});
  for (const Variant& v : variants) {
    spec.hyperparams.ens_members = v.members;
    const auto result = study::run_campaign(spec, campaign_run_options(s));
    const study::GroupStats g =
        study::summarize_campaign(result.records).groups.front();
    table.add_row({v.label, percent_with_ci(g.ad.mean, g.ad.ci95_half_width),
                   percent(g.faulty_accuracy.mean, 0),
                   fixed(g.train_seconds.mean, 1) + "s"});
    json.add(std::string(v.label) + ".ad", g.ad.mean);
    json.add(std::string(v.label) + ".train_seconds", g.train_seconds.mean);
  }
  std::cout << table.render()
            << "\nexpected shape: AD falls as members are added, and the "
               "diverse 5-member set beats five copies of one architecture "
               "(architectural diversity is the mechanism, §IV-B).\n";
  std::cout << "elapsed: " << fixed(watch.elapsed_seconds(), 1) << "s\n";
  json.add("elapsed_seconds", watch.elapsed_seconds());
  json.emit(s);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
