// E1 — §II / §III-D motivating example.
//
// Pneumonia dataset, ResNet50, 10% mislabelling.  The paper reports: golden
// accuracy 90%, unprotected faulty accuracy 55%, and per-technique AD of
// LS 5%, LC 29%, RL 15%, KD 13%, Ens 5% — label smoothing and ensembles are
// the most resilient.  This bench regenerates those rows.
//
// Thin wrapper over the `motivating-example` study preset: the grid lives in
// src/study/presets.cpp; this binary applies the scaling flags and renders
// the campaign summary plus the faulty-accuracy row.
#include "bench_common.hpp"

int main(int argc, char** argv) try {
  using namespace tdfm;
  using namespace tdfm::bench;

  CliParser cli;
  BenchSettings s;
  if (!parse_bench_flags(argc, argv, cli, s, /*trials=*/2, /*epochs=*/8,
                         /*scale=*/1.0, /*width=*/8)) {
    return 0;
  }
  print_banner("E1: motivating example — Pneumonia, ResNet50, 10% mislabelling", s);

  const study::StudySpec spec = preset_with_settings("motivating-example", s);
  obs::Stopwatch watch;
  const auto result = study::run_campaign(spec, campaign_run_options(s));
  const auto summary = study::summarize_campaign(result.records);
  std::cout << study::render_ascii(summary);
  std::cout << "accuracy under 10% mislabelling:";
  for (const study::GroupStats& g : summary.groups) {
    std::cout << "  " << g.technique << " " << percent(g.faulty_accuracy.mean, 0);
  }
  std::cout << "\n\npaper reference: golden 90%, faulty base 55% accuracy; AD "
               "LS 5%, LC 29%, RL 15%, KD 13%, Ens 5%\n";
  std::cout << "elapsed: " << fixed(watch.elapsed_seconds(), 1) << "s\n";
  BenchJson json("motivating_example", s);
  add_campaign_headlines(json, summary);
  json.add("elapsed_seconds", watch.elapsed_seconds());
  json.emit(s);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
