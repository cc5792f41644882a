// Traffic-sign recognition scenario (the paper's second safety-critical
// domain): an AV stack trains a sign classifier on GTSRB-like data whose
// labels were produced by an automatic labeller that sometimes errs, and
// whose collection pipeline sometimes drops frames (removal faults).
//
// Demonstrates the ensemble technique end to end, including the per-member
// view — why architectural diversity lets majority voting absorb faults.
//
//   $ ./examples/traffic_signs [--fault removal] [--percent 30]
#include <iostream>

#include "core/cli.hpp"
#include "core/table.hpp"
#include "core/thread_pool.hpp"
#include "data/synthetic.hpp"
#include "faults/fault_injector.hpp"
#include "kernels/kernels.hpp"
#include "metrics/metrics.hpp"
#include "mitigation/baseline.hpp"
#include "mitigation/ensemble.hpp"

int main(int argc, char** argv) try {
  // A bad TDFM_KERNEL fails here, before any work.
  (void)tdfm::kernels::active_kernel();
  using namespace tdfm;

  CliParser cli;
  cli.add_flag("fault", "mislabelling", "fault type: mislabelling|repetition|removal");
  cli.add_flag("percent", "30", "fault percentage");
  cli.add_flag("epochs", "10", "training epochs");
  cli.add_flag("scale", "0.5", "dataset scale");
  cli.add_flag("seed", "3", "random seed");
  cli.add_flag("threads", "0",
               "worker threads (0 = hardware concurrency, 1 = serial)");
  add_obs_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  apply_obs_flags(cli);
  core::ThreadPool::set_global_threads(cli.get_size("threads"));

  data::SyntheticSpec spec;
  spec.kind = data::DatasetKind::kGtsrbSim;
  spec.scale = cli.get_double("scale");
  spec.seed = cli.get_u64("seed");
  const auto dataset = data::generate(spec);
  std::cout << "GTSRB-sim: " << dataset.train.size() << " train / "
            << dataset.test.size() << " test images, "
            << dataset.train.num_classes << " sign classes\n";

  Rng rng(spec.seed ^ 0x51615ULL);
  faults::InjectionReport report;
  const data::Dataset faulty = faults::inject(
      dataset.train,
      faults::FaultSpec{faults::fault_from_name(cli.get_string("fault")),
                        cli.get_double("percent")},
      rng, &report);
  std::cout << "injected: " << report.mislabelled << " mislabelled, "
            << report.repeated << " repeated, " << report.removed
            << " removed (" << report.original_size << " -> "
            << report.resulting_size << " samples)\n\n";

  nn::TrainOptions opts;
  opts.epochs = cli.get_size("epochs");

  // Golden reference: ResNet18 on clean data.
  mitigation::FitContext ctx;
  ctx.train = &dataset.train;
  ctx.primary_arch = models::Arch::kResNet18;
  ctx.model_config = models::ModelConfig::for_dataset(spec);
  ctx.train_opts = opts;
  Rng golden_rng = rng.fork(1);
  ctx.rng = &golden_rng;
  const auto golden = mitigation::BaselineTechnique().fit(ctx);
  const auto golden_preds = golden->predict(dataset.test.images);
  std::cout << "golden ResNet18 accuracy: "
            << percent(metrics::accuracy(golden_preds, dataset.test.labels))
            << "\n";

  // The paper's five-member ensemble on the faulty data.
  mitigation::EnsembleTechnique ens;
  mitigation::FitContext ens_ctx = ctx;
  ens_ctx.train = &faulty;
  Rng ens_rng = rng.fork(2);
  ens_ctx.rng = &ens_rng;
  auto fitted = ens.fit(ens_ctx);
  auto* ensemble = dynamic_cast<mitigation::EnsembleClassifier*>(fitted.get());
  TDFM_CHECK(ensemble != nullptr, "ensemble technique returns EnsembleClassifier");

  // Per-member accuracies: diversity means members err on different inputs.
  AsciiTable table({"member", "architecture", "accuracy on faulty training"});
  for (std::size_t m = 0; m < ensemble->size(); ++m) {
    const auto preds = nn::predict_classes(ensemble->member(m), dataset.test.images);
    table.add_row({std::to_string(m + 1), ensemble->member(m).name(),
                   percent(metrics::accuracy(preds, dataset.test.labels))});
  }
  const auto ens_preds = ensemble->predict(dataset.test.images);
  std::cout << table.render() << "majority vote accuracy:   "
            << percent(metrics::accuracy(ens_preds, dataset.test.labels))
            << "\nAD vs golden:             "
            << percent(metrics::accuracy_delta(golden_preds, ens_preds,
                                               dataset.test.labels))
            << "\n\nThe vote typically beats most individual members: faults "
               "push different architectures toward different mistakes, and "
               "the majority recovers (§IV-B).\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
