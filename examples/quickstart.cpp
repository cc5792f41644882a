// Quickstart: train a model on faulty data, protect it with a TDFM
// technique, and measure the accuracy delta — the library's core loop in
// ~60 lines.
//
//   $ ./examples/quickstart [--technique LS] [--fault-percent 30]
#include <iostream>

#include "core/cli.hpp"
#include "core/logging.hpp"
#include "core/table.hpp"
#include "core/thread_pool.hpp"
#include "data/synthetic.hpp"
#include "faults/fault_injector.hpp"
#include "kernels/kernels.hpp"
#include "metrics/metrics.hpp"
#include "mitigation/baseline.hpp"
#include "mitigation/registry.hpp"

int main(int argc, char** argv) try {
  // A bad TDFM_KERNEL fails here, before any work.
  (void)tdfm::kernels::active_kernel();
  using namespace tdfm;

  CliParser cli;
  cli.add_flag("technique", "LS", "TDFM technique: Base|LS|LC|RL|KD|Ens");
  cli.add_flag("fault-percent", "30", "percentage of training data to mislabel");
  cli.add_flag("epochs", "8", "training epochs");
  cli.add_flag("seed", "7", "random seed");
  cli.add_flag("threads", "0",
               "worker threads (0 = hardware concurrency, 1 = serial)");
  add_obs_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  set_log_level(LogLevel::kInfo);
  apply_obs_flags(cli);
  core::ThreadPool::set_global_threads(cli.get_size("threads"));

  // 1. Generate a dataset (GTSRB-like traffic signs, 43 classes).
  data::SyntheticSpec spec;
  spec.kind = data::DatasetKind::kGtsrbSim;
  spec.seed = cli.get_u64("seed");
  const data::TrainTestPair dataset = data::generate(spec);
  std::cout << "dataset: " << dataset.train.name << " (" << dataset.train.size()
            << " train / " << dataset.test.size() << " test, "
            << dataset.train.num_classes << " classes)\n";

  // 2. Inject mislabelling faults into the training data.
  Rng rng(spec.seed);
  faults::InjectionReport report;
  const data::Dataset faulty = faults::inject(
      dataset.train,
      faults::FaultSpec{faults::FaultType::kMislabelling,
                        cli.get_double("fault-percent")},
      rng, &report);
  std::cout << "injected " << report.mislabelled << " label faults\n";

  // 3. Train the golden model (clean data, no technique) and the protected
  //    model (faulty data + chosen technique).
  nn::TrainOptions opts;
  opts.epochs = cli.get_size("epochs");
  const auto arch = models::Arch::kConvNet;

  mitigation::FitContext golden_ctx;
  golden_ctx.train = &dataset.train;
  golden_ctx.primary_arch = arch;
  golden_ctx.model_config = models::ModelConfig::for_dataset(spec);
  golden_ctx.train_opts = opts;
  Rng golden_rng = rng.fork(1);
  golden_ctx.rng = &golden_rng;
  const auto golden = mitigation::BaselineTechnique().fit(golden_ctx);

  auto technique = mitigation::make_technique(
      mitigation::technique_from_name(cli.get_string("technique")));
  mitigation::FitContext ctx = golden_ctx;
  ctx.train = &faulty;
  Rng fit_rng = rng.fork(2);
  ctx.rng = &fit_rng;
  const auto protected_model = technique->fit(ctx);

  // 4. Compare on the test set.
  const auto golden_preds = golden->predict(dataset.test.images);
  const auto faulty_preds = protected_model->predict(dataset.test.images);
  const double golden_acc = metrics::accuracy(golden_preds, dataset.test.labels);
  const double faulty_acc = metrics::accuracy(faulty_preds, dataset.test.labels);
  const double ad =
      metrics::accuracy_delta(golden_preds, faulty_preds, dataset.test.labels);

  std::cout << "\ngolden accuracy:               " << percent(golden_acc)
            << "\nprotected (" << technique->name()
            << ") accuracy:       " << percent(faulty_acc)
            << "\naccuracy delta (lower=better): " << percent(ad) << '\n';
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
