// Medical-diagnosis scenario (the paper's motivating domain, §II).
//
// A hospital trains a pneumonia screening model on a small chest-X-ray
// dataset in which some labels are wrong.  This example walks the full
// decision a practitioner faces: how bad is the damage, which mitigation
// should I deploy, and what does it cost me?
//
//   $ ./examples/medical_diagnosis [--mislabel-percent 10] [--epochs 20]
#include <iostream>

#include "core/cli.hpp"
#include "core/table.hpp"
#include "core/thread_pool.hpp"
#include "data/synthetic.hpp"
#include "faults/fault_injector.hpp"
#include "kernels/kernels.hpp"
#include "metrics/metrics.hpp"
#include "mitigation/baseline.hpp"
#include "mitigation/registry.hpp"
#include "obs/stopwatch.hpp"

int main(int argc, char** argv) try {
  // A bad TDFM_KERNEL fails here, before any work.
  (void)tdfm::kernels::active_kernel();
  using namespace tdfm;

  CliParser cli;
  cli.add_flag("mislabel-percent", "10", "fraction of labels flipped");
  cli.add_flag("epochs", "20", "training epochs");
  cli.add_flag("seed", "21", "random seed");
  cli.add_flag("threads", "0",
               "worker threads (0 = hardware concurrency, 1 = serial)");
  add_obs_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  apply_obs_flags(cli);
  core::ThreadPool::set_global_threads(cli.get_size("threads"));

  // The Pneumonia-sim dataset: binary chest-X-ray analogue, deliberately
  // small (~120 train images) like the real 5.2k-image dataset relative to
  // CIFAR-scale corpora.
  data::SyntheticSpec spec;
  spec.kind = data::DatasetKind::kPneumoniaSim;
  spec.seed = cli.get_u64("seed");
  const auto dataset = data::generate(spec);
  std::cout << "Pneumonia-sim: " << dataset.train.size() << " train / "
            << dataset.test.size() << " test images\n\n";

  // Mislabelled training data, as §II's motivating example.
  Rng rng(spec.seed ^ 0xfeedULL);
  const double pct = cli.get_double("mislabel-percent");
  const data::Dataset faulty = faults::inject(
      dataset.train, faults::FaultSpec{faults::FaultType::kMislabelling, pct}, rng);

  nn::TrainOptions opts;
  opts.epochs = cli.get_size("epochs");
  opts.batch_size = 8;  // small dataset -> small batches
  const auto arch = models::Arch::kResNet50;  // as in §II

  mitigation::FitContext base_ctx;
  base_ctx.train = &dataset.train;
  base_ctx.primary_arch = arch;
  base_ctx.model_config = models::ModelConfig::for_dataset(spec);
  base_ctx.train_opts = opts;
  Rng golden_rng = rng.fork(1);
  base_ctx.rng = &golden_rng;
  const auto golden = mitigation::BaselineTechnique().fit(base_ctx);
  const auto golden_preds = golden->predict(dataset.test.images);
  const double golden_acc = metrics::accuracy(golden_preds, dataset.test.labels);
  std::cout << "golden model (clean data):     " << percent(golden_acc) << "\n\n";

  // Try every technique on the faulty data and report the practitioner's
  // decision table: accuracy, AD, and training cost.
  AsciiTable table({"technique", "accuracy", "AD (lower=better)", "train time",
                    "models at inference"});
  for (const auto kind : mitigation::all_techniques()) {
    auto technique = mitigation::make_technique(kind);
    mitigation::FitContext ctx = base_ctx;
    ctx.train = &faulty;
    Rng fit_rng = rng.fork(100 + static_cast<std::uint64_t>(kind));
    ctx.rng = &fit_rng;
    obs::Stopwatch watch;
    const auto model = technique->fit(ctx);
    const double train_s = watch.elapsed_seconds();
    const auto preds = model->predict(dataset.test.images);
    table.add_row({technique->name(),
                   percent(metrics::accuracy(preds, dataset.test.labels)),
                   percent(metrics::accuracy_delta(golden_preds, preds,
                                                   dataset.test.labels)),
                   fixed(train_s, 1) + "s",
                   fixed(model->inference_model_count(), 0)});
  }
  std::cout << "with " << pct << "% mislabelled training data:\n"
            << table.render()
            << "\nPaper's conclusion (§V): ensembles are the most resilient "
               "but cost ~5x; label smoothing is the practical alternative "
               "under resource constraints.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
