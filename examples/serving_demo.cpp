// Serving walkthrough: train -> checkpoint -> serve -> hot swap.
//
// Trains two quick ConvNet generations on progressively more data, ships
// each as a self-describing v2 checkpoint, serves generation 1 behind an
// InferenceEngine, then hot-swaps to generation 2 while requests are in
// flight.  Run with --metrics to see the serve.* counters and histograms.
//
//   $ ./examples/serving_demo [--epochs 3] [--requests 200] [--metrics]
#include <future>
#include <iostream>
#include <vector>

#include "core/cli.hpp"
#include "core/logging.hpp"
#include "core/table.hpp"
#include "core/thread_pool.hpp"
#include "data/synthetic.hpp"
#include "kernels/kernels.hpp"
#include "nn/checkpoint.hpp"
#include "nn/loss.hpp"
#include "nn/trainer.hpp"
#include "serve/serve.hpp"

namespace {

using namespace tdfm;

/// Plain cross-entropy fit — the serving layer does not care how (or with
/// which TDFM technique) a checkpoint was trained.
void fit(nn::Network& net, const data::Dataset& train, std::size_t epochs,
         std::size_t threads, Rng& rng) {
  const Tensor targets = nn::one_hot(train.labels, train.num_classes);
  nn::CrossEntropyLoss ce;
  nn::TrainOptions opts;
  opts.epochs = epochs;
  opts.threads = threads;
  nn::Trainer trainer(opts);
  trainer.fit(
      net, train.images,
      [&](const Tensor& logits, std::span<const std::size_t> idx, Tensor& grad) {
        return ce.compute(logits, nn::Trainer::gather(targets, idx), grad);
      },
      rng);
}

Tensor slice_sample(const Tensor& images, std::size_t i) {
  std::vector<std::size_t> dims;
  for (std::size_t d = 1; d < images.rank(); ++d) dims.push_back(images.dim(d));
  Tensor out{Shape(dims)};
  for (std::size_t j = 0; j < out.numel(); ++j) {
    out[j] = images[i * out.numel() + j];
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  // A bad TDFM_KERNEL fails here, before any work.
  (void)tdfm::kernels::active_kernel();
  using namespace tdfm;
  CliParser cli;
  cli.add_flag("epochs", "3", "training epochs per model generation");
  cli.add_flag("requests", "200", "requests to send per serving phase");
  cli.add_flag("workers", "2", "engine worker threads (they share the served network)");
  cli.add_flag("seed", "7", "random seed");
  cli.add_flag("threads", "0", "training threads (0 = hardware concurrency)");
  add_obs_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  set_log_level(LogLevel::kInfo);
  apply_obs_flags(cli);
  core::ThreadPool::set_global_threads(cli.get_size("threads"));
  const auto epochs = cli.get_size("epochs");
  const auto requests = cli.get_size("requests");
  const auto workers = cli.get_size("workers");
  const std::uint64_t seed = cli.get_u64("seed");

  // 1. Train generation 1 on half the data and generation 2 on all of it,
  //    saving each as a v2 checkpoint (header carries arch + geometry).
  data::SyntheticSpec spec;
  spec.kind = data::DatasetKind::kCifar10Sim;
  spec.seed = seed;
  const data::TrainTestPair full = data::generate(spec);
  spec.scale = 0.5;
  const data::TrainTestPair half = data::generate(spec);
  const models::ModelConfig config = models::ModelConfig::for_dataset(spec);
  const nn::CheckpointMeta meta =
      models::checkpoint_meta(models::Arch::kConvNet, config);

  Rng rng(seed);
  std::cout << "training generation 1 (" << half.train.size() << " samples)...\n";
  auto gen1 = models::build_model(models::Arch::kConvNet, config, rng);
  fit(*gen1, half.train, epochs, core::ThreadPool::global_threads(), rng);
  nn::save_checkpoint(*gen1, "model_v1.ckpt", meta);

  std::cout << "training generation 2 (" << full.train.size() << " samples)...\n";
  auto gen2 = models::build_model(models::Arch::kConvNet, config, rng);
  fit(*gen2, full.train, epochs, core::ThreadPool::global_threads(), rng);
  nn::save_checkpoint(*gen2, "model_v2.ckpt", meta);

  // 2. Serve generation 1.  The registry reads the architecture from the
  //    checkpoint header — no model-specific wiring here.
  serve::ModelRegistry registry;
  std::cout << "serving model_v1.ckpt (version "
            << registry.load("classifier", "model_v1.ckpt") << ")\n";
  serve::EngineConfig ecfg;
  ecfg.workers = workers;
  ecfg.batching.max_batch_size = 8;
  ecfg.batching.max_queue_delay_us = 500;
  serve::InferenceEngine engine(registry, "classifier", ecfg);

  const auto send_burst = [&](const char* label) {
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
      futures.push_back(
          engine.submit(slice_sample(full.test.images, i % full.test.size())));
    }
    std::size_t correct = 0;
    std::size_t served = 0;
    std::uint64_t version = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const serve::Response r = futures[i].get();
      if (!r.ok()) continue;
      ++served;
      version = r.model_version;
      if (r.predicted_class == full.test.labels[i % full.test.size()]) ++correct;
    }
    std::cout << label << ": " << served << "/" << requests
              << " served by version " << version << ", accuracy "
              << percent(static_cast<double>(correct) /
                             static_cast<double>(served ? served : 1),
                         1)
              << "\n";
  };
  send_burst("generation 1");

  // 3. Hot swap to generation 2 — one atomic publish; the engine keeps
  //    draining without a pause and in-flight batches finish on version 1.
  std::cout << "hot-swapping to model_v2.ckpt (version "
            << registry.load("classifier", "model_v2.ckpt") << ")\n";
  send_burst("generation 2");

  const serve::EngineStats stats = engine.stats();
  std::cout << "engine: " << stats.served << " served over " << stats.batches
            << " batches (avg batch "
            << fixed(static_cast<double>(stats.served) /
                         static_cast<double>(stats.batches ? stats.batches : 1),
                     1)
            << ")\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "serving_demo failed: " << e.what() << "\n";
  return 1;
}
