// Online pipeline walkthrough: the closed loop in ~40 lines of config.
//
// A faulty stream (20% mislabelled) feeds an ingest buffer; every second
// round a candidate is retrained on the latest window and judged by the
// canary controller with the paper's AD metric; passing candidates are
// hot-swapped into the serving engine.  At round 3 a corruption drill
// damages the live weights behind the canary's back — the next health check
// catches the breach and rolls back to the last good version.
//
//   $ ./examples/online_pipeline [--rounds 8] [--metrics]
#include <iostream>

#include "core/cli.hpp"
#include "core/logging.hpp"
#include "core/table.hpp"
#include "core/thread_pool.hpp"
#include "kernels/kernels.hpp"
#include "pipeline/pipeline.hpp"

int main(int argc, char** argv) try {
  // A bad TDFM_KERNEL fails here, before any work.
  (void)tdfm::kernels::active_kernel();
  using namespace tdfm;
  CliParser cli;
  cli.add_flag("rounds", "8", "stream rounds to run");
  cli.add_flag("seed", "7", "master seed (decisions replay bit-identically)");
  add_obs_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  apply_obs_flags(cli);
  core::ThreadPool::set_global_threads(2);

  pipeline::PipelineConfig cfg;
  cfg.dataset.scale = 0.6;                  // CIFAR-10-sim, bench scale
  cfg.stream.mislabel_percent = 20.0;       // the paper's mid-range fault
  cfg.stream.chunk_size = 96;
  cfg.ingest.window = 192;
  cfg.retrain.train_opts.epochs = 6;
  cfg.retrain.train_opts.threads = 2;
  cfg.canary.ad_threshold = 0.5;            // promotion guardrail
  cfg.canary.rollback_factor = 1.4;         // health rollback at 0.7
  cfg.rounds = cli.get_size("rounds");
  cfg.corrupt_round = 3;                    // the drill
  cfg.corruption.mode = pipeline::CorruptionMode::kSignFlip;
  cfg.corruption.fraction = 0.2;
  cfg.bootstrap_epochs = 4;
  cfg.seed = cli.get_u64("seed");

  pipeline::OnlinePipeline pipe(cfg);
  const pipeline::PipelineResult result = pipe.run();

  for (const pipeline::Decision& d : result.decisions) {
    std::cout << "round " << d.round << ": " << pipeline::action_name(d.action)
              << "  live=v" << d.live_version << " -> v"
              << d.candidate_version << "  " << d.reason << "\n";
  }
  std::cout << "\nfinal: v" << result.live_version << " serving after "
            << result.promotions << " promotion(s), " << result.rollbacks
            << " rollback(s), " << result.corruptions << " drill(s); "
            << result.samples_streamed << " faulty samples streamed, traffic "
            << "accuracy " << fixed(result.traffic_accuracy(), 3) << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "online_pipeline: " << e.what() << "\n";
  return 1;
}
