// pipeline_runner: drive the online faulty-stream pipeline end to end.
//
// One process runs the full closed loop — faulty stream ingest, windowed
// retraining with a chosen mitigation technique, AD-guarded canary judgement,
// hot swap through the model registry — and prints the decision history.
// With --rounds (the default) the run is fully deterministic: the decision
// log (--decision-log) is bit-identical across reruns and --jobs counts,
// which scripts/pipeline_smoke.sh asserts with cmp.  --duration switches to
// wall-clock mode for soak runs (log no longer replay-stable).
//
//   pipeline_runner --fault-rate 30 --window 96 --retrain-every 2
//       --canary-fraction 0.25 --ad-threshold 0.15 --rounds 8 --seed 7
//       --corrupt-round 3 --decision-log decisions.jsonl --out result.json
#include "bench_common.hpp"
#include "pipeline/pipeline.hpp"

namespace tdfm {
namespace {

int run(int argc, char** argv) {
  CliParser cli;
  cli.add_flag("dataset", "cifar10", "cifar10|gtsrb|pneumonia (simulated)");
  cli.add_flag("model", "ConvNet", "zoo architecture to retrain");
  cli.add_flag("technique", "Base",
               "mitigation technique for retraining: Base|LS|LC|RL|KD");
  cli.add_flag("fault-rate", "20", "stream mislabelling rate (percent)");
  cli.add_flag("repeat-rate", "0", "stream repetition rate (percent)");
  cli.add_flag("remove-rate", "0", "stream removal rate (percent)");
  cli.add_flag("chunk", "48", "base samples per stream chunk");
  cli.add_flag("window", "96", "samples per retraining window");
  cli.add_flag("hop", "0", "window hop (0 = tumbling)");
  cli.add_flag("capacity", "0", "ingest buffer bound (0 = 4x window)");
  cli.add_flag("retrain-every", "2", "rounds between retraining attempts");
  cli.add_flag("rounds", "8", "rounds to run (0 = use --duration)");
  cli.add_flag("duration", "0", "wall-clock seconds to run when --rounds 0");
  cli.add_flag("serve-per-round", "24", "live requests served per round");
  cli.add_flag("canary-fraction", "0.25", "test fraction held as canary slice");
  cli.add_flag("ad-threshold", "0.1", "promotion guardrail: max candidate AD");
  cli.add_flag("accuracy-margin", "0.05",
               "candidate may trail live accuracy by this much");
  cli.add_flag("rollback-factor", "1.5",
               "rollback threshold as a multiple of --ad-threshold");
  cli.add_flag("metamorphic", "0", "metamorphic re-training augmentation");
  cli.add_flag("meta-factor", "1", "augmented copies per sample");
  cli.add_flag("fault-aware", "0",
               "fault-aware training: corrupt weights each epoch (baseline)");
  cli.add_flag("quantize", "0", "serve promoted candidates in q8_0 form");
  cli.add_flag("corrupt-round", "0",
               "corruption drill round: install damaged weights bypassing "
               "the canary (0 = off)");
  cli.add_flag("corrupt-mode", "signflip", "bitflip|signflip|zero|perturb");
  cli.add_flag("corrupt-fraction", "0.05", "drill per-scalar hit probability");
  cli.add_flag("bootstrap-epochs", "1", "epochs of the weak initial version");
  cli.add_flag("max-batch", "8", "serving micro-batch flush threshold");
  cli.add_flag("queue-delay-us", "500", "serving oldest-request wait bound");
  cli.add_flag("queue-depth", "256", "serving admission bound");
  cli.add_flag("decision-log", "",
               "append decisions to this JSONL file (crash-safe)");
  cli.add_flag("ckpt-dir", "",
               "promote via self-describing checkpoints in this directory");

  bench::BenchSettings settings;
  if (!bench::parse_bench_flags(argc, argv, cli, settings,
                                /*default_trials=*/1, /*default_epochs=*/2,
                                /*default_scale=*/0.4)) {
    return 0;
  }

  pipeline::PipelineConfig cfg;
  cfg.dataset.kind = data::dataset_from_name(cli.get_string("dataset"));
  cfg.dataset.scale = settings.scale;
  cfg.stream.mislabel_percent = cli.get_double("fault-rate");
  cfg.stream.repeat_percent = cli.get_double("repeat-rate");
  cfg.stream.remove_percent = cli.get_double("remove-rate");
  cfg.stream.chunk_size = cli.get_size("chunk");
  cfg.ingest.window = cli.get_size("window");
  cfg.ingest.hop = cli.get_size("hop");
  const std::size_t capacity = cli.get_size("capacity");
  cfg.ingest.capacity = capacity == 0 ? cfg.ingest.window * 4 : capacity;
  cfg.retrain.arch = models::arch_from_name(cli.get_string("model"));
  cfg.retrain.model_config.width = settings.width;
  cfg.retrain.technique =
      mitigation::technique_from_name(cli.get_string("technique"));
  cfg.retrain.train_opts.epochs = settings.epochs;
  cfg.retrain.train_opts.threads = settings.threads;
  cfg.retrain.metamorphic = cli.get_bool("metamorphic");
  cfg.retrain.metamorphic_factor = cli.get_size("meta-factor");
  cfg.retrain.fault_aware = cli.get_bool("fault-aware");
  cfg.canary.ad_threshold = cli.get_double("ad-threshold");
  cfg.canary.accuracy_margin = cli.get_double("accuracy-margin");
  cfg.canary.rollback_factor = cli.get_double("rollback-factor");
  cfg.engine.workers = std::max<std::size_t>(1, settings.jobs);
  cfg.engine.batching.max_batch_size = cli.get_size("max-batch");
  cfg.engine.batching.max_queue_delay_us = cli.get_u64("queue-delay-us");
  cfg.engine.batching.max_queue_depth = cli.get_size("queue-depth");
  cfg.canary_fraction = cli.get_double("canary-fraction");
  cfg.serve_per_round = cli.get_size("serve-per-round");
  cfg.retrain_every = cli.get_size("retrain-every");
  cfg.rounds = cli.get_size("rounds");
  cfg.duration_s = cli.get_double("duration");
  cfg.corrupt_round = cli.get_u64("corrupt-round");
  cfg.corruption.mode =
      pipeline::corruption_mode_from_name(cli.get_string("corrupt-mode"));
  cfg.corruption.fraction = cli.get_double("corrupt-fraction");
  cfg.quantize = cli.get_bool("quantize");
  cfg.bootstrap_epochs = cli.get_size("bootstrap-epochs");
  cfg.decision_log_path = cli.get_string("decision-log");
  cfg.checkpoint_dir = cli.get_string("ckpt-dir");
  cfg.seed = settings.seed;

  bench::print_banner("online pipeline: ingest -> retrain -> canary -> swap",
                      settings);
  std::cout << "stream: mislabel=" << cfg.stream.mislabel_percent
            << "% repeat=" << cfg.stream.repeat_percent
            << "% remove=" << cfg.stream.remove_percent
            << "%  window=" << cfg.ingest.window
            << " retrain-every=" << cfg.retrain_every
            << " ad-threshold=" << cfg.canary.ad_threshold
            << " workers=" << cfg.engine.workers
            << (cfg.quantize ? " q8_0" : " fp32") << "\n\n";

  pipeline::OnlinePipeline pipe(cfg);
  const pipeline::PipelineResult result = pipe.run();

  AsciiTable table({"round", "action", "live", "cand", "acc(c)", "acc(l)",
                    "ad", "reason"});
  for (const pipeline::Decision& d : result.decisions) {
    table.add_row({std::to_string(d.round), pipeline::action_name(d.action),
                   std::to_string(d.live_version),
                   std::to_string(d.candidate_version),
                   fixed(d.candidate_accuracy, 3), fixed(d.live_accuracy, 3),
                   fixed(d.candidate_ad, 3), d.reason});
  }
  std::cout << table.render();
  std::cout << "\nrounds=" << result.rounds_run
            << " promotions=" << result.promotions
            << " holds=" << result.holds
            << " rollbacks=" << result.rollbacks
            << " drills=" << result.corruptions
            << " live=v" << result.live_version << "\n"
            << "streamed=" << result.samples_streamed
            << " ingest{pushed=" << result.ingest.pushed
            << " dropped=" << result.ingest.dropped
            << " windows=" << result.ingest.windows
            << " watermark=" << result.ingest.watermark << "}\n"
            << "traffic: served=" << result.traffic_served
            << " accuracy=" << fixed(result.traffic_accuracy(), 4)
            << " engine{batches=" << result.engine.batches
            << " served=" << result.engine.served << "}\n";

  bench::BenchJson json("pipeline_runner", settings);
  json.add("rounds", static_cast<double>(result.rounds_run));
  json.add("promotions", static_cast<double>(result.promotions));
  json.add("holds", static_cast<double>(result.holds));
  json.add("rollbacks", static_cast<double>(result.rollbacks));
  json.add("drills", static_cast<double>(result.corruptions));
  json.add("live_version", static_cast<double>(result.live_version));
  json.add("samples_streamed", static_cast<double>(result.samples_streamed));
  json.add("ingest_dropped", static_cast<double>(result.ingest.dropped));
  json.add("traffic_accuracy", result.traffic_accuracy());
  json.add("decisions", static_cast<double>(result.decisions.size()));
  json.emit(settings);
  return 0;
}

}  // namespace
}  // namespace tdfm

int main(int argc, char** argv) {
  try {
    return tdfm::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pipeline_runner: " << e.what() << "\n";
    return 1;
  }
}
