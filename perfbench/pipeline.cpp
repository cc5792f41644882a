// pipeline: OnlinePipeline::run with the scripts/pipeline_smoke.sh story —
// epochs 6, bootstrap 4, window 192, chunk 96, scale 0.6, AD threshold 0.5,
// rollback factor 1.4, a sign-flip drill hitting 20% of the weights at round
// 7 of 16, 8 live requests per round, one engine worker, pool pinned to 1.
// Runs repeat until the window is spent (at least twice).
//
//   operation        one pipeline round (attempted/failed also count the
//                    live requests the rounds serve)
//   work_per_s       rounds / the OnlinePipeline::run wall time of the
//                    fastest run, bootstrap included
//   latency_p50_ms   that wall time / rounds: the fastest run's mean round
//   slo_met_share    rounds and live requests of runs whose decision log
//                    matches the first run's byte for byte, whose counts are
//                    complete, and whose mean round took at most kRoundLimitS
//
// Set-up times data::generate of the world the stream replays (the call
// OnlinePipeline::run itself opens with).
#include <algorithm>
#include <cstring>
#include <future>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "nn/trainer.hpp"
#include "obs/trace.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/serve.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tdfm;

constexpr std::size_t kSetupReps = 4;  ///< before and again after
constexpr std::size_t kMinRuns = 2;
/// Fixed limit on a run's mean round time for slo_met_share.
constexpr double kRoundLimitS = 0.5;

pipeline::PipelineConfig pipeline_config(const Options& opts) {
  pipeline::PipelineConfig cfg;
  cfg.dataset.kind = data::DatasetKind::kCifar10Sim;
  cfg.dataset.scale = opts.tiny ? 0.2 : 0.6;
  cfg.dataset.seed = opts.seed;
  cfg.stream.mislabel_percent = 20.0;
  cfg.stream.chunk_size = opts.tiny ? 24 : 96;
  cfg.ingest.window = opts.tiny ? 48 : 192;
  cfg.ingest.capacity = 4 * cfg.ingest.window;
  cfg.retrain.arch = models::Arch::kConvNet;
  cfg.retrain.model_config.width = 8;
  cfg.retrain.train_opts.epochs = opts.tiny ? 1 : 6;
  cfg.retrain.train_opts.threads = 1;
  cfg.canary.ad_threshold = 0.5;
  cfg.canary.accuracy_margin = 0.05;
  cfg.canary.rollback_factor = 1.4;
  cfg.engine.workers = 1;
  cfg.engine.batching.max_batch_size = 8;
  cfg.engine.batching.max_queue_delay_us = 500;
  cfg.engine.batching.max_queue_depth = 256;
  cfg.canary_fraction = 0.25;
  cfg.serve_per_round = 8;
  cfg.retrain_every = 2;
  cfg.rounds = opts.tiny ? 4 : 16;
  cfg.corrupt_round = opts.tiny ? 3 : 7;
  cfg.corruption.mode = pipeline::CorruptionMode::kSignFlip;
  cfg.corruption.fraction = 0.2;
  cfg.bootstrap_epochs = opts.tiny ? 1 : 4;
  cfg.seed = opts.seed;
  return cfg;
}

struct Run {
  pipeline::PipelineResult result;
  double wall_s = 0.0;
  std::string log;  ///< digest of the decision log
};

Run run_once(const pipeline::PipelineConfig& cfg) {
  Run run;
  pipeline::OnlinePipeline pipe(cfg);
  const auto t0 = Clock::now();
  run.result = pipe.run();
  run.wall_s = seconds_since(t0);
  std::string lines;
  for (const pipeline::Decision& d : run.result.decisions) lines += pipeline::to_jsonl(d) + "\n";
  run.log = digest(lines);
  return run;
}

/// Folds the runs' checks into `out`; returns the operations that met the
/// limit.
std::size_t account(const std::vector<Run>& runs, const pipeline::PipelineConfig& cfg,
                    Result& out) {
  std::size_t met = 0;
  const std::size_t ops = cfg.rounds + cfg.rounds * cfg.serve_per_round;
  for (const Run& run : runs) {
    out.attempted += ops;
    const pipeline::PipelineResult& r = run.result;
    const bool complete = r.rounds_run == cfg.rounds &&
                          r.traffic_served == cfg.rounds * cfg.serve_per_round &&
                          r.engine.rejected_capacity == 0 && r.engine.rejected_deadline == 0 &&
                          r.engine.rejected_no_model == 0;
    if (run.log != runs.front().log || !complete) {
      out.fail("pipeline run with decision log " + run.log + " (first " + runs.front().log +
               ")" + (complete ? "" : ", incomplete counts"));
      out.failed += ops;
      continue;
    }
    if (run.wall_s / static_cast<double>(cfg.rounds) <= kRoundLimitS) met += ops;
  }
  const pipeline::PipelineResult& r = runs.front().result;
  note("pipeline decision log " + runs.front().log + ": " + std::to_string(r.promotions) +
       " promotions, " + std::to_string(r.holds) + " holds, " + std::to_string(r.rollbacks) +
       " rollbacks, " + std::to_string(r.corruptions) + " drills over " +
       std::to_string(runs.size()) + " runs");
  return met;
}

Tensor sample(const data::Dataset& ds, std::size_t i) {
  Tensor t({ds.channels(), ds.height(), ds.width()});
  const std::size_t row = t.numel();
  std::memcpy(t.data(), ds.images.data() + i * row, row * sizeof(float));
  return t;
}

/// The pipeline layers' public calls, timed at the workload's shapes.
void probe_layers(const Options& opts, pipeline::PipelineConfig cfg, Result& out) {
  cfg.stream.seed = cfg.seed;
  cfg.retrain.seed = cfg.seed;
  const data::TrainTestPair world = data::generate(cfg.dataset);
  cfg.retrain.model_config =
      models::ModelConfig::for_dataset(cfg.dataset, cfg.retrain.model_config.width);

  pipeline::StreamSource stream(world.train, cfg.stream);
  std::vector<pipeline::StreamChunk> chunks;
  out.add("pipeline.stream_next_ms", 1e3 * median_time(15, [&] {
            chunks.push_back(stream.next());
          }),
          "ms");
  pipeline::IngestBuffer buffer(cfg.ingest);
  std::size_t c = 0;
  out.add("pipeline.ingest_push_us", 1e6 * median_time(15, [&] { buffer.push(chunks[c++]); }),
          "us");
  const data::Dataset window = buffer.take_window();

  pipeline::Retrainer retrainer(cfg.retrain);
  std::uint64_t round = 1;
  std::unique_ptr<nn::Network> candidate;
  out.add("pipeline.retrain_fit_ms", 1e3 * median_time(3, [&] {
            candidate = retrainer.fit_candidate(window, round++);
          }),
          "ms");

  const auto canary_n = static_cast<std::size_t>(
      static_cast<double>(world.test.size()) * cfg.canary_fraction);
  std::vector<std::size_t> idx(canary_n);
  for (std::size_t i = 0; i < canary_n; ++i) idx[i] = i;
  const data::Dataset canary = world.test.subset(idx);
  const auto factory = models::make_factory(cfg.retrain.arch, cfg.retrain.model_config);
  const auto copy_of = [&](nn::Network& net) {
    Rng rng(1);
    auto twin = factory(rng);
    twin->copy_weights_from(net);
    return twin;
  };

  serve::ModelRegistry registry(cfg.engine.workers);
  std::vector<double> swaps;
  for (int i = 0; i < 5; ++i) {
    std::vector<serve::MemberInit> members;
    members.push_back({factory, copy_of(*candidate)});
    const auto t0 = Clock::now();
    (void)registry.install(cfg.model_name, std::move(members));
    swaps.push_back(seconds_since(t0));
  }
  out.add("pipeline.swap_ms", 1e3 * median(swaps), "ms");

  // The pipeline's shadow evaluation: the canary slice through an engine in
  // waves of half the queue bound, every future awaited.
  std::vector<int> served(canary.size(), -1);
  const std::size_t wave = cfg.engine.batching.max_queue_depth / 2;
  {
    serve::InferenceEngine engine(registry, cfg.model_name, cfg.engine);
    out.add("pipeline.shadow_eval_ms", 1e3 * median_time(5, [&] {
              for (std::size_t i = 0; i < canary.size(); i += wave) {
                const std::size_t end = std::min(canary.size(), i + wave);
                std::vector<std::future<serve::Response>> futures;
                for (std::size_t j = i; j < end; ++j) {
                  futures.push_back(engine.submit(sample(canary, j)));
                }
                for (std::size_t j = i; j < end; ++j) {
                  served[j] = futures[j - i].get().predicted_class;
                }
              }
            }),
            "ms");
    engine.drain();
  }
  const std::vector<int> fresh = nn::predict_classes(*candidate, canary.images);
  constexpr int kJudgeCalls = 100;
  out.add("pipeline.judge_us", 1e6 / kJudgeCalls * median_time(9, [&] {
            for (int i = 0; i < kJudgeCalls; ++i) {
              (void)pipeline::judge_candidate(served, fresh, canary.labels, cfg.canary);
            }
          }),
          "us");

  pipeline::DecisionLog log(opts.workdir + "/decisions-probe.jsonl");
  pipeline::Decision d;
  d.action = pipeline::Action::kHold;
  d.technique = "Base";
  d.reason = "probe";
  out.add("pipeline.decision_append_us", 1e6 * median_time(21, [&] {
            ++d.round;
            log.append(d);
          }),
          "us");
}

}  // namespace

Result run_pipeline(const Options& opts) {
  const pipeline::PipelineConfig cfg = pipeline_config(opts);
  // The caller runs the rounds; the engine adds one worker.
  check_thread_budget(1 + cfg.engine.workers, "pipeline");

  std::vector<double> setups;
  std::string inputs;
  const auto set_up = [&] {
    for (std::size_t i = 0; i < kSetupReps; ++i) {
      const auto t0 = Clock::now();
      const data::TrainTestPair world = data::generate(cfg.dataset);
      setups.push_back(seconds_since(t0));
      inputs = digest(std::string(reinterpret_cast<const char*>(world.train.images.data()),
                                  world.train.images.numel() * sizeof(float)));
    }
  };
  set_up();
  note("inputs " + inputs);

  Result out;
  if (opts.trace) {
    const Run plain = run_once(cfg);
    obs::clear_trace_events();
    obs::set_trace_enabled(true);
    const Run traced = run_once(cfg);
    obs::set_trace_enabled(false);
    // Compared against a later untraced run, past the process's cold start.
    const Run again = run_once(cfg);
    (void)account({plain, traced, again}, cfg, out);
    const auto round = mean_span_ms(
        [](const std::string& s) { return s == "pipeline:round" ? s : std::string(); });
    obs::clear_trace_events();
    probe_layers(opts, cfg, out);
    out.add("pipeline.round_ms", round.empty() ? 0.0 : round.begin()->second, "ms");
    const pipeline::PipelineResult& r = plain.result;
    const auto judged = r.promotions + r.holds;
    out.add("pipeline.promote_ratio",
            judged == 0 ? 0.0 : static_cast<double>(r.promotions) / static_cast<double>(judged),
            "ratio");
    out.add("obs.trace_overhead_share.pipeline", (traced.wall_s - again.wall_s) / again.wall_s,
            "share");
    return out;
  }

  std::vector<Run> runs;
  const auto start = Clock::now();
  while (runs.size() < kMinRuns || seconds_since(start) < opts.seconds) {
    runs.push_back(run_once(cfg));
  }
  // Set up again after the measurement: the median then spans the run
  // instead of one moment of the host.
  set_up();
  const std::size_t met = account(runs, cfg, out);
  // The fastest run: slow host phases only ever add time, so a run they
  // slowed does not set the figure.
  std::vector<double> walls;
  for (const Run& run : runs) walls.push_back(run.wall_s);
  const double wall = quantile(walls, 0.0);
  const auto rounds = static_cast<double>(cfg.rounds);
  note_values("pipeline run wall times (s):", walls);
  out.add("setup_s", median(setups), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("work_per_s", rounds / wall, "1/s");
  out.add("latency_p50_ms", 1e3 * wall / rounds, "ms");
  out.add("slo_met_share", static_cast<double>(met) / static_cast<double>(out.attempted),
          "share");
  return out;
}

}  // namespace perfbench
