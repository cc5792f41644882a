#include "pipeline/online_pipeline.hpp"

#include <algorithm>
#include <cstring>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "nn/checkpoint.hpp"
#include "nn/trainer.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/weight_corruptor.hpp"
#include "study/spec.hpp"

namespace tdfm::pipeline {

namespace {

/// Copies sample `i` of `ds` into a standalone [C,H,W] tensor (the engine's
/// request shape).
Tensor sample_tensor(const data::Dataset& ds, std::size_t i) {
  const std::size_t row = ds.channels() * ds.height() * ds.width();
  Tensor t({ds.channels(), ds.height(), ds.width()});
  std::memcpy(t.data(), ds.images.data() + i * row, row * sizeof(float));
  return t;
}

/// Shadow-evaluates the whole canary slice through the serving path.  The
/// submissions carry no deadline and are issued in waves bounded well below
/// max_queue_depth, so no request can be rejected for capacity or timing
/// reasons — every future resolves kOk and the prediction vector is a pure
/// function of (model version, slice), independent of batch formation.
std::vector<int> shadow_predict(serve::InferenceEngine& engine,
                                const data::Dataset& ds) {
  const std::size_t depth = engine.config().batching.max_queue_depth;
  const std::size_t wave = depth > 1 ? depth / 2 : 1;
  std::vector<int> preds(ds.size(), -1);
  std::size_t i = 0;
  while (i < ds.size()) {
    const std::size_t end = std::min(ds.size(), i + wave);
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(end - i);
    for (std::size_t j = i; j < end; ++j) {
      futures.push_back(engine.submit(sample_tensor(ds, j)));
    }
    for (std::size_t j = i; j < end; ++j) {
      serve::Response r = futures[j - i].get();
      TDFM_CHECK(r.ok(), std::string("shadow evaluation rejected: ") +
                             serve::status_name(r.status));
      preds[j] = r.predicted_class;
    }
    i = end;
  }
  return preds;
}

void check_config(const PipelineConfig& cfg) {
  TDFM_CHECK(cfg.canary_fraction > 0.0 && cfg.canary_fraction < 1.0,
             "canary_fraction must be in (0, 1)");
  TDFM_CHECK(cfg.retrain_every >= 1, "retrain_every must be >= 1");
  TDFM_CHECK(cfg.rounds > 0 || cfg.duration_s > 0.0,
             "either rounds or duration_s must be positive");
  TDFM_CHECK(!cfg.model_name.empty(), "model_name must not be empty");
  TDFM_CHECK(cfg.bootstrap_epochs >= 1, "bootstrap_epochs must be >= 1");
}

}  // namespace

OnlinePipeline::OnlinePipeline(PipelineConfig config)
    : config_(std::move(config)) {
  check_config(config_);
}

PipelineResult OnlinePipeline::run() {
  obs::Span run_span("pipeline:run");

  // Single determinism knob: the master seed scopes the stream's and the
  // retrainer's content seeds; dataset generation keeps its own spec seed
  // (the base data is the world, not part of the pipeline's randomness).
  config_.stream.seed = config_.seed;
  config_.retrain.seed = config_.seed;
  // Deadlines depend on wall time; the pipeline's shadow evaluation (and
  // hence the decision log) must not.
  config_.engine.default_deadline_us = 0;

  // --- World: base data, canary slice, live-traffic pool. -----------------
  data::TrainTestPair world = data::generate(config_.dataset);
  const models::ModelConfig model_config = models::ModelConfig::for_dataset(
      config_.dataset, config_.retrain.model_config.width);
  config_.retrain.model_config = model_config;
  const auto factory = models::make_factory(config_.retrain.arch, model_config);

  const std::size_t test_n = world.test.size();
  TDFM_CHECK(test_n >= 2, "test split too small to carve a canary slice");
  std::size_t canary_n = static_cast<std::size_t>(
      static_cast<double>(test_n) * config_.canary_fraction);
  canary_n = std::clamp<std::size_t>(canary_n, 1, test_n - 1);
  std::vector<std::size_t> idx(test_n);
  std::iota(idx.begin(), idx.end(), 0);
  const data::Dataset canary_ds =
      world.test.subset(std::span(idx).subspan(0, canary_n));
  const data::Dataset live_pool =
      world.test.subset(std::span(idx).subspan(canary_n));
  const std::span<const int> truth(canary_ds.labels);

  StreamSource stream(world.train, config_.stream);
  IngestBuffer buffer(config_.ingest);
  Retrainer retrainer(config_.retrain);
  DecisionLog log(config_.decision_log_path);

  serve::ModelRegistry registry(std::max<std::size_t>(1, config_.engine.workers));

  PipelineResult result;
  std::uint64_t live_version = 0;
  std::vector<int> reference;       // pinned post-promotion predictions
  std::vector<float> good_weights;  // fp32 snapshot of the last good version
  std::string good_ckpt;            // its checkpoint (checkpoint transport)

  // Publishes a fitted fp32 candidate as the new live version, via the
  // checkpoint transport when configured (exercising the v3 quantize flag
  // round-trip) or a direct install otherwise.  `round` only names the file.
  const auto publish = [&](std::unique_ptr<nn::Network> net,
                           std::uint64_t round) -> std::uint64_t {
    if (!config_.checkpoint_dir.empty()) {
      nn::CheckpointMeta meta =
          models::checkpoint_meta(config_.retrain.arch, model_config);
      meta.quantize = config_.quantize;
      const std::string path = config_.checkpoint_dir + "/" +
                               config_.model_name + "-r" +
                               std::to_string(round) + ".ckpt";
      nn::save_checkpoint(*net, path, meta);
      good_ckpt = path;
      return registry.load(config_.model_name, path);
    }
    std::vector<serve::MemberInit> members;
    members.push_back({factory, std::move(net)});
    return registry.install(config_.model_name, std::move(members),
                            config_.quantize);
  };

  // Evaluates a candidate the way it would actually serve: on its quantized
  // twin when the pipeline deploys q8_0 (quantization shifts predictions,
  // and the guardrail must judge the deployed form, not the fp32 original).
  const auto eval_candidate = [&](nn::Network& net) -> std::vector<int> {
    if (!config_.quantize) return nn::predict_classes(net, canary_ds.images);
    Rng twin_rng(1);  // structure only; weights are overwritten
    auto twin = factory(twin_rng);
    twin->copy_weights_from(net);
    twin->quantize_for_inference();
    return nn::predict_classes(*twin, canary_ds.images);
  };

  // --- Bootstrap: stream until the first window, install a weak v1. -------
  {
    obs::Span span("pipeline:bootstrap");
    while (!buffer.window_ready()) buffer.push(stream.next());
    std::uint64_t first_seq = 0;
    std::uint64_t last_seq = 0;
    data::Dataset window = buffer.take_window(&first_seq, &last_seq);

    RetrainerConfig boot_cfg = config_.retrain;
    boot_cfg.train_opts.epochs = config_.bootstrap_epochs;
    Retrainer bootstrapper(boot_cfg);
    auto net = bootstrapper.fit_candidate(window, 0);
    good_weights = net->save_weights();
    live_version = publish(std::move(net), 0);

    Decision d;
    d.round = 0;
    d.action = Action::kBootstrap;
    d.candidate_version = live_version;
    d.technique = bootstrapper.technique_label();
    d.window_first_seq = first_seq;
    d.window_last_seq = last_seq;
    d.window_samples = window.size();
    d.ad_threshold = config_.canary.ad_threshold;
    d.rollback_threshold = config_.canary.rollback_threshold();
    d.quantized = config_.quantize;
    d.reason = "bootstrap: first window, no live model to beat";
    log.append(d);
  }

  // The engine comes up only once a version exists — no kRejectedNoModel
  // noise in the deterministic replay.
  serve::InferenceEngine engine(registry, config_.model_name, config_.engine);
  reference = shadow_predict(engine, canary_ds);

  const auto repin_reference = [&]() {
    reference = shadow_predict(engine, canary_ds);
  };

  // Restores the last good version after a health breach.
  const auto restore_good = [&]() -> std::uint64_t {
    if (!config_.checkpoint_dir.empty()) {
      return registry.load(config_.model_name, good_ckpt);
    }
    Rng rng(1);
    auto net = factory(rng);
    net->load_weights(good_weights);
    std::vector<serve::MemberInit> members;
    members.push_back({factory, std::move(net)});
    return registry.install(config_.model_name, std::move(members),
                            config_.quantize);
  };

  // --- Round loop. --------------------------------------------------------
  const auto start = serve::Clock::now();
  std::size_t live_cursor = 0;
  std::uint64_t round = 0;
  while (true) {
    if (config_.rounds > 0) {
      if (round >= config_.rounds) break;
    } else {
      const double elapsed =
          std::chrono::duration<double>(serve::Clock::now() - start).count();
      if (elapsed >= config_.duration_s) break;
    }
    ++round;
    const std::string round_tag = "round-" + std::to_string(round);
    if (obs::flight::enabled()) {
      obs::flight::record(obs::flight::EventKind::kCellBegin, round_tag);
    }
    obs::Span span("pipeline:round");

    // 1. Ingest the next faulty chunk.
    buffer.push(stream.next());

    // 2. Serve a slice of live traffic.
    if (config_.serve_per_round > 0 && live_pool.size() > 0) {
      std::vector<std::future<serve::Response>> futures;
      std::vector<int> expected;
      futures.reserve(config_.serve_per_round);
      expected.reserve(config_.serve_per_round);
      for (std::size_t k = 0; k < config_.serve_per_round; ++k) {
        const std::size_t i = live_cursor;
        live_cursor = (live_cursor + 1) % live_pool.size();
        futures.push_back(engine.submit(sample_tensor(live_pool, i)));
        expected.push_back(live_pool.labels[i]);
      }
      for (std::size_t k = 0; k < futures.size(); ++k) {
        serve::Response r = futures[k].get();
        TDFM_CHECK(r.ok(), std::string("live traffic rejected: ") +
                               serve::status_name(r.status));
        ++result.traffic_served;
        if (r.predicted_class == expected[k]) ++result.traffic_correct;
      }
    }

    // 3. Retrain rounds: health check first, then the candidate.
    if (round % config_.retrain_every == 0 && buffer.window_ready()) {
      obs::Span health_span("pipeline:health");
      const std::vector<int> live_now = shadow_predict(engine, canary_ds);
      const CanaryVerdict health =
          judge_live_health(reference, live_now, truth, config_.canary);

      if (health.action == Action::kRollback) {
        // Rollback beats retraining: a breached model must not play golden
        // when judging its own successor.
        const std::uint64_t breached = live_version;
        live_version = restore_good();
        repin_reference();
        ++result.rollbacks;
        if (obs::metrics_enabled()) {
          static obs::Counter rollbacks =
              obs::Registry::global().counter("pipeline.canary.rollback");
          rollbacks.add(1);
        }

        Decision d;
        d.round = round;
        d.action = Action::kRollback;
        d.live_version = breached;
        d.candidate_version = live_version;  // the restored version
        d.live_accuracy = health.live_accuracy;
        d.candidate_ad = health.ad;
        d.reverse_ad = health.reverse_ad;
        d.ad_threshold = config_.canary.ad_threshold;
        d.rollback_threshold = config_.canary.rollback_threshold();
        d.quantized = config_.quantize;
        d.reason = health.reason;
        log.append(d);
      } else {
        obs::Span canary_span("pipeline:canary");
        std::uint64_t first_seq = 0;
        std::uint64_t last_seq = 0;
        data::Dataset window = buffer.take_window(&first_seq, &last_seq);
        const std::string cand_tag = "candidate r" + std::to_string(round);
        if (obs::flight::enabled()) {
          obs::flight::record(obs::flight::EventKind::kCellBegin, cand_tag);
        }
        auto candidate = retrainer.fit_candidate(window, round);
        const std::vector<int> cand_preds = eval_candidate(*candidate);
        const CanaryVerdict verdict =
            judge_candidate(live_now, cand_preds, truth, config_.canary);

        Decision d;
        d.round = round;
        d.action = verdict.action;
        d.live_version = live_version;
        d.technique = retrainer.technique_label();
        d.window_first_seq = first_seq;
        d.window_last_seq = last_seq;
        d.window_samples = window.size();
        d.candidate_accuracy = verdict.candidate_accuracy;
        d.live_accuracy = verdict.live_accuracy;
        d.candidate_ad = verdict.ad;
        d.reverse_ad = verdict.reverse_ad;
        d.ad_threshold = config_.canary.ad_threshold;
        d.rollback_threshold = config_.canary.rollback_threshold();
        d.quantized = config_.quantize;
        d.reason = verdict.reason;

        if (verdict.action == Action::kPromote) {
          good_weights = candidate->save_weights();
          live_version = publish(std::move(candidate), round);
          repin_reference();
          d.candidate_version = live_version;
          ++result.promotions;
          if (obs::metrics_enabled()) {
            static obs::Counter promotes =
                obs::Registry::global().counter("pipeline.canary.promote");
            promotes.add(1);
          }
        } else {
          ++result.holds;
          if (obs::metrics_enabled()) {
            static obs::Counter holds =
                obs::Registry::global().counter("pipeline.canary.hold");
            holds.add(1);
          }
        }
        log.append(d);
        if (obs::flight::enabled()) {
          obs::flight::record(obs::flight::EventKind::kCellEnd, cand_tag);
        }
      }
    }

    // 4. Corruption drill: install damaged weights *bypassing* the canary —
    // modelling in-memory decay, not a bad deploy.  The reference and the
    // good snapshot deliberately stay pinned to the healthy version, so the
    // next health check sees the breach and rolls back.
    if (config_.corrupt_round != 0 && round == config_.corrupt_round) {
      Rng rng(1);
      auto corrupted = factory(rng);
      corrupted->load_weights(good_weights);
      CorruptionSpec spec = config_.corruption;
      spec.seed = study::stable_hash64(
          "pipeline-corrupt|seed=" + std::to_string(config_.seed) +
          "|round=" + std::to_string(round));
      const CorruptionReport report = corrupt_network(*corrupted, spec);

      const std::uint64_t previous = live_version;
      std::vector<serve::MemberInit> members;
      members.push_back({factory, std::move(corrupted)});
      live_version = registry.install(config_.model_name, std::move(members),
                                      config_.quantize);
      ++result.corruptions;
      if (obs::metrics_enabled()) {
        static obs::Counter drills =
            obs::Registry::global().counter("pipeline.corrupt.drills");
        drills.add(1);
      }

      Decision d;
      d.round = round;
      d.action = Action::kCorrupt;
      d.live_version = previous;
      d.candidate_version = live_version;
      d.technique = std::string("drill:") + corruption_mode_name(spec.mode);
      d.ad_threshold = config_.canary.ad_threshold;
      d.rollback_threshold = config_.canary.rollback_threshold();
      d.quantized = config_.quantize;
      d.corrupted = true;
      d.reason = "fault drill: " +
                 std::string(corruption_mode_name(spec.mode)) + " hit " +
                 std::to_string(report.scalars_hit + report.blocks_hit) +
                 " weights";
      log.append(d);
    }

    if (obs::metrics_enabled()) {
      static obs::Gauge version_gauge =
          obs::Registry::global().gauge("pipeline.live_version");
      version_gauge.set(static_cast<double>(live_version));
    }
    if (obs::flight::enabled()) {
      obs::flight::record(obs::flight::EventKind::kCellEnd, round_tag);
    }
  }

  // Graceful teardown: every accepted request resolves with a prediction.
  engine.drain();

  result.decisions = log.records();
  result.rounds_run = round;
  result.live_version = live_version;
  result.samples_streamed = stream.emitted();
  result.ingest = buffer.stats();
  result.engine = engine.stats();
  return result;
}

}  // namespace tdfm::pipeline
