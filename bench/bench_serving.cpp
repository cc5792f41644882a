// bench_serving: throughput/latency of the tdfm::serve layer under
// open-loop load, swept across micro-batch configurations.
//
// The pipeline mirrors a real deployment: quick-train a ConvNet, save a
// self-describing v2 checkpoint, load it into a ModelRegistry, then drive
// an InferenceEngine with a load generator.  For each --batch-sizes entry
// the bench reports saturated (or --rate-limited) throughput, latency
// percentiles (queue wait + compute), and admission-control rejections.
// The headline number is the batched-vs-single speedup.  With --workers 1
// the engine fans each micro-batch's rows out across the --threads pool
// (conv and GEMM split on the batch dimension), so on a host with >= 2
// cores max_batch_size >= 8 beats max_batch_size = 1 by >= 2x at
// saturation — batch-size-1 forwards can only ever use one core.  On a
// single-core host forwards are compute-bound and the sweep stays flat.
//
//   $ ./bench/bench_serving --duration 2 --batch-sizes 1,4,8,16 --threads 0
//   $ ./bench/bench_serving --rate 500 --deadline-ms 50 --json serving.json
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <deque>
#include <thread>

#include "bench_common.hpp"
#include "data/synthetic.hpp"
#include "nn/checkpoint.hpp"
#include "nn/loss.hpp"
#include "nn/trainer.hpp"
#include "serve/serve.hpp"

namespace tdfm::bench {
namespace {

struct LoadResult {
  std::vector<double> latency_us;  ///< queue wait + compute, served only
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  double elapsed_s = 0.0;
};

/// Open-loop load: submissions are paced by --rate alone (0 = as fast as
/// possible), never by completions — slow service shows up as queue wait
/// and rejections, exactly as production overload would.
LoadResult run_load(serve::InferenceEngine& engine, const std::vector<Tensor>& pool,
                    double duration_s, double rate_rps, bool record) {
  LoadResult res;
  std::deque<std::future<serve::Response>> inflight;
  const auto settle = [&](serve::Response r) {
    if (r.ok()) {
      ++res.ok;
      if (record) res.latency_us.push_back(r.queue_us + r.compute_us);
    } else {
      ++res.rejected;
    }
  };

  const auto start = serve::Clock::now();
  const auto stop_at =
      start + std::chrono::duration_cast<serve::Clock::duration>(
                  std::chrono::duration<double>(duration_s));
  const bool throttled = rate_rps > 0.0;
  const auto period =
      throttled ? std::chrono::duration_cast<serve::Clock::duration>(
                      std::chrono::duration<double>(1.0 / rate_rps))
                : serve::Clock::duration::zero();
  auto next = start;
  std::size_t i = 0;
  while (serve::Clock::now() < stop_at) {
    if (throttled) {
      std::this_thread::sleep_until(next);
      next += period;  // fixed schedule: missed slots are not re-paced
    }
    inflight.push_back(engine.submit(pool[i++ % pool.size()]));
    // Bound memory at saturation; rejected futures are already resolved.
    while (inflight.size() >= 8192 ||
           (!inflight.empty() &&
            inflight.front().wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready)) {
      settle(inflight.front().get());
      inflight.pop_front();
    }
  }
  while (!inflight.empty()) {
    settle(inflight.front().get());
    inflight.pop_front();
  }
  res.elapsed_s = std::chrono::duration<double>(serve::Clock::now() - start).count();
  return res;
}

/// Nearest-rank percentile over an already sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(std::lround(pos))];
}

/// Slices row `i` of an [N, ...] tensor into a standalone sample tensor.
Tensor slice_sample(const Tensor& images, std::size_t i) {
  std::vector<std::size_t> dims;
  for (std::size_t d = 1; d < images.rank(); ++d) dims.push_back(images.dim(d));
  Tensor out{Shape(dims)};
  std::memcpy(out.data(), images.data() + i * out.numel(),
              out.numel() * sizeof(float));
  return out;
}

std::vector<std::size_t> parse_size_list(const std::string& list) {
  std::vector<std::size_t> sizes;
  for (const std::string& entry : split_csv(list)) {
    const char* const end = entry.data() + entry.size();
    int v = 0;
    const auto [stop, ec] = std::from_chars(entry.data(), end, v);
    if (ec != std::errc() || stop != end || v < 1) {
      throw ConfigError("--batch-sizes entries must be integers >= 1, got '" +
                        entry + "'");
    }
    sizes.push_back(static_cast<std::size_t>(v));
  }
  if (sizes.empty()) throw ConfigError("empty --batch-sizes list");
  return sizes;
}

int run(int argc, char** argv) {
  CliParser cli;
  BenchSettings settings;
  cli.add_flag("workers", "1",
               "engine worker threads, all predicting through one served "
               "network; 1 = the worker fans each micro-batch out across "
               "--threads pool threads");
  cli.add_flag("batch-sizes", "1,4,8,16",
               "comma list of max_batch_size configs to sweep");
  cli.add_flag("queue-delay-us", "1000",
               "max time a request may wait for batch-mates");
  cli.add_flag("queue-depth", "512", "admission-control queue bound");
  cli.add_flag("deadline-ms", "0", "per-request deadline (0 = none)");
  cli.add_flag("checkpoint", "bench_serving.ckpt",
               "where to write the v2 model checkpoint");
  cli.add_flag("quantize", "0",
               "serve the q8_0-quantized network (1) instead of fp32 (0)");
  add_loadgen_flags(cli, /*default_duration=*/2.0, /*default_rate=*/0.0,
                    /*default_warmup=*/0.25);
  if (!parse_bench_flags(argc, argv, cli, settings, /*default_trials=*/1,
                         /*default_epochs=*/3, /*default_scale=*/0.5,
                         /*default_width=*/8)) {
    return 0;
  }
  const LoadgenOptions load = parse_loadgen_flags(cli);
  const auto workers = cli.get_size("workers");
  if (workers < 1) throw ConfigError("--workers must be >= 1");
  const std::vector<std::size_t> batch_sizes =
      parse_size_list(cli.get_string("batch-sizes"));
  const auto queue_delay_us = cli.get_u64("queue-delay-us");
  const auto queue_depth = cli.get_size("queue-depth");
  const auto deadline_ms = cli.get_u64("deadline-ms");
  const std::string ckpt_path = cli.get_string("checkpoint");
  const bool quantize = cli.get_bool("quantize");

  print_banner("serving layer: dynamic micro-batching under open-loop load",
               settings);
  std::cout << "load: duration=" << load.duration_s << "s rate="
            << (load.rate_rps > 0 ? std::to_string(load.rate_rps) + " rps"
                                  : std::string("unthrottled (saturate)"))
            << " warmup=" << load.warmup_s << "s workers=" << workers
            << " queue-delay=" << queue_delay_us << "us depth=" << queue_depth
            << " weights=" << (quantize ? "q8_0" : "fp32") << "\n\n";

  // 1. Quick-train a ConvNet and ship it as a self-describing checkpoint.
  data::SyntheticSpec spec;
  spec.kind = data::DatasetKind::kCifar10Sim;
  spec.scale = settings.scale;
  spec.seed = settings.seed;
  const data::TrainTestPair dataset = data::generate(spec);
  const models::ModelConfig config =
      models::ModelConfig::for_dataset(spec, settings.width);
  Rng rng(settings.seed);
  auto net = models::build_model(models::Arch::kConvNet, config, rng);
  {
    const Tensor targets =
        nn::one_hot(dataset.train.labels, dataset.train.num_classes);
    nn::CrossEntropyLoss ce;
    nn::TrainOptions opts;
    opts.epochs = settings.epochs;
    opts.threads = settings.threads;
    nn::Trainer trainer(opts);
    Rng train_rng = rng.fork(1);
    const double loss = trainer.fit(
        *net, dataset.train.images,
        [&](const Tensor& logits, std::span<const std::size_t> idx,
            Tensor& grad) {
          const Tensor batch_targets = nn::Trainer::gather(targets, idx);
          return ce.compute(logits, batch_targets, grad);
        },
        train_rng);
    std::cout << "trained ConvNet (" << settings.epochs
              << " epochs, final loss " << fixed(loss, 3) << "), checkpoint -> "
              << ckpt_path << "\n";
  }
  nn::save_checkpoint(*net, ckpt_path,
                      models::checkpoint_meta(models::Arch::kConvNet, config));

  // Request pool: real test-set images, sliced once up front.
  std::vector<Tensor> pool;
  const std::size_t pool_size = std::min<std::size_t>(64, dataset.test.size());
  pool.reserve(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) {
    pool.push_back(slice_sample(dataset.test.images, i));
  }

  // 2. Sweep micro-batch configurations against the same checkpoint.  The
  // engine's own serve.{queue_wait,compute}_us histograms are snapshotted
  // per configuration and folded with obs::Aggregator afterwards — the same
  // snapshot/merge path the multi-process campaign plane uses, exercised
  // here in-process so --json carries histogram-estimated percentiles next
  // to the exact sample-based ones.
  obs::set_metrics_enabled(true);
  std::vector<obs::MetricsSnapshot> sweep_snapshots;
  BenchJson json("serving", settings);
  json.add("weights", std::string(quantize ? "q8_0" : "fp32"));
  AsciiTable table({"max_batch", "throughput rps", "p50 us", "p95 us", "p99 us",
                    "served", "rejected"});
  double single_rps = 0.0;
  double best_batched_rps = 0.0;
  std::size_t best_batched = 0;
  for (const std::size_t max_batch : batch_sizes) {
    serve::ModelRegistry registry;
    // v2: the header names the arch; `quantize` swaps the served network's
    // Dense and Conv2D weights for q8_0 blocks at load time.
    (void)registry.load("convnet", ckpt_path, quantize);
    serve::EngineConfig ecfg;
    ecfg.workers = workers;
    ecfg.batching.max_batch_size = max_batch;
    ecfg.batching.max_queue_delay_us = queue_delay_us;
    ecfg.batching.max_queue_depth = std::max(queue_depth, max_batch);
    ecfg.default_deadline_us = deadline_ms * 1000;
    // Single worker: spread each batch's rows across the pool — the
    // configuration where micro-batching converts queue depth into
    // multi-core data parallelism.  (On a 1-core host forwards are
    // compute-bound and throughput stays flat across batch sizes.)
    ecfg.use_thread_pool = workers == 1;
    serve::InferenceEngine engine(registry, "convnet", ecfg);

    if (load.warmup_s > 0.0) {
      (void)run_load(engine, pool, load.warmup_s, load.rate_rps, false);
    }
    obs::Registry::global().reset_values();  // measured window only
    LoadResult res = run_load(engine, pool, load.duration_s, load.rate_rps, true);
    std::sort(res.latency_us.begin(), res.latency_us.end());
    const double rps = static_cast<double>(res.ok) / res.elapsed_s;
    const double p50 = percentile(res.latency_us, 50);
    const double p95 = percentile(res.latency_us, 95);
    const double p99 = percentile(res.latency_us, 99);
    table.add_row({std::to_string(max_batch), fixed(rps, 0), fixed(p50, 0),
                   fixed(p95, 0), fixed(p99, 0), std::to_string(res.ok),
                   std::to_string(res.rejected)});
    std::string key = "b";
    key += std::to_string(max_batch);
    json.add(key + ".throughput_rps", rps);
    json.add(key + ".p50_us", p50);
    json.add(key + ".p95_us", p95);
    json.add(key + ".p99_us", p99);
    json.add(key + ".served", static_cast<double>(res.ok));
    json.add(key + ".rejected", static_cast<double>(res.rejected));
    if (max_batch == 1) single_rps = rps;
    if (max_batch >= 8 && rps > best_batched_rps) {
      best_batched_rps = rps;
      best_batched = max_batch;
    }
    obs::SnapshotMeta meta;
    meta.seq = sweep_snapshots.size() + 1;
    meta.label = "max_batch=" + std::to_string(max_batch);
    sweep_snapshots.push_back(obs::collect_snapshot(std::move(meta)));
  }
  std::cout << "\n" << table.render() << "\n";

  // Fold the per-config snapshots and report histogram-estimated latency
  // quantiles across the whole sweep (counters sum, buckets sum — exactly
  // what a --progress driver sees across shard processes).
  obs::Aggregator agg;
  for (const obs::MetricsSnapshot& s : sweep_snapshots) agg.add(s);
  for (const obs::MetricSample& sample : agg.samples()) {
    if (sample.kind != obs::MetricSample::Kind::kHistogram) continue;
    if (sample.name != "serve.queue_wait_us" &&
        sample.name != "serve.compute_us") {
      continue;
    }
    const double h50 = obs::histogram_quantile(sample, 0.50);
    const double h95 = obs::histogram_quantile(sample, 0.95);
    const double h99 = obs::histogram_quantile(sample, 0.99);
    std::cout << sample.name << " (aggregated histogram, " << sample.count
              << " obs): p50 ~" << fixed(h50, 0) << "us p95 ~" << fixed(h95, 0)
              << "us p99 ~" << fixed(h99, 0) << "us\n";
    json.add(sample.name + ".hist_p50_us", h50);
    json.add(sample.name + ".hist_p95_us", h95);
    json.add(sample.name + ".hist_p99_us", h99);
    json.add(sample.name + ".hist_count", static_cast<double>(sample.count));
  }

  if (single_rps > 0.0 && best_batched > 0) {
    const double speedup = best_batched_rps / single_rps;
    std::cout << "micro-batching speedup (max_batch=" << best_batched
              << " vs 1): " << fixed(speedup, 2) << "x\n";
    json.add("speedup_batched_vs_single", speedup);
  }
  json.emit(settings);
  return 0;
}

}  // namespace
}  // namespace tdfm::bench

int main(int argc, char** argv) try {
  return tdfm::bench::run(argc, argv);
} catch (const std::exception& e) {
  std::cerr << "bench_serving failed: " << e.what() << "\n";
  return 1;
}
