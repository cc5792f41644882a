// serve-fp32 / serve-q8: open-loop traffic of single CIFAR10-sim images into
// an InferenceEngine serving a width-8 ConvNet.
//
// Engine: 2 workers, max_batch_size 8, max_queue_delay_us 0, no deadline.
// One generator thread (the caller) sends request i at its due time
// t0 + i / rate on a fixed schedule, sleeping to just short of it and
// spinning the rest: a late send is not re-paced, so a stall shows up as
// latency of the requests behind it.  Sending stops when the window ends;
// the engine is then drained.  A collector thread takes the
// response futures in submission order and stamps completion when get()
// returns, so a response that overtook an earlier one is stamped no earlier
// than that one.  Latency runs from the due time to that stamp.
//
//   operation        one request
//   latency_p50_ms   median latency of the answered requests in each
//                    one-second slice of the schedule, summarised by the
//                    25th percentile over slices (a low quantile, so the
//                    seconds a busy host slowed do not set the figure)
//   slo_met_share    requests answered, with the class ServedModel::predict
//                    gives the same image offline, within the fixed limit,
//                    over requests sent (rejections and mismatches miss)
//   work_per_s       those requests per second, first due time to last
//                    completion (goodput at the fixed offered rate; the
//                    saturated capacity is never measured)
//
// The served model is trained once per process before set-up (it stands in
// for a checkpoint produced elsewhere); set-up then times request-pool
// generation, ModelRegistry::load (+ q8_0 quantization), engine start and a
// closed-loop warm-up.
//
// BENCHMARK.json does not gate these two workloads: their latency follows
// host regimes that outlast a run (NOISE.md).  Every traced run still
// profiles them.
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "data/synthetic.hpp"
#include "models/model_zoo.hpp"
#include "nn/checkpoint.hpp"
#include "nn/loss.hpp"
#include "nn/trainer.hpp"
#include "obs/trace.hpp"
#include "serve/serve.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tdfm;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kMaxBatch = 8;
constexpr std::size_t kPool = 64;
constexpr std::size_t kSetupReps = 4;  ///< before and again after
constexpr std::size_t kWarmupRounds = 4;  ///< closed-loop passes over the pool
constexpr double kLateMs = 1.0;           ///< generator lateness that counts
constexpr int kSpinUs = 150;              ///< generator spin before a due time
constexpr double kTraceWindowS = 3.0;
const char* const kModel = "convnet";

/// The workload's fixed offered rate and latency limit (also in
/// BENCHMARK.json's workload descriptions).
struct Traffic {
  double rate_rps;
  double limit_ms;
};
Traffic traffic(bool quantized) { return quantized ? Traffic{800.0, 6.0} : Traffic{3000.0, 2.0}; }

data::SyntheticSpec dataset_spec(const Options& opts) {
  data::SyntheticSpec spec;
  spec.kind = data::DatasetKind::kCifar10Sim;
  spec.scale = opts.tiny ? 0.1 : 0.3;
  spec.seed = opts.seed;
  return spec;
}

/// Sample `i` of [N, C, H, W] images as a standalone tensor with `dims`.
Tensor sample(const Tensor& images, std::size_t i, std::vector<std::size_t> dims) {
  Tensor out{Shape(std::move(dims))};
  std::memcpy(out.data(), images.data() + i * out.numel(), out.numel() * sizeof(float));
  return out;
}

/// Trains the served ConvNet and writes its self-describing checkpoint.
std::string train_checkpoint(const Options& opts, const data::SyntheticSpec& spec) {
  const data::TrainTestPair ds = data::generate(spec);
  const models::ModelConfig config = models::ModelConfig::for_dataset(spec, 8);
  Rng rng(opts.seed);
  auto net = models::build_model(models::Arch::kConvNet, config, rng);
  const Tensor targets = nn::one_hot(ds.train.labels, ds.train.num_classes);
  nn::CrossEntropyLoss ce;
  nn::TrainOptions topts;
  topts.epochs = opts.tiny ? 1 : 2;
  topts.threads = 1;
  nn::Trainer trainer(topts);
  Rng train_rng = rng.fork(1);
  (void)trainer.fit(
      *net, ds.train.images,
      [&](const Tensor& logits, std::span<const std::size_t> idx, Tensor& grad) {
        return ce.compute(logits, nn::Trainer::gather(targets, idx), grad);
      },
      train_rng);
  const std::string path = opts.workdir + "/served.ckpt";
  nn::save_checkpoint(*net, path, models::checkpoint_meta(models::Arch::kConvNet, config));
  return path;
}

/// A running engine over a freshly loaded registry.
struct Service {
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::InferenceEngine> engine;
  std::vector<Tensor> pool;
  double load_s = 0.0;
};

Service start_service(const Options& opts, const std::string& ckpt, bool quantized) {
  Service s;
  const data::SyntheticSpec spec = dataset_spec(opts);
  Rng rng(opts.seed ^ 0x5e7e);
  const data::Dataset pool = data::generate_split(spec, kPool, rng, "requests");
  for (std::size_t i = 0; i < kPool; ++i) {
    s.pool.push_back(sample(pool.images, i, {pool.channels(), pool.height(), pool.width()}));
  }
  const auto t0 = Clock::now();
  s.registry = std::make_unique<serve::ModelRegistry>(kWorkers);
  (void)s.registry->load(kModel, ckpt, quantized);
  s.load_s = seconds_since(t0);
  serve::EngineConfig cfg;
  cfg.workers = kWorkers;
  cfg.batching.max_batch_size = kMaxBatch;
  cfg.batching.max_queue_delay_us = 0;
  cfg.batching.max_queue_depth = 4096;
  s.engine = std::make_unique<serve::InferenceEngine>(*s.registry, kModel, cfg);
  for (std::size_t r = 0; r < kWarmupRounds; ++r) {
    std::vector<std::future<serve::Response>> futures;
    for (const Tensor& image : s.pool) futures.push_back(s.engine->submit(image));
    for (auto& f : futures) {
      TDFM_CHECK(f.get().ok(), "warm-up request rejected");
    }
  }
  return s;
}

/// One request as the generator and the collector saw it.
struct Sample {
  double late_ms = 0.0;
  double latency_ms = 0.0;
  serve::Response response;
};

struct Window {
  std::vector<Sample> samples;
  double span_s = 0.0;  ///< first due time to last completion
};

Window open_loop(serve::InferenceEngine& engine, const std::vector<Tensor>& pool,
                 double rate_rps, double seconds) {
  const auto n = static_cast<std::size_t>(std::max(1.0, rate_rps * seconds));
  Window w;
  w.samples.resize(n);
  std::vector<Clock::time_point> due(n);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::future<serve::Response>>> inflight;
  Clock::time_point last_done;

  std::thread collector([&] {
    for (std::size_t received = 0; received < n; ++received) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !inflight.empty(); });
      auto [i, future] = std::move(inflight.front());
      inflight.pop_front();
      lock.unlock();
      w.samples[i].response = future.get();
      last_done = Clock::now();
      w.samples[i].latency_ms =
          std::chrono::duration<double, std::milli>(last_done - due[i]).count();
    }
  });

  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const std::chrono::duration<double> period(1.0 / rate_rps);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = t0 + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(i));
    // Sleep to just short of the due time, then spin: timer wake-ups are
    // late by tens of microseconds, a large share of a sub-millisecond
    // latency.
    std::this_thread::sleep_until(due[i] - std::chrono::microseconds(kSpinUs));
    while (Clock::now() < due[i]) {
    }
    w.samples[i].late_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - due[i]).count();
    auto future = engine.submit(pool[i % pool.size()]);
    {
      const std::lock_guard<std::mutex> lock(mu);
      inflight.emplace_back(i, std::move(future));
    }
    cv.notify_one();
  }
  collector.join();
  w.span_s = std::chrono::duration<double>(last_done - t0).count();
  return w;
}

/// Offline reference: ServedModel::predict on each pool image alone.
std::vector<int> offline_classes(serve::ServedModel& model, const std::vector<Tensor>& pool) {
  std::vector<int> classes;
  for (const Tensor& image : pool) {
    std::vector<std::size_t> dims = {1};
    for (std::size_t d = 0; d < image.rank(); ++d) dims.push_back(image.dim(d));
    classes.push_back(model.predict(sample(image, 0, dims), 0).at(0));
  }
  return classes;
}

struct Tally {
  std::size_t met = 0;
  std::vector<double> latency_ms;  ///< answered requests
  /// Median latency of each one-second slice of the schedule.
  std::vector<double> window_p50_ms;

  /// The latency estimator: the 25th percentile over one-second slices of
  /// the slice's median, so slices the host slowed do not set the figure.
  [[nodiscard]] double latency() const { return quantile(window_p50_ms, 0.25); }
};

Tally tally(const Window& w, const std::vector<int>& expected, const Traffic& tr,
            Result& out) {
  Tally t;
  std::size_t rejected = 0;
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < w.samples.size(); ++i) {
    const Sample& s = w.samples[i];
    if (!s.response.ok()) {
      ++rejected;
      continue;
    }
    t.latency_ms.push_back(s.latency_ms);
    if (s.response.predicted_class != expected[i % expected.size()]) {
      ++mismatched;
      continue;
    }
    if (s.latency_ms <= tr.limit_ms) ++t.met;
  }
  const auto per_window = static_cast<std::size_t>(tr.rate_rps);
  for (std::size_t begin = 0; begin < w.samples.size(); begin += per_window) {
    std::vector<double> slice;
    for (std::size_t i = begin; i < std::min(begin + per_window, w.samples.size()); ++i) {
      if (w.samples[i].response.ok()) slice.push_back(w.samples[i].latency_ms);
    }
    if (!slice.empty()) t.window_p50_ms.push_back(median(std::move(slice)));
  }
  out.attempted += w.samples.size();
  out.failed += rejected + mismatched;
  if (rejected + mismatched > 0) {
    out.fail(std::to_string(rejected) + " requests rejected, " + std::to_string(mismatched) +
             " answered with another class than offline predict");
  }
  TDFM_CHECK(!t.latency_ms.empty(), "no request was answered");
  return t;
}

/// Where a typical request's time went (queue wait and forward pass as the
/// engine measured them; the rest is submission, wake-ups and delivery),
/// and how late the generator ran.
struct Breakdown {
  double queue_ms = 0.0;
  double compute_ms = 0.0;
  double rest_ms = 0.0;
  double batch_mean = 0.0;
  double late_max_ms = 0.0;
  double late_share = 0.0;  ///< requests sent more than kLateMs late
};

Breakdown breakdown(const Window& w) {
  Breakdown b;
  std::vector<double> queue_ms;
  std::vector<double> compute_ms;
  std::vector<double> rest_ms;
  double batch_sum = 0.0;
  std::size_t late = 0;
  for (const Sample& s : w.samples) {
    b.late_max_ms = std::max(b.late_max_ms, s.late_ms);
    if (s.late_ms > kLateMs) ++late;
    if (!s.response.ok()) continue;
    queue_ms.push_back(s.response.queue_us / 1e3);
    compute_ms.push_back(s.response.compute_us / 1e3);
    rest_ms.push_back(s.latency_ms - queue_ms.back() - compute_ms.back());
    batch_sum += static_cast<double>(s.response.batch_size);
  }
  b.queue_ms = median(queue_ms);
  b.compute_ms = median(compute_ms);
  b.rest_ms = median(rest_ms);
  b.batch_mean = batch_sum / static_cast<double>(queue_ms.size());
  b.late_share = static_cast<double>(late) / static_cast<double>(w.samples.size());
  return b;
}

void trace_run(const Options& opts, bool quantized, Service& service,
               const std::vector<int>& expected, const std::string& ckpt,
               const std::vector<double>& loads, Result& out) {
  const Traffic tr = traffic(quantized);
  const double window = opts.tiny ? 0.3 : kTraceWindowS;
  const Window plain = open_loop(*service.engine, service.pool, tr.rate_rps, window);
  obs::clear_trace_events();
  obs::set_trace_enabled(true);
  const Window traced = open_loop(*service.engine, service.pool, tr.rate_rps, window);
  obs::set_trace_enabled(false);
  obs::clear_trace_events();
  service.engine->drain();
  const Tally t = tally(plain, expected, tr, out);
  const Tally tt = tally(traced, expected, tr, out);

  const std::string v = quantized ? ".q8" : ".fp32";
  const Breakdown b = breakdown(plain);
  out.add("serve.queue_wait_ms" + v, b.queue_ms, "ms");
  out.add("serve.compute_ms" + v, b.compute_ms, "ms");
  out.add("serve.batch_size_mean" + v, b.batch_mean, "requests");
  out.add("serve.latency_p99_ms" + v, quantile(t.latency_ms, 0.99), "ms");
  out.add("serve.latency_samples" + v, static_cast<double>(t.latency_ms.size()), "count");
  out.add("serve.gen_late_ms_max" + v, b.late_max_ms, "ms");
  out.add("serve.gen_late_share" + v, b.late_share, "share");

  // Direct ServedModel::predict on an offline single-slot registry.
  serve::ModelRegistry offline(1);
  (void)offline.load(kModel, ckpt, quantized);
  const auto model = offline.current(kModel);
  const Tensor& first = service.pool.front();
  std::vector<std::size_t> dims = {kMaxBatch, first.dim(0), first.dim(1), first.dim(2)};
  Tensor b8{Shape(dims)};
  for (std::size_t i = 0; i < kMaxBatch; ++i) {
    std::memcpy(b8.data() + i * first.numel(), service.pool[i].data(),
                first.numel() * sizeof(float));
  }
  dims[0] = 1;
  const Tensor b1 = sample(b8, 0, dims);
  out.add("serve.predict_ms.b1" + v, 1e3 * median_time(301, [&] { (void)model->predict(b1, 0); }),
          "ms");
  out.add("serve.predict_ms.b8" + v, 1e3 * median_time(101, [&] { (void)model->predict(b8, 0); }),
          "ms");
  out.add("serve.registry_load_ms" + v, 1e3 * median(loads), "ms");

  const std::size_t classes = model->num_classes();
  if (quantized) {
    probe_b1_q8(out, opts.seed, classes);
  } else {
    probe_b1_fp32(out, opts.seed, classes);
  }
  out.add("obs.trace_overhead_share." + opts.workload, (tt.latency() - t.latency()) / t.latency(),
          "share");
}

}  // namespace

Result run_serving(const Options& opts, bool quantized) {
  const Traffic tr = traffic(quantized);
  // Generator (this thread) + collector + engine workers.
  check_thread_budget(2 + kWorkers, opts.workload);
  note(opts.workload + ": open loop " + std::to_string(tr.rate_rps) + " rps, limit " +
       std::to_string(tr.limit_ms) + " ms, " + std::to_string(kWorkers) +
       " workers, max batch " + std::to_string(kMaxBatch) + ", queue delay 0 us");

  const std::string ckpt = train_checkpoint(opts, dataset_spec(opts));

  std::vector<double> setups;
  std::vector<double> loads;
  Service service;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    // Stop the previous engine before its registry, and before timing.
    service.engine.reset();
    service.registry.reset();
    const auto t0 = Clock::now();
    service = start_service(opts, ckpt, quantized);
    setups.push_back(seconds_since(t0));
    loads.push_back(service.load_s);
  }
  std::string pool_bytes;
  for (const Tensor& t : service.pool) {
    pool_bytes.append(reinterpret_cast<const char*>(t.data()), t.numel() * sizeof(float));
  }
  note("inputs " + digest(pool_bytes));

  serve::ModelRegistry offline(1);
  (void)offline.load(kModel, ckpt, quantized);
  const std::vector<int> expected = offline_classes(*offline.current(kModel), service.pool);
  note("offline predict gives " +
       std::to_string(std::set<int>(expected.begin(), expected.end()).size()) +
       " distinct classes over the pool");

  Result out;
  if (opts.trace) {
    trace_run(opts, quantized, service, expected, ckpt, loads, out);
    return out;
  }

  const Window w = open_loop(*service.engine, service.pool, tr.rate_rps, opts.seconds);
  service.engine->drain();
  service.engine.reset();
  // Set up again after the measurement: the median then spans the run
  // instead of one moment of the host.
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    const Service again = start_service(opts, ckpt, quantized);
    setups.push_back(seconds_since(t0));
  }
  const Tally t = tally(w, expected, tr, out);
  const Breakdown b = breakdown(w);
  note("generator: " + std::to_string(w.samples.size()) + " sent, share more than 1 ms late " +
       std::to_string(b.late_share) + ", latest " + std::to_string(b.late_max_ms) + " ms");
  note("request medians: queue " + std::to_string(b.queue_ms) + " ms, compute " +
       std::to_string(b.compute_ms) + " ms, rest " + std::to_string(b.rest_ms) + " ms");
  note_values("latency p50 per one-second slice (ms):", t.window_p50_ms);
  out.add("setup_s", median(setups), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("work_per_s", static_cast<double>(t.met) / w.span_s, "1/s");
  out.add("latency_p50_ms", t.latency(), "ms");
  out.add("slo_met_share", static_cast<double>(t.met) / static_cast<double>(w.samples.size()),
          "share");
  return out;
}

}  // namespace perfbench
