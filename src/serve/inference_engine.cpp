#include "serve/inference_engine.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <utility>

#include "core/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tdfm::serve {

namespace {

const char* kStatusNames[] = {"ok", "rejected_queue_full", "rejected_deadline",
                              "rejected_shutdown", "rejected_no_model",
                              "rejected_bad_input"};

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Answers the requests [first, last) with the engine-side rejection
/// `status`, counted in `count` and in the metric serve.<status name>.
void reject(std::vector<Request>::iterator first, std::vector<Request>::iterator last,
            Status status, std::atomic<std::uint64_t>& count) {
  const auto n = static_cast<std::uint64_t>(last - first);
  if (n == 0) return;
  count.fetch_add(n, std::memory_order_relaxed);
  if (obs::metrics_enabled()) {
    obs::Registry::global().counter(std::string("serve.") + status_name(status)).add(n);
  }
  for (; first != last; ++first) {
    Response resp;
    resp.status = status;
    first->promise.set_value(resp);
  }
}

/// Stacks single-sample tensors of shape `sample` into one batch tensor
/// (leading batch dim).
Tensor stack_batch(const std::vector<Request>& batch, const Shape& sample) {
  std::vector<std::size_t> dims{batch.size()};
  dims.insert(dims.end(), sample.dims().begin(), sample.dims().end());
  Tensor out{Shape(dims)};
  const std::size_t row = sample.numel();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::memcpy(out.data() + i * row, batch[i].image.data(), row * sizeof(float));
  }
  return out;
}

}  // namespace

const char* status_name(Status status) {
  return kStatusNames[static_cast<std::size_t>(status)];
}

InferenceEngine::InferenceEngine(ModelRegistry& registry, std::string model_name,
                                 EngineConfig cfg)
    : config_(cfg),
      model_name_(std::move(model_name)),
      handle_(registry.handle(model_name_)),
      queue_(cfg.batching) {
  TDFM_CHECK(config_.workers >= 1, "engine needs at least one worker");
  TDFM_CHECK(!config_.use_thread_pool || config_.workers == 1,
             "use_thread_pool requires a single worker (for_range is "
             "single-job across external threads)");
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

InferenceEngine::~InferenceEngine() { shutdown(); }

std::future<Response> InferenceEngine::submit(Tensor image) {
  const Clock::time_point deadline =
      config_.default_deadline_us == 0
          ? Clock::time_point::max()
          : Clock::now() + std::chrono::microseconds(config_.default_deadline_us);
  return submit(std::move(image), deadline);
}

std::future<Response> InferenceEngine::submit(Tensor image,
                                              Clock::time_point deadline) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (obs::metrics_enabled()) {
    static obs::Counter requests = obs::Registry::global().counter("serve.requests");
    requests.add(1);
  }
  return queue_.push(std::move(image), deadline);
}

void InferenceEngine::shutdown() {
  if (stopped_.exchange(true)) return;
  queue_.shutdown();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void InferenceEngine::drain() {
  if (stopped_.exchange(true)) return;
  queue_.drain();
  for (auto& w : workers_) w.join();
  workers_.clear();
  // Belt and braces: nothing can be pending (workers exit only on a dry
  // drained queue), but mark the queue terminally shut so any
  // post-teardown push is rejected through the same path as shutdown().
  queue_.shutdown();
}

EngineStats InferenceEngine::stats() const {
  EngineStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.rejected_capacity = queue_.rejected_capacity();
  s.rejected_deadline = queue_.rejected_deadline();
  s.rejected_no_model = rejected_no_model_.load(std::memory_order_relaxed);
  s.rejected_bad_input = rejected_bad_input_.load(std::memory_order_relaxed);
  return s;
}

void InferenceEngine::worker_loop() {
  // Multi-worker engines run their forwards inline: N single-batch forwards
  // on N workers are the parallelism, and the shared for_range scheduler is
  // single-job / non-reentrant across external threads.  A single-worker
  // engine may instead opt into the pool (use_thread_pool) so each batched
  // forward fans its rows out across pool threads.
  std::optional<core::ThreadPool::InlineScope> inline_scope;
  if (!config_.use_thread_pool) inline_scope.emplace();
  for (;;) {
    std::vector<Request> batch = queue_.pop_batch();
    if (batch.empty()) return;  // shutdown drained the queue

    // The hot-swap point: one acquire load pins a fully-constructed version
    // for this entire batch.
    std::shared_ptr<ServedModel> model = handle_.snapshot();
    const Clock::time_point formed = Clock::now();
    if (!model) {
      reject(batch.begin(), batch.end(), Status::kRejectedNoModel, rejected_no_model_);
      continue;
    }
    // A malformed image is answered here, before stacking; the batch's
    // other requests are served.
    const Shape& sample = model->sample_shape();
    const auto bad = std::stable_partition(
        batch.begin(), batch.end(), [&](const Request& r) { return r.image.shape() == sample; });
    reject(bad, batch.end(), Status::kRejectedBadInput, rejected_bad_input_);
    batch.erase(bad, batch.end());
    if (batch.empty()) continue;

    obs::Span span("serve:batch");
    const Tensor input = stack_batch(batch, sample);
    const std::vector<int> classes = model->predict(input);
    const double compute_us = span.stop() * 1e6;

    batches_.fetch_add(1, std::memory_order_relaxed);
    served_.fetch_add(batch.size(), std::memory_order_relaxed);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Response resp;
      resp.status = Status::kOk;
      resp.predicted_class = classes[i];
      resp.model_version = model->version();
      resp.queue_us = us_between(batch[i].enqueue, formed);
      resp.compute_us = compute_us;
      resp.batch_size = batch.size();
      batch[i].promise.set_value(resp);
    }

    if (obs::metrics_enabled()) {
      static obs::Histogram queue_wait = obs::Registry::global().histogram(
          "serve.queue_wait_us", obs::exponential_buckets(10.0, 2.0, 16));
      static obs::Histogram compute = obs::Registry::global().histogram(
          "serve.compute_us", obs::exponential_buckets(10.0, 2.0, 16));
      static obs::Histogram batch_hist = obs::Registry::global().histogram(
          "serve.batch_size", obs::linear_buckets(1.0, 1.0, 32));
      static obs::Counter batches_c = obs::Registry::global().counter("serve.batches");
      static obs::Counter served_c = obs::Registry::global().counter("serve.served");
      static obs::Gauge depth = obs::Registry::global().gauge("serve.queue_depth");
      for (const Request& req : batch) {
        queue_wait.observe(us_between(req.enqueue, formed));
      }
      compute.observe(compute_us);
      batch_hist.observe(static_cast<double>(batch.size()));
      batches_c.add(1);
      served_c.add(batch.size());
      depth.set(static_cast<double>(queue_.depth()));
    }
  }
}

}  // namespace tdfm::serve
