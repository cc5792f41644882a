// Inference engine: worker threads draining the batching queue against the
// registry's current model version.
//
// Each of the N workers loops: pop a micro-batch, snapshot the logical
// model's current version (one atomic load — the hot-swap point), answer
// the requests whose image is not the version's sample shape with
// kRejectedBadInput, stack the rest into one [B, ...] tensor, run a single
// forward pass through the version's networks, and resolve every request's
// future.  Because the snapshot is taken once per batch, a batch is never
// served by a partially-swapped model.  All workers share the version's
// networks: an eval-mode forward writes no layer member.
//
// Workers mark themselves ThreadPool::InlineScope: the shared pool's
// for_range is single-job, and N independent single-batch forwards are
// already the parallelism we want — per-layer chunking inside them would
// only add contention.
//
// Observability (all under the standard obs gates):
//   counters    serve.requests, serve.batches, serve.rejected_capacity,
//               serve.rejected_deadline, serve.rejected_shutdown,
//               serve.rejected_no_model, serve.rejected_bad_input
//   histograms  serve.queue_wait_us, serve.compute_us (µs exponential
//               buckets), serve.batch_size (linear buckets)
//   gauge       serve.queue_depth (sampled at batch formation)
//   trace span  "serve:batch" per batch on the worker's lane
#pragma once

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "serve/batching_queue.hpp"
#include "serve/model_registry.hpp"

namespace tdfm::serve {

struct EngineConfig {
  std::size_t workers = 2;       ///< worker threads
  BatchingConfig batching;
  /// Deadline applied by submit(image) relative to admission; 0 = none.
  std::uint64_t default_deadline_us = 0;
  /// Intra-batch parallelism: the worker drives the shared ThreadPool inside
  /// its forward passes, spreading a micro-batch's rows across pool threads
  /// (conv/GEMM already split on the batch dimension).  This is where
  /// micro-batching beats batch-size-1 on multi-core hosts: a batch of 8
  /// fans out over 8 threads while single images can use only one.  Allowed
  /// only with workers == 1 (the pool's for_range is single-job), and the
  /// application must not run other pool work (e.g. training) concurrently.
  /// When false, workers run their forwards inline and parallelism comes
  /// from serving many batches at once (inter-batch).
  bool use_thread_pool = false;
};

/// Aggregate counters mirrored locally so tests and the bench can read them
/// without enabling the metrics registry.
struct EngineStats {
  std::uint64_t submitted = 0;
  std::uint64_t served = 0;
  std::uint64_t batches = 0;
  std::uint64_t rejected_capacity = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_no_model = 0;
  std::uint64_t rejected_bad_input = 0;  ///< image not the model's sample shape
};

class InferenceEngine {
 public:
  /// Binds to the logical model `model_name` in `registry`.  The model may
  /// be loaded (or hot-swapped) before, during, or after construction; the
  /// registry must outlive the engine.
  InferenceEngine(ModelRegistry& registry, std::string model_name, EngineConfig cfg);

  /// Shuts down and joins the workers (pending requests are rejected).
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Submits one image ([C,H,W] — no batch dimension) with the config's
  /// default deadline.  The returned future always resolves (with
  /// kRejectedBadInput if the image is not the served sample shape).
  [[nodiscard]] std::future<Response> submit(Tensor image);

  /// Submits with an explicit absolute deadline.
  [[nodiscard]] std::future<Response> submit(Tensor image, Clock::time_point deadline);

  /// Stops admission, rejects everything queued, joins workers.  Idempotent.
  void shutdown();

  /// Graceful teardown: stops admission, lets the workers *serve* every
  /// already-admitted request, then joins them.  Because each accepted
  /// request resolves with a real prediction instead of kRejectedShutdown,
  /// callers that submitted a fixed request sequence observe a
  /// deterministic response set regardless of how teardown races batch
  /// formation — the property the pipeline's byte-stable decision log
  /// relies on.  Idempotent, and interchangeable with shutdown() once
  /// either has run.
  void drain();

  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] const EngineConfig& config() const { return config_; }
  [[nodiscard]] const std::string& model_name() const { return model_name_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }

 private:
  void worker_loop();

  EngineConfig config_;
  std::string model_name_;
  ModelRegistry::Handle handle_;
  BatchingQueue queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> rejected_no_model_{0};
  std::atomic<std::uint64_t> rejected_bad_input_{0};
};

}  // namespace tdfm::serve
