// Request/response types of the serving layer.
//
// A request is one image classified against a named logical model; the
// response carries the verdict plus the measurements the load bench and the
// latency histograms are built from (queue wait vs compute, the batch the
// request rode in, the model version that answered).  Every submitted
// request is answered exactly once — accepted requests with a prediction,
// everything else with an explicit rejection status (admission control,
// deadline, shutdown, no model, bad input).  Nothing is silently dropped.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>

#include "tensor/tensor.hpp"

namespace tdfm::serve {

using Clock = std::chrono::steady_clock;

/// Terminal status of a request.  Everything except kOk is a *rejection*:
/// the request never produced a prediction, by design (graceful degradation
/// instead of unbounded queues).
enum class Status {
  kOk,                 ///< classified
  kRejectedQueueFull,  ///< admission control: queue at max_queue_depth
  kRejectedDeadline,   ///< deadline passed before a worker picked it up
  kRejectedShutdown,   ///< engine shut down while the request was queued
  kRejectedNoModel,    ///< logical model has no loaded version
  kRejectedBadInput,   ///< image is not the served version's sample shape
};

[[nodiscard]] const char* status_name(Status status);

/// What a client's future resolves to.
struct Response {
  Status status = Status::kRejectedShutdown;
  int predicted_class = -1;        ///< valid only when status == kOk
  std::uint64_t model_version = 0; ///< registry version that served it
  double queue_us = 0.0;           ///< admission -> batch formation
  double compute_us = 0.0;         ///< batch forward-pass wall time
  std::size_t batch_size = 0;      ///< size of the micro-batch it rode in

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
};

/// A queued request (internal to BatchingQueue / InferenceEngine).
struct Request {
  Tensor image;                ///< one sample, no batch dim ([C,H,W])
  Clock::time_point enqueue;   ///< admission time
  Clock::time_point deadline;  ///< Clock::time_point::max() = none
  std::promise<Response> promise;
};

}  // namespace tdfm::serve
