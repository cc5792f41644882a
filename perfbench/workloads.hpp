// The four benchmark workloads and the kernel probes of the per-layer run.
//
// End-to-end metrics, printed by every workload (BENCHMARK.json defines the
// bounds; NOISE.md explains the estimators):
//   setup_s         median of repeated set-ups, each timed from its start to
//                   the point the first measured operation could begin
//   peak_rss_mb     ru_maxrss of the workload process
//   work_per_s      operations completed per second (the workload's own
//                   operation: grid cell, in-limit request, pipeline round)
//   latency_p50_ms  median time of one operation
//   slo_met_share   share of attempted operations that finished correctly
//                   within the workload's fixed time limit
#pragma once

#include "common.hpp"

namespace perfbench {

[[nodiscard]] Result run_campaign(const Options& opts);
[[nodiscard]] Result run_serving(const Options& opts, bool quantized);
[[nodiscard]] Result run_pipeline(const Options& opts);

// Kernel probes (kernels_probe.cpp): GEMM and q8 building blocks timed at
// ConvNet width-8 shapes, with operation counts and bytes computed from the
// shapes.  `classes` sizes the last dense layer.
void probe_train_gemm(Result& out, std::uint64_t seed, std::size_t classes);
void probe_b1_fp32(Result& out, std::uint64_t seed, std::size_t classes);
void probe_b1_q8(Result& out, std::uint64_t seed, std::size_t classes);

}  // namespace perfbench
