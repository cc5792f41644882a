// Umbrella header for the tdfm serving layer:
//   - request.hpp          request/response/status types
//   - batching_queue.hpp   micro-batch coalescing + admission control
//   - model_registry.hpp   named+versioned models, wait-light hot swap
//   - inference_engine.hpp worker threads, futures, obs integration
//
// Quick tour (see DESIGN.md "Serving layer"):
//
//   serve::ModelRegistry registry;
//   registry.load("signs", "signs.ckpt");          // v2 self-describing file
//   serve::EngineConfig cfg;
//   cfg.workers = 2;                               // both share one network
//   cfg.batching.max_batch_size = 8;
//   serve::InferenceEngine engine(registry, "signs", cfg);
//   auto future = engine.submit(image);            // [C,H,W] tensor
//   serve::Response r = future.get();              // r.ok(), r.predicted_class
//   registry.load("signs", "signs_v2.ckpt");       // hot swap, requests in flight
#pragma once

#include "serve/batching_queue.hpp"
#include "serve/inference_engine.hpp"
#include "serve/model_registry.hpp"
#include "serve/request.hpp"
