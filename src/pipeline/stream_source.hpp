// Faulty sample stream: replays a dataset as a sequenced stream of chunks,
// each pushed through the fault injector before it is emitted.
//
// The paper injects faults into a *static* training set; in production the
// faults arrive continuously with the data.  StreamSource models that: the
// base dataset is replayed cyclically in fixed-size chunks, and every chunk
// passes through faults::inject (mislabelling / repetition / removal at the
// configured rates) before the ingest layer sees it.  Each emitted sample
// carries a monotone sequence number (repetition emits extra numbers,
// removal consumes base samples without emitting), so downstream windows can
// be identified by [first_seq, last_seq] ranges in the decision log.
//
// Determinism: chunk i is injected with an Rng seeded from
// stable_hash64("pipeline-stream|seed=<seed>|chunk=<i>") — a role-scoped
// content seed in the study's seed doctrine.  The stream is therefore
// bit-identical for a given (base dataset, config) at any thread count and
// regardless of what else the process computes between chunks.
#pragma once

#include <cstdint>

#include "data/dataset.hpp"
#include "faults/fault_injector.hpp"

namespace tdfm::pipeline {

struct StreamConfig {
  double mislabel_percent = 10.0;  ///< --fault-rate of the runner
  double repeat_percent = 0.0;
  double remove_percent = 0.0;
  std::size_t chunk_size = 64;  ///< base samples drawn per next() call
  std::uint64_t seed = 42;
};

/// One emitted chunk: `samples.size()` post-injection samples occupying the
/// sequence range [first_seq, first_seq + samples.size()).
struct StreamChunk {
  std::size_t index = 0;  ///< chunk ordinal (the stream's clock tick)
  std::uint64_t first_seq = 0;
  data::Dataset samples;
  faults::InjectionReport report;
};

class StreamSource {
 public:
  /// `base` is the clean pool replayed (cyclically) by the stream.
  StreamSource(data::Dataset base, StreamConfig config);

  /// Emits the next chunk.  Exported obs counters (gated):
  /// pipeline.stream.samples / .mislabelled / .repeated / .removed.
  [[nodiscard]] StreamChunk next();

  /// Total post-injection samples emitted so far (== next chunk's first_seq).
  [[nodiscard]] std::uint64_t emitted() const { return next_seq_; }
  [[nodiscard]] const StreamConfig& config() const { return config_; }
  [[nodiscard]] const data::Dataset& base() const { return base_; }

 private:
  data::Dataset base_;
  StreamConfig config_;
  std::size_t cursor_ = 0;  ///< next base sample to draw (mod base_.size())
  std::size_t chunk_index_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace tdfm::pipeline
