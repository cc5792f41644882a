// Periodic metric snapshot exporter: this process's end of the plane.
//
// One background thread wakes every interval, asks the host (via fill_meta)
// for progress numbers, scrapes the global registry, and atomically
// replaces `<dir>/metrics-<pid>.jsonl` (snapshot.hpp).  stop() takes a
// final scrape so the file ends at the true totals even when the campaign
// finishes between ticks.  The thread only ever *reads* metrics and writes
// a side file — it cannot perturb journal bytes, reports, or the
// computation's determinism.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "obs/snapshot.hpp"

namespace tdfm::obs {

/// Exporter configuration.  `fill_meta` runs on the exporter thread right
/// before each scrape; it receives a meta pre-populated with pid/shard/label
/// and fills in the progress fields (grid_cells, cells_done, ...).  It must
/// be thread-safe against the campaign workers.
struct ExporterOptions {
  std::string dir;                 ///< plane directory (created if missing)
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::string label;               ///< e.g. "shard 0/3"
  std::int64_t interval_ms = 500;  ///< scrape period
  std::function<void(SnapshotMeta&)> fill_meta;
};

/// RAII handle: start() spawns the thread, stop()/dtor joins it after a
/// final export.  Enables metrics globally on start (snapshots of a
/// disabled registry would be all zeros).
class SnapshotExporter {
 public:
  SnapshotExporter();  // out-of-line: Ticker is incomplete here
  ~SnapshotExporter();
  SnapshotExporter(const SnapshotExporter&) = delete;
  SnapshotExporter& operator=(const SnapshotExporter&) = delete;

  /// Creates the directory and starts exporting.  Throws ConfigError if the
  /// directory cannot be created; idempotent stop()s are fine.
  void start(ExporterOptions options);

  /// Final export + join.  No-op when not running.
  void stop();

  [[nodiscard]] bool running() const { return running_; }

  /// The file this process exports to ("" before start()).
  [[nodiscard]] const std::string& path() const { return path_; }

  /// One synchronous export (also what the ticker calls).  Requires start()
  /// to have configured the directory; safe to call concurrently with the
  /// ticker (writers race benignly — both produce complete snapshots).
  void export_now();

 private:
  struct Ticker;
  ExporterOptions options_;
  std::string path_;
  std::uint64_t seq_ = 0;
  bool running_ = false;
  std::unique_ptr<Ticker> ticker_;
  std::mutex export_mu_;  ///< serialises exports (one shared staging file)
};

}  // namespace tdfm::obs
