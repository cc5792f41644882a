// Cross-process metric snapshots: the file format and merge semantics of
// the observability plane.
//
// A multi-process campaign (study_runner --spawn N) has no shared memory —
// each shard worker owns an isolated MetricsRegistry.  The plane bridges
// them through the filesystem: every worker periodically serialises its
// registry scrape, plus a small progress header, to a per-process file
// under `<journal>.obs/` (exporter.hpp), and any observer — the --progress
// driver, `study_runner --obs-report`, bench tooling — folds those files
// back together with `Aggregator`.
//
// Merge semantics are associative and commutative, so the aggregate is a
// pure function of the snapshot *set* (never of arrival order):
//   counters    sum
//   gauges      value of the newest snapshot (max (wall_us, pid) — a
//               deterministic total order, not "last file read")
//   histograms  bucket-wise sum; mismatched bounds are a schema conflict
//               and throw rather than silently mis-bin
//
// The file is versioned JSON-lines: a `{"type":"snapshot", ...}` header
// line (schema_version, pid, shard, seq, progress counts) followed by one
// metric_line() per metric.  Writers replace the whole file with
// core::write_file_atomic, so a reader sees a complete snapshot or the
// previous one — never a torn one; anything unreadable or unparseable in
// the directory is skipped with a warning, because losing one scrape
// interval is better than losing the live view.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace tdfm::obs {

/// Header of one exported snapshot: which process, which shard, and how far
/// its campaign has progressed.  The progress fields let the --progress
/// driver compute throughput/ETA without touching the journal.
struct SnapshotMeta {
  std::int64_t pid = 0;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  std::uint64_t seq = 0;        ///< export ordinal within this process
  std::int64_t wall_us = 0;     ///< system_clock µs at scrape time
  std::string label;            ///< e.g. "shard 0/3" ("" = unsharded)
  std::size_t grid_cells = 0;   ///< full factorial grid size
  std::size_t cells_done = 0;   ///< journaled + executed by this process
  std::size_t cells_executed = 0;  ///< computed by this process (incl. stolen)
  std::size_t cells_stolen = 0;
  double elapsed_seconds = 0.0;  ///< this process's campaign wall-clock
};

/// One process's exported registry scrape plus its header.
struct MetricsSnapshot {
  SnapshotMeta meta;
  std::vector<MetricSample> samples;  ///< name-sorted (Registry::scrape order)
};

/// Current schema version; parse rejects anything newer.
inline constexpr int kSnapshotSchemaVersion = 1;

/// Scrapes the global registry into a snapshot carrying `meta` (wall_us is
/// stamped here when the caller leaves it 0).
[[nodiscard]] MetricsSnapshot collect_snapshot(SnapshotMeta meta);

/// One metric as a JSON line, without the newline.  Doubles use
/// json_exact_number, so a line read back yields the same bits.  The
/// metric lines of a snapshot and of the --metrics file (telemetry.hpp).
[[nodiscard]] std::string metric_line(const MetricSample& sample);

/// Serialises a snapshot as JSON lines (header first, then metrics).
[[nodiscard]] std::string serialize_snapshot(const MetricsSnapshot& snap);

/// Parses a serialised snapshot.  Throws ConfigError on malformed input, a
/// missing header, or an unknown schema version.
[[nodiscard]] MetricsSnapshot parse_snapshot(std::string_view text);

/// Writes the snapshot with core::write_file_atomic, so concurrent readers
/// see the whole new snapshot or the whole old one.
void write_snapshot_atomic(const std::string& path, const MetricsSnapshot& snap);

/// Per-process snapshot path inside a plane directory.
[[nodiscard]] std::string snapshot_path(const std::string& dir, std::int64_t pid);

/// Result of scanning a plane directory.
struct SnapshotScan {
  std::vector<MetricsSnapshot> snapshots;  ///< parse order: sorted file names
  std::size_t skipped = 0;  ///< unreadable/torn files skipped (warned)
};

/// Lists every `metrics-*.jsonl` under `dir`, name-sorted.  A missing
/// directory lists as empty.  This is the plane's file discovery, shared by
/// read_snapshot_dir and by tools that archive snapshots byte-verbatim
/// (store::StoreWriter::archive_telemetry).
[[nodiscard]] std::vector<std::string> list_snapshot_files(
    const std::string& dir);

/// Loads every `metrics-*.jsonl` under `dir`.  A missing directory reads as
/// empty (the campaign has not exported yet); torn or foreign files are
/// skipped with a warning — the plane is an observer, never load-bearing.
[[nodiscard]] SnapshotScan read_snapshot_dir(const std::string& dir);

/// Order-independent merge of snapshots (semantics above).  add() streams
/// snapshots in; merge() folds another aggregator in, so merging is
/// associative by construction and tests can assert it.
class Aggregator {
 public:
  void add(const MetricsSnapshot& snap);
  void merge(const Aggregator& other);

  /// Merged samples, sorted by name (deterministic output).
  [[nodiscard]] std::vector<MetricSample> samples() const;

  /// Every header seen, in add order.
  [[nodiscard]] const std::vector<SnapshotMeta>& sources() const {
    return sources_;
  }

  /// The newest header per shard index (max (wall_us, seq, pid)): the live
  /// view of each shard for progress rendering.  Sorted by shard index.
  [[nodiscard]] std::vector<SnapshotMeta> latest_per_shard() const;

 private:
  struct GaugeState {
    double value = 0.0;
    std::int64_t wall_us = 0;
    std::int64_t pid = 0;
  };
  struct HistState {
    std::vector<double> upper_bounds;
    std::vector<std::uint64_t> bucket_counts;
    double sum = 0.0;
    std::uint64_t count = 0;
  };

  void take_gauge(const std::string& name, const GaugeState& incoming);
  void take_histogram(const std::string& name, const HistState& incoming);

  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, GaugeState> gauges_;
  std::map<std::string, HistState> hists_;
  std::vector<SnapshotMeta> sources_;
};

/// Quantile estimate (q in [0,1]) from fixed histogram buckets: linear
/// interpolation inside the bucket holding the q-th observation, clamped to
/// the last finite bound for mass in the +inf bucket.  Returns 0 for an
/// empty histogram.
[[nodiscard]] double histogram_quantile(const std::vector<double>& upper_bounds,
                                        const std::vector<std::uint64_t>& bucket_counts,
                                        double q);

/// Convenience overload for a scraped/aggregated histogram sample.
[[nodiscard]] double histogram_quantile(const MetricSample& sample, double q);

}  // namespace tdfm::obs
