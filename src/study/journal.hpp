// Crash-safe, append-only campaign journal: one JSONL record per completed
// cell, safe under concurrent writer *processes*.
//
// The journal is what makes a killed 2-hour sweep restartable — and what
// makes a sharded multi-process sweep mergeable.  It is a core::DurableLog,
// so core/durable.hpp's crash contract holds: appends are one locked
// write(2) + fdatasync(2) of one line, O(1) in journal size, and two
// writers on one file interleave whole lines; on load a missing file is a
// fresh campaign and only a torn final line is recovered.  This file keeps
// the record codec and the shard merge.
//
// On `--resume` the scheduler loads the journal, keeps the records whose
// cell ids appear in the current expansion, and skips those cells.  Records
// are self-describing (axis names, not indices), so a journal survives axis
// reordering and still refuses records from a different grid (the content
// hash differs).  Per-shard journals from a partitioned campaign are fused
// by `merge_journals`: deduplicated by cell id with an equal-modulo-timing
// conflict check, ordered by cell id, so the merged bytes do not depend on
// shard count, shard order, or which duplicate a work-stealer also computed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/durable.hpp"

namespace tdfm::study {

/// One completed cell.  Everything the Analyzer needs, flat and
/// self-contained; `train_seconds`/`infer_seconds` are the only fields that
/// vary between bit-identical runs (wall-clock), which is why determinism
/// tests compare records "modulo timing".
struct CellRecord {
  std::string cell;         ///< 16-hex content-hash id (spec.hpp)
  std::string dataset;      ///< axis names, not indices — self-describing
  std::string model;
  std::string fault_level;
  std::string technique;
  std::size_t trial = 0;    ///< 1-based
  double golden_accuracy = 0.0;
  double faulty_accuracy = 0.0;
  double ad = 0.0;
  double reverse_ad = 0.0;
  double naive_drop = 0.0;
  double train_seconds = 0.0;
  double infer_seconds = 0.0;
  double inference_models = 1.0;
  bool shared_fit = false;  ///< fit shared across panels (ensemble cache)
  bool quantized = false;   ///< q8_0 measurement ran for this cell
  double quantized_accuracy = 0.0;    ///< int8 model accuracy on faulty data
  double quantized_ad = 0.0;          ///< int8 model AD vs the fp32 golden
  double quantized_vs_fp32_ad = 0.0;  ///< int8 vs this cell's own fp32 preds

  [[nodiscard]] bool operator==(const CellRecord&) const = default;
};

/// True when the records agree on everything except wall-clock timings.
[[nodiscard]] bool equal_modulo_timing(const CellRecord& a, const CellRecord& b);

/// Serialises one record as a single JSON line (no trailing newline).
/// String fields go through obs::json_escape.
[[nodiscard]] std::string to_jsonl(const CellRecord& record);

/// Parses one journal line.  Throws ConfigError on malformed input or
/// missing required fields; unknown keys are ignored (forward compat).
[[nodiscard]] CellRecord parse_record(std::string_view line);

/// The journal's record format, for core::DurableLog.
struct JournalCodec {
  static constexpr std::string_view kKind = "journal";
  static std::string render(const CellRecord& r) { return to_jsonl(r); }
  static CellRecord parse(std::string_view line) { return parse_record(line); }
  static std::string flight_detail(const CellRecord& r) { return r.cell; }
};

/// Append-only journal bound to a file path (core/durable.hpp).  The
/// scheduler's job workers append concurrently; an empty path keeps the
/// journal memory-only (tests, ephemeral bench runs).
using Journal = core::DurableLog<CellRecord, JournalCodec>;

/// Result of fusing per-shard journals (merge_journals).
struct MergeResult {
  /// Deduplicated records ordered by cell id — byte-stable: independent of
  /// input path order and of which shard(s) computed a duplicated cell.
  std::vector<CellRecord> records;
  std::size_t inputs = 0;      ///< records read across all journals
  std::size_t duplicates = 0;  ///< records dropped as timing-only duplicates
};

/// Finds the per-shard journals next to `base`: every
/// `<base>.shard<i>of<N>.jsonl` sibling (the naming study_runner's --spawn
/// driver writes).  Returns them ordered by shard index.  Throws
/// ConfigError when the siblings disagree on N, repeat an index, or leave a
/// hole in 0..N-1 — an incomplete set would silently merge a partial
/// campaign.  No siblings at all returns empty (the caller decides whether
/// that is an error).
[[nodiscard]] std::vector<std::string> discover_shard_journals(
    const std::string& base);

/// Loads every journal (torn tails recovered — a merged shard may have
/// crashed) and fuses them: records sharing a cell id must be equal modulo
/// timing, otherwise ConfigError names the conflicting cell; among timing
/// duplicates the lexicographically-smallest serialisation wins, making the
/// merged journal a pure function of the set of computed results.
[[nodiscard]] MergeResult merge_journals(const std::vector<std::string>& paths);

/// Writes `records` as a whole journal file with core::write_file_atomic:
/// merge output must never be observable half-written.
void write_journal(const std::string& path,
                   const std::vector<CellRecord>& records);

}  // namespace tdfm::study
