// Store reader: manifest-driven queries with predicate pushdown.
//
// Opening a store reads only the manifest plus the final segment's bytes
// (to detect external truncation — the torn-tail analogue).  A query then
// resolves its string predicates against the dictionaries and walks the
// segment index: a segment whose zone maps cannot contain a match is
// *skipped* — its bytes are never read, let alone decompressed — and the
// skip is counted in ScanStats so tests and the CLI can prove pushdown
// happened.  Only surviving segments are read, checksum-verified, and
// decoded.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "store/format.hpp"
#include "study/journal.hpp"

namespace tdfm::store {

/// Conjunctive row predicate.  Unset fields match everything.
struct Query {
  std::optional<std::string> dataset;
  std::optional<std::string> model;
  std::optional<std::string> fault_level;
  std::optional<std::string> technique;
  std::optional<std::string> cell;    ///< exact id (no zone map: scans)
  std::optional<std::uint64_t> trial;
  std::optional<double> min_ad;
  std::optional<double> max_ad;
  /// Substring over the dictionary-encoded fields (dataset, model,
  /// fault_level, technique): a row matches when any of the four contains
  /// it.  Resolved against the dictionaries first, so segments whose zone
  /// lists hold no matching id are skipped (CLP-style dictionary grep).
  std::string grep;
};

struct ScanStats {
  std::size_t segments_total = 0;
  std::size_t segments_skipped = 0;  ///< zone-map pruned: bytes never read
  std::size_t segments_scanned = 0;
  std::size_t rows_scanned = 0;
  std::size_t rows_matched = 0;
};

class StoreReader {
 public:
  /// Opens and validates `dir`.  A final segment whose bytes are missing or
  /// whose checksum fails (external truncation — the crash-recovery
  /// analogue of a torn journal line) is dropped with a warning and
  /// reported via `recovered_truncated_tail()`; the same damage to a
  /// non-final segment throws ConfigError.
  explicit StoreReader(std::string dir);

  [[nodiscard]] const Manifest& manifest() const { return manifest_; }
  [[nodiscard]] std::size_t rows() const { return manifest_.rows; }
  [[nodiscard]] bool recovered_truncated_tail() const {
    return recovered_truncated_tail_;
  }

  /// Streams matching rows in store order.  `raw_jsonl` is the verbatim
  /// source line for non-canonical rows, empty otherwise (export emits
  /// `raw_jsonl` when present, else to_jsonl(record)).
  using RowFn =
      std::function<void(const study::CellRecord&, const std::string& raw_jsonl)>;
  ScanStats query(const Query& q, const RowFn& on_row) const;

  /// All records, store order (the Analyzer's store-backed path).
  [[nodiscard]] std::vector<study::CellRecord> read_all() const;

  /// Writes the store back out as JSONL — byte-identical to the imported
  /// journal (modulo a recovered torn tail, which import dropped exactly as
  /// a journal resume would).
  void export_jsonl(std::ostream& out) const;

  /// Restores the archived telemetry files into `out_dir`; returns how many
  /// were written.  Throws when the store has no telemetry archive.
  std::size_t restore_telemetry(const std::string& out_dir) const;

 private:
  std::string dir_;
  Manifest manifest_;
  bool recovered_truncated_tail_ = false;
};

/// Convenience: open + read_all (study_runner's --store report path).
[[nodiscard]] std::vector<study::CellRecord> read_all_records(
    const std::string& dir);

/// Convenience: open + export to a file.  Throws on I/O failure.
void export_journal(const std::string& dir, const std::string& out_path);

}  // namespace tdfm::store
