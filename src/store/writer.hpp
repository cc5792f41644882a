// Store writer: appends CellRecords, cuts fixed-size segments, commits a
// crash-safe manifest.  See format.hpp for the layout and the crash-safety
// contract.
//
// The writer is append-friendly across sessions: opening an existing store
// loads its manifest, truncates any orphan (uncommitted) bytes off
// segments.bin, and keeps extending the same dictionaries — ids already
// written into committed segments never change meaning.
//
// Losslessness: `append` takes the record *and* the raw journal line it was
// parsed from.  When the line is exactly the canonical `to_jsonl`
// serialisation (the overwhelmingly common case — the journal writes
// canonical lines), nothing extra is stored; otherwise the raw line is kept
// verbatim in the segment's exception column, so `export` reproduces any
// valid journal byte for byte — including hand-edited spacing, reordered
// keys, or `null` non-finite doubles that do not survive a parse/render
// round trip.  (CLP stores unencodable variables verbatim for the same
// reason.)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "store/format.hpp"
#include "study/journal.hpp"

namespace tdfm::core {
class AppendFile;
}  // namespace tdfm::core

namespace tdfm::store {

struct WriterOptions {
  std::size_t segment_rows = kDefaultSegmentRows;
};

class StoreWriter {
 public:
  /// Opens `dir` for writing, creating it (and parents) if missing.  An
  /// existing store is extended; its segment_rows wins over `options`.
  explicit StoreWriter(std::string dir, WriterOptions options = {});
  ~StoreWriter();

  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  /// Buffers one record; cuts a segment when segment_rows accumulate.
  /// `raw_line` is the source journal line (no newline); pass empty when
  /// the record was produced in memory (it is canonical by construction).
  void append(const study::CellRecord& record, std::string_view raw_line = {});

  /// Provenance + torn-tail flag carried into the manifest header.
  void set_source(std::string source);
  void set_source_recovered_torn_tail(bool recovered);

  /// Archives every obs metric-snapshot file under `obs_dir` into
  /// telemetry.bin (byte-verbatim, per-file compressed).  Returns the file
  /// count.  Call before commit(); replaces any previous archive.
  std::size_t archive_telemetry(const std::string& obs_dir);

  /// Flushes the partial segment and atomically replaces the manifest.
  /// After commit() returns, every appended record is durable.
  void commit();

  [[nodiscard]] const Manifest& manifest() const { return manifest_; }
  [[nodiscard]] std::size_t pending_rows() const { return rows_.size(); }
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  void flush_segment();

  std::string dir_;
  WriterOptions options_;
  Manifest manifest_;
  std::vector<study::CellRecord> rows_;        ///< buffered, not yet in a segment
  std::vector<std::string> raw_exceptions_;    ///< parallel; "" = canonical
  std::unique_ptr<core::AppendFile> data_;     ///< opened on first flush
};

/// Import statistics (study_query import / bench_store reporting).
struct ImportStats {
  std::size_t records = 0;
  std::size_t segments = 0;
  std::size_t raw_exceptions = 0;  ///< lines kept verbatim (non-canonical)
  std::uint64_t journal_bytes = 0;
  std::uint64_t store_bytes = 0;  ///< manifest + segments (+ telemetry)
  bool recovered_torn_tail = false;
  std::size_t telemetry_files = 0;
};

/// Lossless JSONL journal -> store import, streamed through the journal's
/// line-record reader (core/durable.hpp): a torn final line is dropped
/// exactly as Journal::load would, recorded in the manifest, and reported
/// in the stats.  A journal path that does not exist, is not a regular file
/// or cannot be read throws ConfigError.  `obs_dir` non-empty also archives
/// that observability-plane directory into the store.
ImportStats import_journal(const std::string& journal_path,
                           const std::string& dir, WriterOptions options = {},
                           const std::string& obs_dir = {});

}  // namespace tdfm::store
