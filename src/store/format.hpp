// On-disk layout of `tdfm::store` — the compressed, queryable results store.
//
// A store is a directory:
//
//   <store>/
//     manifest.jsonl   committed state: header, dictionaries, segment index
//     segments.bin     columnar segment data, append-only
//     telemetry.bin    (optional) archived obs metric snapshots
//
// The CLP log store is the design exemplar: strings that repeat across
// records (dataset/model/technique/fault-level names) live once in a
// dictionary and rows carry varint ids; numerics are split into typed
// columns (zig-zag-delta varints for ints, XOR-predecessor raw-bit packing
// for fp64); rows are grouped into fixed-size segments whose zone maps
// (per-column distinct-id lists and min/max) let a query skip whole
// segments without decompressing them.
//
// One segment in segments.bin is:
//
//   u32 magic "TDFS"
//   varint block_count
//   per block: varint column_id, u8 codec, varint raw_size,
//              varint comp_size, comp_size bytes
//
// and its metadata (offset, byte length, row count, FNV-1a checksum, zone
// maps) lives in the manifest, so a skipped segment costs zero reads of
// segments.bin.  The manifest itself is flat JSON lines parsed by the
// shared obs::FlatJsonParser — the same grammar as the journal and the
// snapshot plane, so foreign files fail loudly with familiar diagnostics.
//
// Crash-safety contract (core/durable.hpp, shared with the journal):
//   1. segment bytes are appended and fdatasync'd *before* the manifest
//      references them (core::AppendFile);
//   2. the manifest is replaced with core::write_file_atomic;
//   3. therefore a crash leaves either the previous committed state, or
//      orphan bytes past the committed end of segments.bin — which a
//      reopened writer truncates and a reader never looks at.
//   A store torn by external means (a partial copy, a truncated disk image)
//   recovers like a torn journal tail: the manifest goes through the shared
//   line-record reader, and a final segment whose bytes are missing or
//   whose checksum fails is dropped with a warning; damage to any earlier
//   segment throws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "store/dictionary.hpp"

namespace tdfm::store {

inline constexpr char kManifestFile[] = "manifest.jsonl";
inline constexpr char kDataFile[] = "segments.bin";
inline constexpr char kTelemetryFile[] = "telemetry.bin";
inline constexpr std::uint32_t kSegmentMagic = 0x53464454;  // "TDFS" LE
inline constexpr int kFormatVersion = 1;
inline constexpr std::size_t kDefaultSegmentRows = 1024;

/// Block compression codecs.  Raw is the fallback whenever compression
/// would not shrink the block; tlz is the built-in LZ byte codec so stores
/// stay readable on builds without zlib.
enum class Codec : std::uint8_t { kRaw = 0, kTlz = 1, kZlib = 2 };

/// Fixed column schema, in CellRecord / to_jsonl field order.
enum class ColumnId : std::uint8_t {
  kCell = 0,         ///< 16-hex ids packed to u64 (exceptions verbatim)
  kDataset,          ///< dictionary ids
  kModel,            ///< dictionary ids
  kFaultLevel,       ///< dictionary ids
  kTechnique,        ///< dictionary ids
  kTrial,            ///< zig-zag delta varints
  kGoldenAccuracy,   ///< fp64 XOR-predecessor varints (all doubles below)
  kFaultyAccuracy,
  kAd,
  kReverseAd,
  kNaiveDrop,
  kTrainSeconds,
  kInferSeconds,
  kInferenceModels,
  kQuantizedAccuracy,
  kQuantizedAd,
  kQuantizedVsFp32Ad,
  kSharedFit,        ///< bitmap
  kQuantized,        ///< bitmap
  kRawExceptions,    ///< rows whose source line is not canonical to_jsonl
  kColumnCount
};

inline constexpr std::size_t kDoubleColumns = 11;  ///< kGoldenAccuracy..kQuantizedVsFp32Ad
inline constexpr std::size_t kDictColumns = 4;     ///< kDataset..kTechnique

/// Per-segment index entry: where the bytes live plus the zone maps that
/// let a filter skip the segment without touching segments.bin.
struct SegmentMeta {
  std::uint64_t offset = 0;  ///< byte offset into segments.bin
  std::uint64_t bytes = 0;   ///< total segment length
  std::size_t rows = 0;
  std::uint64_t checksum = 0;  ///< FNV-1a 64 of the segment bytes
  /// Sorted distinct dictionary ids present, one list per dict column
  /// (kDataset..kTechnique order).
  std::vector<std::uint64_t> dict_ids[kDictColumns];
  std::uint64_t trial_min = 0;
  std::uint64_t trial_max = 0;
  double ad_min = 0.0;
  double ad_max = 0.0;
};

/// The committed state of a store: everything manifest.jsonl serialises.
struct Manifest {
  std::size_t rows = 0;          ///< sum of the segments' rows
  std::uint64_t data_bytes = 0;  ///< committed length of segments.bin
  std::size_t segment_rows = kDefaultSegmentRows;
  /// The imported journal recovered a torn final line (kill -9 signature);
  /// carried so post-hoc reports can surface the recovery.
  bool source_recovered_torn_tail = false;
  std::string source;  ///< provenance note (journal path), informational
  Dictionary dicts[kDictColumns];  ///< kDataset..kTechnique order
  std::vector<SegmentMeta> segments;
  std::size_t telemetry_files = 0;   ///< archived obs snapshot files
  std::uint64_t telemetry_bytes = 0; ///< committed length of telemetry.bin
  std::uint64_t telemetry_checksum = 0;
};

/// Human-readable names of the dictionary columns, manifest/CLI order.
[[nodiscard]] const char* dict_column_name(std::size_t dict_index);

/// Serialises the manifest as flat JSON lines (header, dict entries,
/// segment entries, optional telemetry entry).
[[nodiscard]] std::string render_manifest(const Manifest& m);

/// Parses a manifest document under core::read_records' torn-tail rule,
/// reporting a dropped final line in `recovered_torn_tail`.  Throws
/// ConfigError on any other malformed line or a missing header.
[[nodiscard]] Manifest parse_manifest(std::string_view text,
                                      bool* recovered_torn_tail = nullptr);

/// Reads and parses `dir`'s manifest, the way the reader and the writer
/// open a store.  Also throws ConfigError, naming both values, when the
/// header's `rows` or `data_bytes` disagrees with its segments (the sum of
/// their rows; the end of the last one).
[[nodiscard]] Manifest read_manifest(const std::string& dir,
                                     bool* recovered_torn_tail = nullptr);

}  // namespace tdfm::store
