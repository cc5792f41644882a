#include "store/writer.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>

#include "core/durable.hpp"
#include "core/error.hpp"
#include "core/logging.hpp"
#include "core/varint.hpp"
#include "obs/snapshot.hpp"
#include "store/codec.hpp"

namespace tdfm::store {

namespace fs = std::filesystem;

namespace {

/// True for the canonical cell-id shape: exactly 16 lowercase hex digits.
/// Those pack into one u64 (half the bytes); anything else is stored
/// verbatim — the store never assumes where a journal came from.
bool is_hex16(const std::string& s) {
  if (s.size() != 16) return false;
  for (const char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

std::uint64_t parse_hex16(const std::string& s) {
  std::uint64_t v = 0;
  for (const char c : s) {
    v = (v << 4) | static_cast<std::uint64_t>(
                       c <= '9' ? c - '0' : c - 'a' + 10);
  }
  return v;
}

std::uint64_t file_size_or_zero(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

const std::string& dict_field(const study::CellRecord& r, std::size_t d) {
  switch (d) {
    case 0: return r.dataset;
    case 1: return r.model;
    case 2: return r.fault_level;
    default: return r.technique;
  }
}

double double_field(const study::CellRecord& r, std::size_t i) {
  switch (i) {
    case 0: return r.golden_accuracy;
    case 1: return r.faulty_accuracy;
    case 2: return r.ad;
    case 3: return r.reverse_ad;
    case 4: return r.naive_drop;
    case 5: return r.train_seconds;
    case 6: return r.infer_seconds;
    case 7: return r.inference_models;
    case 8: return r.quantized_accuracy;
    case 9: return r.quantized_ad;
    default: return r.quantized_vs_fp32_ad;
  }
}

void append_block(std::string& out, ColumnId column, std::string_view raw) {
  const auto [codec, comp] = compress_block(raw);
  core::put_varint(out, static_cast<std::uint64_t>(column));
  out += static_cast<char>(codec);
  core::put_varint(out, raw.size());
  core::put_varint(out, comp.size());
  out += comp;
}

}  // namespace

StoreWriter::StoreWriter(std::string dir, WriterOptions options)
    : dir_(std::move(dir)), options_(options) {
  TDFM_CHECK(options_.segment_rows > 0, "store segment_rows must be > 0");
  fs::create_directories(dir_);
  const std::string manifest_path = dir_ + "/" + kManifestFile;
  const std::string data_path = dir_ + "/" + kDataFile;
  if (fs::exists(manifest_path)) {
    manifest_ = read_manifest(dir_);
    // An existing store's geometry wins: mixed segment sizes would make the
    // zone-map/row accounting depend on writer history.
    options_.segment_rows = manifest_.segment_rows;
    const std::uint64_t on_disk = file_size_or_zero(data_path);
    if (on_disk < manifest_.data_bytes) {
      throw ConfigError("store " + dir_ + ": segments.bin (" +
                        std::to_string(on_disk) + " bytes) is shorter than "
                        "the manifest's committed " +
                        std::to_string(manifest_.data_bytes) +
                        " bytes — open it read-only to recover what remains");
    }
    if (on_disk > manifest_.data_bytes) {
      // Orphan bytes from a crash between segment append and manifest
      // commit: drop them so the next append lands at the committed end.
      TDFM_LOG(kWarn) << "store " << dir_ << ": truncating "
                      << on_disk - manifest_.data_bytes
                      << " uncommitted bytes off " << kDataFile;
      TDFM_CHECK(::truncate(data_path.c_str(),
                            static_cast<off_t>(manifest_.data_bytes)) == 0,
                 "failed truncating orphan store bytes: " + data_path);
    }
  } else {
    manifest_.segment_rows = options_.segment_rows;
  }
}

StoreWriter::~StoreWriter() {
  if (!rows_.empty()) {
    TDFM_LOG(kWarn) << "store " << dir_ << ": writer destroyed with "
                    << rows_.size() << " uncommitted rows (call commit())";
  }
}

void StoreWriter::set_source(std::string source) {
  manifest_.source = std::move(source);
}

void StoreWriter::set_source_recovered_torn_tail(bool recovered) {
  manifest_.source_recovered_torn_tail = recovered;
}

void StoreWriter::append(const study::CellRecord& record,
                         std::string_view raw_line) {
  rows_.push_back(record);
  // Only a line that differs from the canonical serialisation costs bytes.
  std::string canonical = to_jsonl(record);
  raw_exceptions_.push_back(
      raw_line.empty() || raw_line == canonical ? std::string()
                                                : std::string(raw_line));
  if (rows_.size() >= options_.segment_rows) flush_segment();
}

void StoreWriter::flush_segment() {
  if (rows_.empty()) return;
  const std::size_t n = rows_.size();
  SegmentMeta meta;
  meta.rows = n;

  // --- encode columns -------------------------------------------------------
  std::string cell_col;
  for (const auto& r : rows_) {
    if (is_hex16(r.cell)) {
      core::put_varint(cell_col, 0);
      core::put_fixed64(cell_col, parse_hex16(r.cell));
    } else {
      core::put_varint(cell_col, r.cell.size() + 1);
      cell_col += r.cell;
    }
  }

  std::string dict_cols[kDictColumns];
  for (std::size_t d = 0; d < kDictColumns; ++d) {
    std::vector<std::uint64_t> seen;
    for (const auto& r : rows_) {
      const std::uint64_t id = manifest_.dicts[d].id_for(dict_field(r, d));
      core::put_varint(dict_cols[d], id);
      seen.push_back(id);
    }
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    meta.dict_ids[d] = std::move(seen);
  }

  std::string trial_col;
  std::int64_t prev_trial = 0;
  meta.trial_min = rows_.front().trial;
  meta.trial_max = rows_.front().trial;
  for (const auto& r : rows_) {
    const auto t = static_cast<std::int64_t>(r.trial);
    core::put_varint(trial_col, core::zigzag_encode(t - prev_trial));
    prev_trial = t;
    meta.trial_min = std::min<std::uint64_t>(meta.trial_min, r.trial);
    meta.trial_max = std::max<std::uint64_t>(meta.trial_max, r.trial);
  }

  std::string double_cols[kDoubleColumns];
  for (std::size_t i = 0; i < kDoubleColumns; ++i) {
    std::uint64_t prev = 0;
    for (const auto& r : rows_) {
      const auto bits = std::bit_cast<std::uint64_t>(double_field(r, i));
      core::put_varint(double_cols[i], bits ^ prev);
      prev = bits;
    }
  }
  meta.ad_min = rows_.front().ad;
  meta.ad_max = rows_.front().ad;
  for (const auto& r : rows_) {
    meta.ad_min = std::min(meta.ad_min, r.ad);
    meta.ad_max = std::max(meta.ad_max, r.ad);
  }

  std::vector<bool> shared_fit(n), quantized(n);
  for (std::size_t i = 0; i < n; ++i) {
    shared_fit[i] = rows_[i].shared_fit;
    quantized[i] = rows_[i].quantized;
  }
  std::string shared_col, quant_col;
  core::pack_bits(shared_fit, shared_col);
  core::pack_bits(quantized, quant_col);

  std::string exc_col;
  std::size_t exc_count = 0;
  for (const auto& raw : raw_exceptions_) {
    if (!raw.empty()) ++exc_count;
  }
  if (exc_count > 0) {
    core::put_varint(exc_col, exc_count);
    for (std::size_t i = 0; i < n; ++i) {
      if (raw_exceptions_[i].empty()) continue;
      core::put_varint(exc_col, i);
      core::put_varint(exc_col, raw_exceptions_[i].size());
      exc_col += raw_exceptions_[i];
    }
  }

  // --- assemble the segment -------------------------------------------------
  std::string seg;
  for (int i = 0; i < 4; ++i) {
    seg += static_cast<char>((kSegmentMagic >> (8 * i)) & 0xFF);
  }
  const std::size_t block_count =
      1 + kDictColumns + 1 + kDoubleColumns + 2 + (exc_count > 0 ? 1 : 0);
  core::put_varint(seg, block_count);
  append_block(seg, ColumnId::kCell, cell_col);
  for (std::size_t d = 0; d < kDictColumns; ++d) {
    append_block(seg, static_cast<ColumnId>(
                          static_cast<std::size_t>(ColumnId::kDataset) + d),
                 dict_cols[d]);
  }
  append_block(seg, ColumnId::kTrial, trial_col);
  for (std::size_t i = 0; i < kDoubleColumns; ++i) {
    append_block(seg, static_cast<ColumnId>(
                          static_cast<std::size_t>(ColumnId::kGoldenAccuracy) + i),
                 double_cols[i]);
  }
  append_block(seg, ColumnId::kSharedFit, shared_col);
  append_block(seg, ColumnId::kQuantized, quant_col);
  if (exc_count > 0) append_block(seg, ColumnId::kRawExceptions, exc_col);

  meta.offset = manifest_.data_bytes;
  meta.bytes = seg.size();
  meta.checksum = core::fnv1a64(seg);

  // Durable before referenced: the locked write + fdatasync happens here;
  // the manifest only names this segment after commit().
  if (!data_) {
    data_ = std::make_unique<core::AppendFile>(dir_ + "/" + kDataFile);
  }
  data_->append(seg);

  manifest_.segments.push_back(std::move(meta));
  manifest_.rows += n;
  manifest_.data_bytes += seg.size();
  rows_.clear();
  raw_exceptions_.clear();
}

std::size_t StoreWriter::archive_telemetry(const std::string& obs_dir) {
  const std::vector<std::string> files = obs::list_snapshot_files(obs_dir);
  if (files.empty()) {
    manifest_.telemetry_files = 0;
    manifest_.telemetry_bytes = 0;
    manifest_.telemetry_checksum = 0;
    return 0;
  }
  std::string blob;
  for (int i = 0; i < 4; ++i) {
    blob += static_cast<char>((kSegmentMagic >> (8 * i)) & 0xFF);
  }
  core::put_varint(blob, files.size());
  for (const std::string& path : files) {
    const std::string content = core::read_file(path);
    const std::string name = fs::path(path).filename().string();
    core::put_varint(blob, name.size());
    blob += name;
    const auto [codec, comp] = compress_block(content);
    blob += static_cast<char>(codec);
    core::put_varint(blob, content.size());
    core::put_varint(blob, comp.size());
    blob += comp;
  }
  core::write_file_atomic(dir_ + "/" + kTelemetryFile, blob);
  manifest_.telemetry_files = files.size();
  manifest_.telemetry_bytes = blob.size();
  manifest_.telemetry_checksum = core::fnv1a64(blob);
  return files.size();
}

void StoreWriter::commit() {
  flush_segment();
  core::write_file_atomic(dir_ + "/" + kManifestFile,
                          render_manifest(manifest_));
}

ImportStats import_journal(const std::string& journal_path,
                           const std::string& dir, WriterOptions options,
                           const std::string& obs_dir) {
  ImportStats stats;
  std::ifstream in = core::open_record_file(journal_path, "journal");
  if (!in.is_open()) {
    throw ConfigError("journal " + journal_path + " does not exist");
  }
  StoreWriter writer(dir, options);
  writer.set_source(journal_path);
  core::read_records(
      in, "journal " + journal_path,
      [&](std::string_view line) {
        const study::CellRecord record = study::parse_record(line);
        if (to_jsonl(record) != line) ++stats.raw_exceptions;
        writer.append(record, line);
        ++stats.records;
      },
      &stats.recovered_torn_tail);
  writer.set_source_recovered_torn_tail(stats.recovered_torn_tail);
  if (!obs_dir.empty()) {
    stats.telemetry_files = writer.archive_telemetry(obs_dir);
  }
  writer.commit();
  stats.segments = writer.manifest().segments.size();
  stats.journal_bytes = file_size_or_zero(journal_path);
  stats.store_bytes = file_size_or_zero(dir + "/" + kManifestFile) +
                      file_size_or_zero(dir + "/" + kDataFile) +
                      file_size_or_zero(dir + "/" + kTelemetryFile);
  return stats;
}

}  // namespace tdfm::store
