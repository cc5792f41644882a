#include "store/reader.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "core/durable.hpp"
#include "core/error.hpp"
#include "core/logging.hpp"
#include "core/varint.hpp"
#include "store/codec.hpp"

namespace tdfm::store {

namespace fs = std::filesystem;

namespace {

std::string format_hex16(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string read_range(const std::string& path, std::uint64_t offset,
                       std::uint64_t bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw ConfigError("cannot read store file " + path);
  in.seekg(static_cast<std::streamoff>(offset));
  std::string out(bytes, '\0');
  in.read(out.data(), static_cast<std::streamsize>(bytes));
  if (in.gcount() != static_cast<std::streamsize>(bytes)) {
    throw ConfigError("store " + path + ": short read at offset " +
                      std::to_string(offset));
  }
  return out;
}

void check_magic(std::string_view bytes, std::size_t& pos,
                 const std::string& what) {
  if (4 > bytes.size() - pos) throw ConfigError(what + ": truncated magic");
  std::uint32_t magic = 0;
  for (int i = 0; i < 4; ++i) {
    magic |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[pos + i]))
             << (8 * i);
  }
  pos += 4;
  if (magic != kSegmentMagic) throw ConfigError(what + ": bad magic");
}

struct DecodedSegment {
  std::vector<study::CellRecord> records;
  std::unordered_map<std::size_t, std::string> exceptions;  ///< row -> raw line
};

void set_double_field(study::CellRecord& r, std::size_t i, double v) {
  switch (i) {
    case 0: r.golden_accuracy = v; break;
    case 1: r.faulty_accuracy = v; break;
    case 2: r.ad = v; break;
    case 3: r.reverse_ad = v; break;
    case 4: r.naive_drop = v; break;
    case 5: r.train_seconds = v; break;
    case 6: r.infer_seconds = v; break;
    case 7: r.inference_models = v; break;
    case 8: r.quantized_accuracy = v; break;
    case 9: r.quantized_ad = v; break;
    default: r.quantized_vs_fp32_ad = v; break;
  }
}

void set_dict_field(study::CellRecord& r, std::size_t d, const std::string& v) {
  switch (d) {
    case 0: r.dataset = v; break;
    case 1: r.model = v; break;
    case 2: r.fault_level = v; break;
    default: r.technique = v; break;
  }
}

DecodedSegment decode_segment(std::string_view seg, const SegmentMeta& meta,
                              const Manifest& manifest) {
  std::size_t pos = 0;
  check_magic(seg, pos, "store segment");
  const std::uint64_t block_count = core::get_varint(seg, pos);
  // Column id -> decompressed bytes.
  std::unordered_map<std::size_t, std::string> columns;
  for (std::uint64_t b = 0; b < block_count; ++b) {
    const std::uint64_t column = core::get_varint(seg, pos);
    if (pos >= seg.size()) throw ConfigError("store segment: truncated block");
    const auto codec = static_cast<Codec>(static_cast<std::uint8_t>(seg[pos++]));
    const std::uint64_t raw_size = core::get_varint(seg, pos);
    const std::uint64_t comp_size = core::get_varint(seg, pos);
    if (comp_size > seg.size() - pos) {
      throw ConfigError("store segment: block overruns segment");
    }
    columns[column] =
        decompress_block(codec, seg.substr(pos, comp_size), raw_size);
    pos += comp_size;
  }
  const auto column = [&](ColumnId id) -> const std::string& {
    const auto it = columns.find(static_cast<std::size_t>(id));
    if (it == columns.end()) {
      throw ConfigError("store segment: missing column " +
                        std::to_string(static_cast<int>(id)));
    }
    return it->second;
  };

  // Every row takes at least one byte of the cell column, so a row count
  // forged in the manifest (which no checksum covers) cannot size the
  // allocation below.
  const std::size_t n = meta.rows;
  const std::string& cells = column(ColumnId::kCell);
  if (n > cells.size()) {
    throw ConfigError("store segment: manifest declares " + std::to_string(n) +
                      " rows but the cell column holds " +
                      std::to_string(cells.size()) + " bytes");
  }
  DecodedSegment out;
  out.records.resize(n);

  {
    std::size_t p = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t tag = core::get_varint(cells, p);
      if (tag == 0) {
        out.records[i].cell = format_hex16(core::get_fixed64(cells, p));
      } else {
        const std::size_t len = tag - 1;
        if (len > cells.size() - p) {
          throw ConfigError("store segment: truncated cell string");
        }
        out.records[i].cell = cells.substr(p, len);
        p += len;
      }
    }
  }
  for (std::size_t d = 0; d < kDictColumns; ++d) {
    const std::string& col = column(static_cast<ColumnId>(
        static_cast<std::size_t>(ColumnId::kDataset) + d));
    std::size_t p = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t id = core::get_varint(col, p);
      if (id >= manifest.dicts[d].size()) {
        throw ConfigError("store segment: dictionary id out of range");
      }
      set_dict_field(out.records[i], d, manifest.dicts[d].value(id));
    }
  }
  {
    const std::string& col = column(ColumnId::kTrial);
    std::size_t p = 0;
    std::int64_t prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (__builtin_add_overflow(prev, core::zigzag_decode(core::get_varint(col, p)),
                                 &prev)) {
        throw ConfigError("store segment: trial deltas overflow at row " +
                          std::to_string(i));
      }
      out.records[i].trial = static_cast<std::size_t>(prev);
    }
  }
  for (std::size_t c = 0; c < kDoubleColumns; ++c) {
    const std::string& col = column(static_cast<ColumnId>(
        static_cast<std::size_t>(ColumnId::kGoldenAccuracy) + c));
    std::size_t p = 0;
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      bits ^= core::get_varint(col, p);
      set_double_field(out.records[i], c, std::bit_cast<double>(bits));
    }
  }
  {
    std::size_t p = 0;
    const auto shared = core::unpack_bits(column(ColumnId::kSharedFit), n, p);
    p = 0;
    const auto quant = core::unpack_bits(column(ColumnId::kQuantized), n, p);
    for (std::size_t i = 0; i < n; ++i) {
      out.records[i].shared_fit = shared[i];
      out.records[i].quantized = quant[i];
    }
  }
  const auto exc_it =
      columns.find(static_cast<std::size_t>(ColumnId::kRawExceptions));
  if (exc_it != columns.end()) {
    const std::string& col = exc_it->second;
    std::size_t p = 0;
    const std::uint64_t count = core::get_varint(col, p);
    for (std::uint64_t e = 0; e < count; ++e) {
      const std::uint64_t row = core::get_varint(col, p);
      const std::uint64_t len = core::get_varint(col, p);
      if (row >= n || len > col.size() - p) {
        throw ConfigError("store segment: malformed exception entry");
      }
      out.exceptions.emplace(static_cast<std::size_t>(row), col.substr(p, len));
      p += len;
    }
  }
  return out;
}

}  // namespace

StoreReader::StoreReader(std::string dir) : dir_(std::move(dir)) {
  bool manifest_torn = false;
  manifest_ = read_manifest(dir_, &manifest_torn);
  recovered_truncated_tail_ = manifest_torn;

  const std::string data_path = dir_ + "/" + kDataFile;
  std::error_code ec;
  const std::uint64_t on_disk =
      manifest_.segments.empty()
          ? 0
          : static_cast<std::uint64_t>(fs::file_size(data_path, ec));
  if (!manifest_.segments.empty() && ec) {
    throw ConfigError("store " + dir_ + ": manifest names segments but " +
                      std::string(kDataFile) + " cannot be read");
  }
  // Written without a sum, which a forged offset or size could wrap.
  const auto overruns_file = [on_disk](const SegmentMeta& s) {
    return s.bytes > on_disk || s.offset > on_disk - s.bytes;
  };
  // External truncation (a partial copy, a torn disk image) can only eat a
  // *suffix* of segments.bin — recover like a torn journal tail: drop
  // trailing segments whose bytes are gone or damaged, then re-account.
  bool dropped = false;
  while (!manifest_.segments.empty()) {
    const SegmentMeta& last = manifest_.segments.back();
    if (overruns_file(last)) {
      TDFM_LOG(kWarn) << "store " << dir_ << ": dropping truncated final "
                      << "segment (" << last.rows << " rows, " << last.bytes
                      << " bytes at offset " << last.offset << ", file has "
                      << on_disk << ")";
      manifest_.segments.pop_back();
      dropped = true;
      continue;
    }
    // Bytes exist: verify the final segment's checksum once at open, so a
    // tear *inside* the tail is caught before any query trusts it.
    const std::string bytes = read_range(data_path, last.offset, last.bytes);
    if (core::fnv1a64(bytes) != last.checksum) {
      TDFM_LOG(kWarn) << "store " << dir_ << ": dropping final segment with "
                      << "checksum mismatch (" << last.rows << " rows)";
      manifest_.segments.pop_back();
      dropped = true;
      continue;
    }
    break;
  }
  // Truncation cannot cut an earlier segment and leave the final one whole,
  // so an earlier segment past the end of the file is a damaged manifest.
  for (const SegmentMeta& seg : manifest_.segments) {
    if (overruns_file(seg)) {
      throw ConfigError("store " + dir_ + ": segment at offset " +
                        std::to_string(seg.offset) + " (" +
                        std::to_string(seg.bytes) + " bytes) overruns " +
                        kDataFile + " (" + std::to_string(on_disk) + " bytes)");
    }
  }
  if (dropped) {
    recovered_truncated_tail_ = true;
    std::size_t rows = 0;
    for (const SegmentMeta& s : manifest_.segments) rows += s.rows;
    manifest_.rows = rows;
    manifest_.data_bytes =
        manifest_.segments.empty()
            ? 0
            : manifest_.segments.back().offset + manifest_.segments.back().bytes;
  }
}

ScanStats StoreReader::query(const Query& q, const RowFn& on_row) const {
  ScanStats stats;
  stats.segments_total = manifest_.segments.size();

  // Resolve string predicates against the dictionaries once.  An equality
  // predicate naming an unknown string can match nothing: every segment is
  // skipped without a single read.
  bool impossible = false;
  std::optional<std::uint64_t> eq_ids[kDictColumns];
  const std::optional<std::string>* eq_strings[kDictColumns] = {
      &q.dataset, &q.model, &q.fault_level, &q.technique};
  for (std::size_t d = 0; d < kDictColumns && !impossible; ++d) {
    if (!eq_strings[d]->has_value()) continue;
    eq_ids[d] = manifest_.dicts[d].find(**eq_strings[d]);
    if (!eq_ids[d]) impossible = true;
  }
  // Dictionary grep: the candidate id set per column.
  std::vector<std::uint64_t> grep_ids[kDictColumns];
  bool grep_possible = q.grep.empty();
  if (!q.grep.empty()) {
    for (std::size_t d = 0; d < kDictColumns; ++d) {
      const auto& values = manifest_.dicts[d].values();
      for (std::uint64_t id = 0; id < values.size(); ++id) {
        if (values[id].find(q.grep) != std::string::npos) {
          grep_ids[d].push_back(id);
        }
      }
      if (!grep_ids[d].empty()) grep_possible = true;
    }
  }
  if (!grep_possible) impossible = true;

  const auto zone_has = [](const std::vector<std::uint64_t>& zone,
                           std::uint64_t id) {
    return std::binary_search(zone.begin(), zone.end(), id);
  };

  const std::string data_path = dir_ + "/" + kDataFile;
  for (const SegmentMeta& seg : manifest_.segments) {
    bool skip = impossible;
    for (std::size_t d = 0; d < kDictColumns && !skip; ++d) {
      if (eq_ids[d] && !zone_has(seg.dict_ids[d], *eq_ids[d])) skip = true;
    }
    if (!skip && !q.grep.empty()) {
      bool any = false;
      for (std::size_t d = 0; d < kDictColumns && !any; ++d) {
        for (const std::uint64_t id : grep_ids[d]) {
          if (zone_has(seg.dict_ids[d], id)) {
            any = true;
            break;
          }
        }
      }
      if (!any) skip = true;
    }
    if (!skip && q.trial &&
        (*q.trial < seg.trial_min || *q.trial > seg.trial_max)) {
      skip = true;
    }
    if (!skip && q.min_ad && *q.min_ad > seg.ad_max) skip = true;
    if (!skip && q.max_ad && *q.max_ad < seg.ad_min) skip = true;
    if (skip) {
      ++stats.segments_skipped;
      continue;
    }

    ++stats.segments_scanned;
    const std::string bytes = read_range(data_path, seg.offset, seg.bytes);
    if (core::fnv1a64(bytes) != seg.checksum) {
      throw ConfigError("store " + dir_ + ": segment at offset " +
                        std::to_string(seg.offset) + " fails its checksum");
    }
    const DecodedSegment decoded = decode_segment(bytes, seg, manifest_);
    stats.rows_scanned += decoded.records.size();
    static const std::string kEmpty;
    for (std::size_t i = 0; i < decoded.records.size(); ++i) {
      const study::CellRecord& r = decoded.records[i];
      if (q.dataset && r.dataset != *q.dataset) continue;
      if (q.model && r.model != *q.model) continue;
      if (q.fault_level && r.fault_level != *q.fault_level) continue;
      if (q.technique && r.technique != *q.technique) continue;
      if (q.cell && r.cell != *q.cell) continue;
      if (q.trial && r.trial != *q.trial) continue;
      if (q.min_ad && r.ad < *q.min_ad) continue;
      if (q.max_ad && r.ad > *q.max_ad) continue;
      if (!q.grep.empty() && r.dataset.find(q.grep) == std::string::npos &&
          r.model.find(q.grep) == std::string::npos &&
          r.fault_level.find(q.grep) == std::string::npos &&
          r.technique.find(q.grep) == std::string::npos) {
        continue;
      }
      ++stats.rows_matched;
      const auto exc = decoded.exceptions.find(i);
      on_row(r, exc == decoded.exceptions.end() ? kEmpty : exc->second);
    }
  }
  return stats;
}

std::vector<study::CellRecord> StoreReader::read_all() const {
  std::vector<study::CellRecord> out;
  query({}, [&](const study::CellRecord& r, const std::string&) {
    out.push_back(r);
  });
  return out;
}

void StoreReader::export_jsonl(std::ostream& out) const {
  query({}, [&](const study::CellRecord& r, const std::string& raw) {
    if (raw.empty()) {
      out << study::to_jsonl(r) << '\n';
    } else {
      out << raw << '\n';
    }
  });
}

std::size_t StoreReader::restore_telemetry(const std::string& out_dir) const {
  if (manifest_.telemetry_files == 0) {
    throw ConfigError("store " + dir_ + " has no telemetry archive");
  }
  const std::string blob = core::read_file(dir_ + "/" + kTelemetryFile);
  if (blob.size() != manifest_.telemetry_bytes ||
      core::fnv1a64(blob) != manifest_.telemetry_checksum) {
    throw ConfigError("store " + dir_ + ": telemetry archive fails its "
                      "checksum");
  }
  std::size_t pos = 0;
  check_magic(blob, pos, "store telemetry");
  const std::uint64_t files = core::get_varint(blob, pos);
  fs::create_directories(out_dir);
  for (std::uint64_t f = 0; f < files; ++f) {
    const std::uint64_t name_len = core::get_varint(blob, pos);
    if (name_len > blob.size() - pos) {
      throw ConfigError("store telemetry: truncated file name");
    }
    const std::string name = blob.substr(pos, name_len);
    pos += name_len;
    if (name.empty() || name.find('/') != std::string::npos) {
      throw ConfigError("store telemetry: unsafe file name '" + name + "'");
    }
    if (pos >= blob.size()) throw ConfigError("store telemetry: truncated");
    const auto codec = static_cast<Codec>(static_cast<std::uint8_t>(blob[pos++]));
    const std::uint64_t raw_size = core::get_varint(blob, pos);
    const std::uint64_t comp_size = core::get_varint(blob, pos);
    if (comp_size > blob.size() - pos) {
      throw ConfigError("store telemetry: truncated file body");
    }
    const std::string content =
        decompress_block(codec, std::string_view(blob).substr(pos, comp_size),
                         raw_size);
    pos += comp_size;
    core::write_file_atomic(out_dir + "/" + name, content);
  }
  return static_cast<std::size_t>(files);
}

std::vector<study::CellRecord> read_all_records(const std::string& dir) {
  return StoreReader(dir).read_all();
}

void export_journal(const std::string& dir, const std::string& out_path) {
  StoreReader reader(dir);
  std::ofstream out(out_path, std::ios::trunc | std::ios::binary);
  TDFM_CHECK(out.good(), "cannot open export file: " + out_path);
  reader.export_jsonl(out);
  out.flush();
  TDFM_CHECK(out.good(), "failed writing export file: " + out_path);
}

}  // namespace tdfm::store
