#include "store/format.hpp"

#include <cstdio>
#include <limits>
#include <sstream>

#include "core/durable.hpp"
#include "core/error.hpp"
#include "obs/flat_json.hpp"
#include "obs/json.hpp"

namespace tdfm::store {

namespace {

/// u64 as a hex string: JSON numbers are doubles and cannot carry a full
/// 64-bit checksum losslessly.
std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t parse_hex64(const std::string& s) {
  if (s.size() != 16) throw ConfigError("store manifest: bad hex64 '" + s + "'");
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else throw ConfigError("store manifest: bad hex64 '" + s + "'");
  }
  return v;
}

void render_id_list(std::ostringstream& os, const char* key,
                    const std::vector<std::uint64_t>& ids) {
  os << ",\"" << key << "\":[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    os << (i ? "," : "") << ids[i];
  }
  os << "]";
}

}  // namespace

const char* dict_column_name(std::size_t dict_index) {
  static const char* kNames[kDictColumns] = {"dataset", "model", "fault_level",
                                             "technique"};
  TDFM_CHECK(dict_index < kDictColumns, "dictionary column index out of range");
  return kNames[dict_index];
}

std::string render_manifest(const Manifest& m) {
  std::ostringstream os;
  os << "{\"type\":\"tdfm-store\",\"version\":" << kFormatVersion
     << ",\"rows\":" << m.rows << ",\"data_bytes\":" << m.data_bytes
     << ",\"segment_rows\":" << m.segment_rows
     << ",\"recovered_torn_tail\":"
     << (m.source_recovered_torn_tail ? "true" : "false")
     << ",\"source\":" << obs::json_string(m.source) << "}\n";
  for (std::size_t d = 0; d < kDictColumns; ++d) {
    const auto& values = m.dicts[d].values();
    for (std::size_t id = 0; id < values.size(); ++id) {
      os << "{\"type\":\"dict\",\"c\":" << d << ",\"i\":" << id
         << ",\"v\":" << obs::json_string(values[id]) << "}\n";
    }
  }
  for (const SegmentMeta& s : m.segments) {
    os << "{\"type\":\"segment\",\"offset\":" << s.offset
       << ",\"bytes\":" << s.bytes << ",\"rows\":" << s.rows
       << ",\"checksum\":\"" << hex64(s.checksum) << "\"";
    for (std::size_t d = 0; d < kDictColumns; ++d) {
      render_id_list(os, dict_column_name(d), s.dict_ids[d]);
    }
    os << ",\"trial_min\":" << s.trial_min << ",\"trial_max\":" << s.trial_max
       << ",\"ad_min\":" << obs::json_exact_number(s.ad_min)
       << ",\"ad_max\":" << obs::json_exact_number(s.ad_max) << "}\n";
  }
  if (m.telemetry_files > 0) {
    os << "{\"type\":\"telemetry\",\"files\":" << m.telemetry_files
       << ",\"bytes\":" << m.telemetry_bytes << ",\"checksum\":\""
       << hex64(m.telemetry_checksum) << "\"}\n";
  }
  return os.str();
}

Manifest parse_manifest(std::string_view text, bool* recovered_torn_tail) {
  Manifest m;
  bool saw_header = false;
  std::istringstream in{std::string(text)};
  core::read_records(in, "store manifest", [&](std::string_view line) {
    std::string type, str_v, str_checksum, source;
    SegmentMeta seg;
    int version = 0;
    std::size_t rows = 0, segment_rows = 0, c = 0, files = 0;
    std::uint64_t data_bytes = 0, i = 0, bytes = 0;
    bool recovered = false;
    obs::FlatJsonParser parser(line, "store manifest parse error");
    parser.parse([&](const std::string& key, const obs::FlatValue& v) {
      const auto u64 = [&] { return v.as_int<std::uint64_t>(key); };
      if (key == "type" && v.is_string()) type = v.str;
      else if (key == "version") version = v.as_int<int>(key);
      else if (key == "rows") rows = v.as_int<std::size_t>(key);
      else if (key == "data_bytes") data_bytes = u64();
      else if (key == "segment_rows") segment_rows = v.as_int<std::size_t>(key);
      else if (key == "recovered_torn_tail" && v.is_bool()) recovered = v.num != 0.0;
      else if (key == "source" && v.is_string()) source = v.str;
      else if (key == "c") c = v.as_int<std::size_t>(key);
      else if (key == "i") i = u64();
      else if (key == "v" && v.is_string()) str_v = v.str;
      else if (key == "offset") seg.offset = u64();
      else if (key == "bytes") bytes = u64();
      else if (key == "checksum" && v.is_string()) str_checksum = v.str;
      else if (key == "trial_min") seg.trial_min = u64();
      else if (key == "trial_max") seg.trial_max = u64();
      else if (key == "ad_min") seg.ad_min = v.num;
      else if (key == "ad_max") seg.ad_max = v.num;
      else if (key == "files") files = v.as_int<std::size_t>(key);
      else {
        for (std::size_t d = 0; d < kDictColumns; ++d) {
          if (key == dict_column_name(d) &&
              v.kind == obs::FlatValue::Kind::kNumberArray) {
            seg.dict_ids[d] = v.as_ints<std::uint64_t>(key);
          }
        }
      }
    });
    if (type == "tdfm-store") {
      if (version > kFormatVersion) {
        throw ConfigError("store manifest: version " + std::to_string(version) +
                          " is newer than this build understands (" +
                          std::to_string(kFormatVersion) + ")");
      }
      m.rows = rows;
      m.data_bytes = data_bytes;
      m.segment_rows = segment_rows;
      m.source_recovered_torn_tail = recovered;
      m.source = source;
      saw_header = true;
    } else if (type == "dict") {
      if (c >= kDictColumns) {
        throw ConfigError("store manifest: dictionary column out of range");
      }
      m.dicts[c].append(i, str_v);
    } else if (type == "segment") {
      seg.bytes = bytes;
      seg.rows = rows;
      seg.checksum = parse_hex64(str_checksum);
      m.segments.push_back(std::move(seg));
    } else if (type == "telemetry") {
      m.telemetry_checksum = parse_hex64(str_checksum);
      m.telemetry_files = files;
      m.telemetry_bytes = bytes;
    } else {
      throw ConfigError("store manifest: unknown line type '" + type + "'");
    }
  }, recovered_torn_tail);
  if (!saw_header) {
    throw ConfigError("store manifest: missing tdfm-store header line");
  }
  return m;
}

Manifest read_manifest(const std::string& dir, bool* recovered_torn_tail) {
  Manifest m = parse_manifest(core::read_file(dir + "/" + kManifestFile),
                              recovered_torn_tail);
  // The header's totals are sums the segment list already holds; the
  // reader reports them and the writer truncates segments.bin to them.
  std::size_t rows = 0;
  for (const SegmentMeta& seg : m.segments) {
    if (seg.rows > std::numeric_limits<std::size_t>::max() - rows) {
      throw ConfigError("store manifest: segment row counts overflow");
    }
    rows += seg.rows;
  }
  if (m.rows != rows) {
    throw ConfigError("store manifest: header declares " +
                      std::to_string(m.rows) + " rows but its segments hold " +
                      std::to_string(rows));
  }
  std::uint64_t end = 0;
  if (!m.segments.empty()) {
    const SegmentMeta& last = m.segments.back();
    if (last.bytes > std::numeric_limits<std::uint64_t>::max() - last.offset) {
      throw ConfigError("store manifest: final segment end overflows");
    }
    end = last.offset + last.bytes;
  }
  if (m.data_bytes != end) {
    throw ConfigError("store manifest: header declares data_bytes " +
                      std::to_string(m.data_bytes) +
                      " but the last segment ends at " + std::to_string(end));
  }
  return m;
}

}  // namespace tdfm::store
