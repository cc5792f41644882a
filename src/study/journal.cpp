#include "study/journal.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <map>
#include <sstream>
#include <unordered_map>

#include "core/error.hpp"
#include "obs/flat_json.hpp"
#include "obs/json.hpp"

namespace tdfm::study {

using obs::json_exact_number;

bool equal_modulo_timing(const CellRecord& a, const CellRecord& b) {
  CellRecord ta = a;
  CellRecord tb = b;
  ta.train_seconds = tb.train_seconds = 0.0;
  ta.infer_seconds = tb.infer_seconds = 0.0;
  return ta == tb;
}

std::string to_jsonl(const CellRecord& r) {
  std::ostringstream os;
  os << "{\"cell\": " << obs::json_string(r.cell)
     << ", \"dataset\": " << obs::json_string(r.dataset)
     << ", \"model\": " << obs::json_string(r.model)
     << ", \"fault_level\": " << obs::json_string(r.fault_level)
     << ", \"technique\": " << obs::json_string(r.technique)
     << ", \"trial\": " << r.trial
     << ", \"golden_accuracy\": " << json_exact_number(r.golden_accuracy)
     << ", \"faulty_accuracy\": " << json_exact_number(r.faulty_accuracy)
     << ", \"ad\": " << json_exact_number(r.ad)
     << ", \"reverse_ad\": " << json_exact_number(r.reverse_ad)
     << ", \"naive_drop\": " << json_exact_number(r.naive_drop)
     << ", \"train_seconds\": " << json_exact_number(r.train_seconds)
     << ", \"infer_seconds\": " << json_exact_number(r.infer_seconds)
     << ", \"inference_models\": " << json_exact_number(r.inference_models)
     << ", \"shared_fit\": " << (r.shared_fit ? "true" : "false")
     << ", \"quantized\": " << (r.quantized ? "true" : "false")
     << ", \"quantized_accuracy\": " << json_exact_number(r.quantized_accuracy)
     << ", \"quantized_ad\": " << json_exact_number(r.quantized_ad)
     << ", \"quantized_vs_fp32_ad\": " << json_exact_number(r.quantized_vs_fp32_ad)
     << "}";
  return os.str();
}

CellRecord parse_record(std::string_view line) {
  CellRecord r;
  bool saw_cell = false;
  // The journal's records are flat JSON objects, parsed by the strict
  // shared parser (obs/flat_json.hpp) under this file's error context.
  obs::FlatJsonParser parser(line, "journal parse error");
  parser.parse([&](const std::string& key, const obs::FlatValue& v) {
    const std::string& s = v.str;
    const double num = v.num;
    const bool is_string = v.is_string();
    const bool is_bool = v.is_bool();
    if (key == "cell" && is_string) {
      r.cell = s;
      saw_cell = true;
    } else if (key == "dataset" && is_string) r.dataset = s;
    else if (key == "model" && is_string) r.model = s;
    else if (key == "fault_level" && is_string) r.fault_level = s;
    else if (key == "technique" && is_string) r.technique = s;
    else if (key == "trial") r.trial = v.as_int<std::size_t>(key);
    else if (key == "golden_accuracy") r.golden_accuracy = num;
    else if (key == "faulty_accuracy") r.faulty_accuracy = num;
    else if (key == "ad") r.ad = num;
    else if (key == "reverse_ad") r.reverse_ad = num;
    else if (key == "naive_drop") r.naive_drop = num;
    else if (key == "train_seconds") r.train_seconds = num;
    else if (key == "infer_seconds") r.infer_seconds = num;
    else if (key == "inference_models") r.inference_models = num;
    else if (key == "shared_fit" && is_bool) r.shared_fit = num != 0.0;
    else if (key == "quantized" && is_bool) r.quantized = num != 0.0;
    else if (key == "quantized_accuracy") r.quantized_accuracy = num;
    else if (key == "quantized_ad") r.quantized_ad = num;
    else if (key == "quantized_vs_fp32_ad") r.quantized_vs_fp32_ad = num;
    // Unknown keys: ignored (forward compatibility).
  });
  if (!saw_cell || r.cell.empty()) {
    throw ConfigError("journal record is missing its cell id");
  }
  return r;
}

std::vector<std::string> discover_shard_journals(const std::string& base) {
  namespace fs = std::filesystem;
  const fs::path base_path(base);
  const std::string dir =
      base_path.has_parent_path() ? base_path.parent_path().string() : ".";
  const std::string prefix = base_path.filename().string() + ".shard";
  const std::string suffix = ".jsonl";

  // shard index -> (N, path)
  std::map<std::size_t, std::pair<std::size_t, std::string>> found;
  std::size_t shard_count = 0;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    if (name.size() < prefix.size() + suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    // Middle is "<i>of<N>": digits, "of", digits — anything else (a
    // staging-file leftover was already excluded by the suffix, but a
    // foreign name could still slip through) is not a sibling.
    const std::string mid = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    const std::size_t of = mid.find("of");
    if (of == std::string::npos || of == 0 || of + 2 >= mid.size()) continue;
    const std::string idx_s = mid.substr(0, of);
    const std::string n_s = mid.substr(of + 2);
    const auto all_digits = [](const std::string& s) {
      return !s.empty() &&
             std::all_of(s.begin(), s.end(),
                         [](unsigned char c) { return std::isdigit(c); });
    };
    if (!all_digits(idx_s) || !all_digits(n_s)) continue;
    const std::size_t idx = std::stoul(idx_s);
    const std::size_t n = std::stoul(n_s);
    if (n == 0 || idx >= n) {
      throw ConfigError("shard journal " + name + ": index " + idx_s +
                        " does not satisfy 0 <= i < " + n_s);
    }
    if (shard_count != 0 && n != shard_count) {
      throw ConfigError("shard journals next to " + base + " disagree on the "
                        "shard count (" + std::to_string(shard_count) +
                        " vs " + n_s + " in " + name + ") — two campaigns "
                        "share this journal name");
    }
    shard_count = n;
    const auto [it, inserted] =
        found.emplace(idx, std::make_pair(n, entry.path().string()));
    if (!inserted) {
      throw ConfigError("duplicate shard journal for index " + idx_s +
                        " next to " + base);
    }
  }
  if (found.empty()) return {};
  if (found.size() != shard_count) {
    std::string missing;
    for (std::size_t i = 0; i < shard_count; ++i) {
      if (found.count(i)) continue;
      missing += (missing.empty() ? "" : ", ") + std::to_string(i);
    }
    throw ConfigError("incomplete shard journal set next to " + base + ": " +
                      std::to_string(found.size()) + " of " +
                      std::to_string(shard_count) + " shards present "
                      "(missing index " + missing + ") — merging would drop "
                      "their cells");
  }
  std::vector<std::string> paths;
  paths.reserve(found.size());
  for (const auto& [idx, entry] : found) paths.push_back(entry.second);
  return paths;
}

MergeResult merge_journals(const std::vector<std::string>& paths) {
  MergeResult out;
  // cell id -> index into out.records; first occurrence wins until a
  // lexicographically smaller serialisation replaces it.
  std::unordered_map<std::string, std::size_t> by_cell;
  for (const std::string& path : paths) {
    for (CellRecord& r : Journal::load(path)) {
      ++out.inputs;
      const auto it = by_cell.find(r.cell);
      if (it == by_cell.end()) {
        by_cell.emplace(r.cell, out.records.size());
        out.records.push_back(std::move(r));
        continue;
      }
      CellRecord& kept = out.records[it->second];
      if (!equal_modulo_timing(kept, r)) {
        throw ConfigError("journal merge conflict: cell " + r.cell + " in " +
                          path + " disagrees with an earlier journal beyond "
                          "timing fields — the shards did not run the same "
                          "grid");
      }
      ++out.duplicates;
      // Deterministic representative: the smallest serialisation, so the
      // merged bytes do not depend on which shard also computed this cell.
      if (to_jsonl(r) < to_jsonl(kept)) kept = std::move(r);
    }
  }
  std::sort(out.records.begin(), out.records.end(),
            [](const CellRecord& a, const CellRecord& b) {
              return a.cell < b.cell;
            });
  return out;
}

void write_journal(const std::string& path,
                   const std::vector<CellRecord>& records) {
  std::string text;
  for (const CellRecord& r : records) text += to_jsonl(r) + '\n';
  core::write_file_atomic(path, text);
}

}  // namespace tdfm::study
