// The output-bit manifest (`ctest -L bits`): digests of whole runs, computed
// through the public APIs at one kernel table and compared with the
// committed tests/bits/expected.json.
//
// Families, each for seeds 1-3:
//   campaign  the digest of the timing-free Analyzer report of the
//             benchmark's `campaign` grid: the quant-ad preset, 2 trials,
//             scale 0.15, 1 epoch, 2 jobs, global pool pinned to 1 thread
//   pipeline  the digest of the decision log of OnlinePipeline::run on the
//             scripts/pipeline_smoke.sh story as the benchmark runs it:
//             CIFAR10-sim at scale 0.6, 16 rounds, drill at round 7
// Both specs copy perfbench/campaign.cpp's and perfbench/pipeline.cpp's
// (which this test does not build), so the avx2 values are the digests the
// benchmark prints.  A digest is 16 hex digits of study::stable_hash64.
//
//   bits_check <manifest> <family> <table>   compare one family at one table
//   bits_check <manifest> --regenerate       rewrite the manifest from every
//                                            family at every supported table
//
// A mismatch prints the family, the key, and the old and new values, and
// exits 1.  Exit 77 (ctest's skip) when the host cannot run the table or
// the build is not the one the manifest pins: like the training pins, the
// digests hold for the FMA-contraction (-march=native on an FMA host) build.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/logging.hpp"
#include "core/thread_pool.hpp"
#include "kernels/kernels.hpp"
#include "obs/flat_json.hpp"
#include "obs/json.hpp"
#include "pipeline/pipeline.hpp"
#include "study/study.hpp"

namespace {

using namespace tdfm;

constexpr int kSkip = 77;
const std::vector<std::uint64_t> kSeeds = {1, 2, 3};
const std::vector<std::string> kFamilies = {"campaign", "pipeline"};

std::string digest(const std::string& text) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(study::stable_hash64(text)));
  return buf;
}

std::string campaign_digest(std::uint64_t seed) {
  study::StudySpec spec = study::preset_spec("quant-ad");
  spec.name = "perfbench-campaign";
  spec.trials = 2;
  spec.scale = 0.15;
  spec.train_opts.epochs = 1;
  spec.train_opts.threads = 1;
  spec.seed = seed;
  study::RunOptions run;
  run.jobs = 2;
  const study::CampaignResult result = study::run_campaign(spec, run);
  return digest(study::render_ascii(study::summarize_campaign(result.records)));
}

std::string pipeline_digest(std::uint64_t seed) {
  pipeline::PipelineConfig cfg;
  cfg.dataset.kind = data::DatasetKind::kCifar10Sim;
  cfg.dataset.scale = 0.6;
  cfg.dataset.seed = seed;
  cfg.stream.mislabel_percent = 20.0;
  cfg.stream.chunk_size = 96;
  cfg.ingest.window = 192;
  cfg.ingest.capacity = 4 * cfg.ingest.window;
  cfg.retrain.arch = models::Arch::kConvNet;
  cfg.retrain.model_config.width = 8;
  cfg.retrain.train_opts.epochs = 6;
  cfg.retrain.train_opts.threads = 1;
  cfg.canary.ad_threshold = 0.5;
  cfg.canary.accuracy_margin = 0.05;
  cfg.canary.rollback_factor = 1.4;
  cfg.engine.workers = 1;
  cfg.engine.batching.max_batch_size = 8;
  cfg.engine.batching.max_queue_delay_us = 500;
  cfg.engine.batching.max_queue_depth = 256;
  cfg.canary_fraction = 0.25;
  cfg.serve_per_round = 8;
  cfg.retrain_every = 2;
  cfg.rounds = 16;
  cfg.corrupt_round = 7;
  cfg.corruption.mode = pipeline::CorruptionMode::kSignFlip;
  cfg.corruption.fraction = 0.2;
  cfg.bootstrap_epochs = 4;
  cfg.seed = seed;
  pipeline::OnlinePipeline pipe(cfg);
  const pipeline::PipelineResult result = pipe.run();
  std::string lines;
  for (const pipeline::Decision& d : result.decisions) lines += pipeline::to_jsonl(d) + "\n";
  return digest(lines);
}

std::string family_digest(const std::string& family, std::uint64_t seed) {
  return family == "campaign" ? campaign_digest(seed) : pipeline_digest(seed);
}

/// Manifest key of one digest within its family.
std::string key(kernels::KernelKind kind, std::uint64_t seed) {
  return std::string(kernels::kernel_name(kind)) + "/seed" + std::to_string(seed);
}

/// family -> key -> digest.
using Manifest = std::map<std::string, std::map<std::string, std::string>>;

Manifest read_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot read manifest " + path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string doc = text.str();
  Manifest m;
  obs::FlatJsonParser(doc, "manifest " + path)
      .parse([&](const std::string& field, const obs::FlatValue& v) {
        const std::size_t dot = field.find('.');
        if (dot == std::string::npos || !v.is_string()) return;  // "about"
        m[field.substr(0, dot)][field.substr(dot + 1)] = v.str;
      });
  return m;
}

void write_manifest(const std::string& path, const Manifest& m) {
  std::ostringstream out;
  out << "{\n  \"about\": " << obs::json_string(
             "Digests of whole runs per kernel table; tests/bits/bits_check.cpp "
             "defines the families. Regenerate with: bits_check "
             "tests/bits/expected.json --regenerate")
      << ",\n";
  std::size_t f = 0;
  for (const auto& [family, keys] : m) {
    out << "  " << obs::json_string(family) << ": {";
    std::size_t i = 0;
    for (const auto& [k, v] : keys) {
      out << (i++ == 0 ? "\n    " : ",\n    ") << obs::json_string(k) << ": "
          << obs::json_string(v);
    }
    out << "\n  }" << (++f < m.size() ? ",\n" : "\n");
  }
  out << "}\n";
  std::ofstream file(path, std::ios::trunc);
  file << out.str();
  if (!file) throw ConfigError("cannot write manifest " + path);
}

bool pinned_build() {
#if defined(__FMA__)
  return true;
#else
  return false;
#endif
}

int check(const std::string& path, const std::string& family, const std::string& table) {
  const auto kind = kernels::parse_kernel(table);
  if (!kind.has_value()) throw ConfigError("unknown table '" + table + "'");
  if (!kernels::kernel_supported(*kind) || !pinned_build()) {
    std::cout << "skipped: " << family << " at " << table
              << " (unsupported table, or not the pinned FMA build)\n";
    return kSkip;
  }
  const Manifest m = read_manifest(path);
  const auto fam = m.find(family);
  if (fam == m.end()) throw ConfigError("manifest has no family '" + family + "'");
  kernels::set_active_kernel(*kind);
  int mismatches = 0;
  for (const std::uint64_t seed : kSeeds) {
    const std::string k = key(*kind, seed);
    const auto old = fam->second.find(k);
    const std::string expected = old == fam->second.end() ? "(missing)" : old->second;
    const std::string got = family_digest(family, seed);
    if (got == expected) {
      std::cout << family << " " << k << " " << got << " ok\n";
    } else {
      std::cout << "MISMATCH family " << family << " key " << k << " old " << expected
                << " new " << got << "\n";
      ++mismatches;
    }
  }
  return mismatches == 0 ? 0 : 1;
}

int regenerate(const std::string& path) {
  if (!pinned_build()) {
    std::cerr << "the manifest pins the FMA-contraction build; this build is not it\n";
    return 1;
  }
  // Keys of a table this host cannot run keep their committed values.
  Manifest m = std::ifstream(path).good() ? read_manifest(path) : Manifest{};
  for (const std::string& family : kFamilies) {
    for (const kernels::KernelKind kind : kernels::supported_kernels()) {
      kernels::set_active_kernel(kind);
      for (const std::uint64_t seed : kSeeds) {
        m[family][key(kind, seed)] = family_digest(family, seed);
        std::cout << family << " " << key(kind, seed) << " " << m[family][key(kind, seed)]
                  << "\n";
      }
    }
  }
  write_manifest(path, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  set_log_level(LogLevel::kWarn);
  core::ThreadPool::set_global_threads(1);
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 2 && args[1] == "--regenerate") return regenerate(args[0]);
  if (args.size() == 3) return check(args[0], args[1], args[2]);
  std::cerr << "usage: bits_check <manifest> <family> <table>\n"
               "       bits_check <manifest> --regenerate\n";
  return 2;
} catch (const std::exception& e) {
  std::cerr << "bits_check: " << e.what() << "\n";
  return 1;
}
