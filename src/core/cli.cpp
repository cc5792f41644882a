#include "core/cli.hpp"

#include <cmath>
#include <cstdint>
#include <iostream>
#include <sstream>

#include "core/error.hpp"
#include "core/logging.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace tdfm {

void CliParser::add_flag(std::string name, std::string default_value, std::string help) {
  TDFM_CHECK(!name.empty() && name[0] != '-', "register flag names without dashes");
  Flag f{default_value, default_value, std::move(help)};
  flags_[std::move(name)] = std::move(f);
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage(argv[0]);
      return false;
    }
    if (!arg.starts_with("--")) {
      throw ConfigError("unexpected positional argument: " + std::string(arg));
    }
    arg.remove_prefix(2);
    std::string name;
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      name = std::string(arg);
      if (i + 1 >= argc) {
        throw ConfigError("flag --" + name + " expects a value");
      }
      value = argv[++i];
    }
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      throw ConfigError("unknown flag --" + name + "\n" + usage(argv[0]));
    }
    it->second.value = std::move(value);
  }
  return true;
}

std::string CliParser::get_string(const std::string& name) const {
  const auto it = flags_.find(name);
  TDFM_CHECK(it != flags_.end(), "flag was never registered");
  return it->second.value;
}

int CliParser::get_int(const std::string& name) const {
  const std::string v = get_string(name);
  try {
    std::size_t pos = 0;
    const int r = std::stoi(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return r;
  } catch (const std::exception&) {
    throw ConfigError("flag --" + name + " expects an integer, got '" + v + "'");
  }
}

std::size_t CliParser::get_size(const std::string& name) const {
  const int v = get_int(name);
  if (v < 0) {
    throw ConfigError("flag --" + name + " expects a count >= 0, got " +
                      std::to_string(v));
  }
  return static_cast<std::size_t>(v);
}

std::uint64_t CliParser::get_u64(const std::string& name) const {
  const std::string v = get_string(name);
  try {
    std::size_t pos = 0;
    const std::uint64_t r = std::stoull(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return r;
  } catch (const std::exception&) {
    throw ConfigError("flag --" + name + " expects an unsigned integer, got '" + v + "'");
  }
}

double CliParser::get_double(const std::string& name) const {
  const std::string v = get_string(name);
  try {
    std::size_t pos = 0;
    const double r = std::stod(v, &pos);
    if (pos != v.size() || !std::isfinite(r)) throw std::invalid_argument(v);
    return r;
  } catch (const std::exception&) {
    throw ConfigError("flag --" + name + " expects a finite number, got '" + v +
                      "'");
  }
}

bool CliParser::get_bool(const std::string& name) const {
  const std::string v = get_string(name);
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw ConfigError("flag --" + name + " expects a boolean, got '" + v + "'");
}

std::string CliParser::usage(std::string_view program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << " <value>   " << flag.help
       << " (default: " << flag.default_value << ")\n";
  }
  return os.str();
}

void add_common_bench_flags(CliParser& cli, int default_trials, int default_epochs,
                            double default_scale) {
  cli.add_flag("trials", std::to_string(default_trials),
               "repetitions per configuration (paper used 20)");
  cli.add_flag("epochs", std::to_string(default_epochs), "training epochs per trial");
  cli.add_flag("scale", std::to_string(default_scale), "dataset-size multiplier");
  cli.add_flag("seed", "42", "master random seed");
  cli.add_flag("log", "warn", "log level: debug|info|warn|error|off");
  cli.add_flag("threads", "0",
               "worker threads for training hot paths (0 = hardware "
               "concurrency, 1 = serial); results are bit-identical for "
               "every value");
  add_obs_flags(cli);
}

void add_loadgen_flags(CliParser& cli, double default_duration, double default_rate,
                       double default_warmup) {
  cli.add_flag("duration", std::to_string(default_duration),
               "seconds of measured load (> 0)");
  cli.add_flag("rate", std::to_string(default_rate),
               "open-loop arrival rate in requests/second (0 = unthrottled, "
               "saturating load)");
  cli.add_flag("warmup", std::to_string(default_warmup),
               "seconds of unmeasured lead-in load (>= 0)");
}

LoadgenOptions parse_loadgen_flags(const CliParser& cli) {
  LoadgenOptions opts;
  opts.duration_s = cli.get_double("duration");
  opts.rate_rps = cli.get_double("rate");
  opts.warmup_s = cli.get_double("warmup");
  if (opts.duration_s <= 0.0) {
    throw ConfigError("--duration must be positive, got " +
                      std::to_string(opts.duration_s));
  }
  if (opts.rate_rps < 0.0) {
    throw ConfigError("--rate must be >= 0 (0 = unthrottled), got " +
                      std::to_string(opts.rate_rps));
  }
  if (opts.warmup_s < 0.0) {
    throw ConfigError("--warmup must be >= 0, got " + std::to_string(opts.warmup_s));
  }
  return opts;
}

void add_obs_flags(CliParser& cli) {
  cli.add_flag("metrics", "",
               "JSONL telemetry output: per-epoch/per-cell records plus a "
               "final metrics-registry scrape (empty = off)");
  cli.add_flag("trace", "",
               "Chrome trace_event JSON output, viewable in Perfetto "
               "(empty = off)");
  cli.add_flag("log-timestamps", "false",
               "prefix log lines with ISO-8601 UTC time and thread id");
}

void apply_obs_flags(const CliParser& cli) {
  set_log_timestamps(cli.get_bool("log-timestamps"));
  const std::string metrics = cli.get_string("metrics");
  if (!metrics.empty()) obs::set_metrics_output(metrics);
  const std::string trace = cli.get_string("trace");
  if (!trace.empty()) {
    obs::set_trace_output(trace);
    obs::set_trace_enabled(true);
  }
}

}  // namespace tdfm
