// Tiny command-line flag parser shared by the bench and example binaries.
//
// Every bench accepts the same scaling knobs (--trials, --epochs, --scale,
// --seed, --log) so a user can dial any experiment from a seconds-long smoke
// run to a paper-faithful overnight run without recompiling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tdfm {

/// Parses "--key value" and "--key=value" style flags.  Unknown flags throw
/// ConfigError listing the registered flags, so typos fail loudly.
class CliParser {
 public:
  /// Registers a flag with a default value and a help string.
  void add_flag(std::string name, std::string default_value, std::string help);

  /// Parses argv.  "--help" prints usage and returns false (caller exits 0).
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get_string(const std::string& name) const;
  [[nodiscard]] int get_int(const std::string& name) const;
  /// A count: get_int, but a negative value throws ConfigError naming the flag.
  [[nodiscard]] std::size_t get_size(const std::string& name) const;
  /// A finite number: nan and inf throw ConfigError naming the flag.
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& name) const;

  [[nodiscard]] std::string usage(std::string_view program) const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
  };
  std::map<std::string, Flag> flags_;
};

/// Registers the scaling flags shared by all bench binaries:
///   --trials (repetitions per configuration; paper used 20)
///   --epochs (training epochs per trial)
///   --scale  (dataset-size multiplier, 1.0 = bench default)
///   --seed   (master seed)
///   --log    (debug|info|warn|error|off)
///   --threads (worker threads; 0 = hardware concurrency, 1 = serial)
void add_common_bench_flags(CliParser& cli, int default_trials, int default_epochs,
                            double default_scale = 1.0);

/// Parsed load-generation settings (the bench_serving open-loop driver).
struct LoadgenOptions {
  double duration_s = 0.0;  ///< measured interval length
  double rate_rps = 0.0;    ///< request arrival rate; 0 = unthrottled (saturate)
  double warmup_s = 0.0;    ///< discarded lead-in before measurement
};

/// Registers the load-generation flags:
///   --duration (seconds of measured load)
///   --rate     (open-loop arrival rate in requests/second; 0 = as fast as
///               possible, i.e. saturation)
///   --warmup   (seconds of unmeasured lead-in load)
void add_loadgen_flags(CliParser& cli, double default_duration, double default_rate,
                       double default_warmup);

/// Reads and validates the load-generation flags (call after parse).  Throws
/// ConfigError on non-positive duration, negative rate, or negative warmup.
[[nodiscard]] LoadgenOptions parse_loadgen_flags(const CliParser& cli);

/// Registers the observability flags every bench/example accepts:
///   --metrics <file>   stream training telemetry + metric scrape as JSONL
///   --trace <file>     record Chrome trace_event JSON (open in Perfetto)
///   --log-timestamps   prefix log lines with ISO-8601 time + thread id
/// add_common_bench_flags registers these automatically; examples with
/// bespoke flag sets call this directly.
void add_obs_flags(CliParser& cli);

/// Applies the parsed observability flags (call after CliParser::parse).
void apply_obs_flags(const CliParser& cli);

}  // namespace tdfm
