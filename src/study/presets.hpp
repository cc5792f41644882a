// Named campaign presets mirroring the paper's figures and tables.
//
// A preset is a fully-specified StudySpec at bench scale (mostly 1 trial,
// 10 epochs, 0.4 dataset scale).  `study_runner --preset <name>` runs E1-E7
// from these presets; its flags (--trials, --epochs, --scale, --models, ...)
// override preset fields *after* lookup, so "what grid does Fig. 3 run"
// lives in exactly one place.  `paper-full` is the overnight configuration (every architecture,
// every fault sweep, 20 trials, full-size datasets); `smoke` is the CI
// preset, sized to finish in seconds even under ThreadSanitizer.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "study/spec.hpp"

namespace tdfm::study {

struct Preset {
  std::string name;
  std::string description;
  StudySpec spec;
};

/// All preset names, in presentation order (stable: tests pin this list).
[[nodiscard]] std::vector<std::string> preset_names();

/// All presets, same order as preset_names().
[[nodiscard]] const std::vector<Preset>& all_presets();

/// Looks a preset up by name; throws ConfigError listing the valid names.
[[nodiscard]] const Preset& preset(std::string_view name);

/// Convenience: a copy of the preset's spec, ready for field overrides.
[[nodiscard]] StudySpec preset_spec(std::string_view name);

}  // namespace tdfm::study
