#include "faults/fault_injector.hpp"

#include <cmath>
#include <cstdio>
#include <numeric>

#include "core/logging.hpp"

namespace tdfm::faults {

const char* fault_name(FaultType type) {
  switch (type) {
    case FaultType::kMislabelling: return "mislabelling";
    case FaultType::kRepetition: return "repetition";
    case FaultType::kRemoval: return "removal";
  }
  return "unknown";
}

FaultType fault_from_name(std::string_view name) {
  if (name == "mislabelling" || name == "mislabel") return FaultType::kMislabelling;
  if (name == "repetition" || name == "repeat") return FaultType::kRepetition;
  if (name == "removal" || name == "remove") return FaultType::kRemoval;
  throw ConfigError("unknown fault type: " + std::string(name));
}

std::string FaultSpec::to_string() const {
  // Print the actual percentage with trailing zeros trimmed: rounding to an
  // integer collapsed distinct specs (12.5% and 13%) onto one report key.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", percent);
  return std::string(fault_name(type)) + "@" + buf + "%";
}

std::vector<FaultLevel> standard_sweep(FaultType type) {
  std::vector<FaultLevel> levels;
  for (const double pct : {10.0, 30.0, 50.0}) {
    levels.push_back({FaultSpec{type, pct}});
  }
  return levels;
}

namespace {

std::size_t affected_count(std::size_t n, double percent) {
  TDFM_CHECK(percent >= 0.0 && percent <= 100.0, "fault percent in [0, 100]");
  return static_cast<std::size_t>(std::llround(static_cast<double>(n) * percent / 100.0));
}

void apply_mislabelling(data::Dataset& ds, double percent, Rng& rng,
                        InjectionReport& report) {
  TDFM_CHECK(ds.num_classes >= 2, "mislabelling needs at least two classes");
  const std::size_t k = affected_count(ds.size(), percent);
  const auto victims = rng.sample_without_replacement(ds.size(), k);
  for (const std::size_t i : victims) {
    // Uniformly random *different* label.
    const auto offset = 1 + rng.index(ds.num_classes - 1);
    ds.labels[i] = static_cast<int>(
        (static_cast<std::size_t>(ds.labels[i]) + offset) % ds.num_classes);
  }
  report.mislabelled += k;
}

void apply_repetition(data::Dataset& ds, double percent, Rng& rng,
                      InjectionReport& report) {
  const std::size_t k = affected_count(ds.size(), percent);
  const auto sources = rng.sample_without_replacement(ds.size(), k);
  const data::Dataset copies = ds.subset(sources);
  ds = data::concatenate(ds, copies);
  report.repeated += k;
}

void apply_removal(data::Dataset& ds, double percent, Rng& rng,
                   InjectionReport& report) {
  const std::size_t k = affected_count(ds.size(), percent);
  TDFM_CHECK(k < ds.size(), "removal would delete the whole dataset");
  auto doomed = rng.sample_without_replacement(ds.size(), k);
  std::vector<bool> remove(ds.size(), false);
  for (const std::size_t i : doomed) remove[i] = true;
  std::vector<std::size_t> keep;
  keep.reserve(ds.size() - k);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    if (!remove[i]) keep.push_back(i);
  }
  ds = ds.subset(keep);
  report.removed += k;
}

}  // namespace

data::Dataset inject(const data::Dataset& clean, std::span<const FaultSpec> faults,
                     Rng& rng, InjectionReport* report) {
  clean.validate();
  data::Dataset faulty = clean.subset([&] {
    std::vector<std::size_t> all(clean.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    return all;
  }());
  InjectionReport local;
  local.original_size = clean.size();
  for (const FaultSpec& fault : faults) {
    switch (fault.type) {
      case FaultType::kMislabelling:
        apply_mislabelling(faulty, fault.percent, rng, local);
        break;
      case FaultType::kRepetition:
        apply_repetition(faulty, fault.percent, rng, local);
        break;
      case FaultType::kRemoval:
        apply_removal(faulty, fault.percent, rng, local);
        break;
    }
  }
  local.resulting_size = faulty.size();
  faulty.validate();
  TDFM_LOG(kDebug) << "injected faults into " << clean.name << ": "
                   << local.mislabelled << " mislabelled, " << local.repeated
                   << " repeated, " << local.removed << " removed";
  if (report != nullptr) *report = local;
  return faulty;
}

data::Dataset inject(const data::Dataset& clean, FaultSpec fault, Rng& rng,
                     InjectionReport* report) {
  return inject(clean, std::span<const FaultSpec>(&fault, 1), rng, report);
}

}  // namespace tdfm::faults
