// Training-data fault injector — the TF-DM [51] equivalent.
//
// Implements the paper's three fault types (§I):
//   - mislabelling: a fraction of samples get a different label, chosen
//     uniformly at random among the other classes;
//   - repetition:   a fraction of samples are duplicated (appended);
//   - removal:      a fraction of samples are deleted.
// Faults are injected *before* any TDFM technique runs, matching the
// experiment pipeline of Fig. 2.  Injection is deterministic in the Rng and
// fault combinations are applied in the listed order (mislabelling first so
// later removals can delete mislabelled entries, as with real pipelines).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"

namespace tdfm::faults {

enum class FaultType { kMislabelling, kRepetition, kRemoval };

[[nodiscard]] const char* fault_name(FaultType type);
[[nodiscard]] FaultType fault_from_name(std::string_view name);

/// One fault injection campaign: `percent` of the *current* training set is
/// affected (the paper sweeps 10, 30, 50).
struct FaultSpec {
  FaultType type = FaultType::kMislabelling;
  double percent = 10.0;

  [[nodiscard]] std::string to_string() const;
};

/// One fault level = a list of fault campaigns applied in order (single
/// entry for the paper's main sweeps; two entries for §IV-C combinations;
/// empty for no-injection baselines like Table IV).
using FaultLevel = std::vector<FaultSpec>;

/// The paper's standard sweep for one fault type: {10%, 30%, 50%}.
[[nodiscard]] std::vector<FaultLevel> standard_sweep(FaultType type);

/// What the injector actually did, for logging and tests.
struct InjectionReport {
  std::size_t original_size = 0;
  std::size_t resulting_size = 0;
  std::size_t mislabelled = 0;
  std::size_t repeated = 0;
  std::size_t removed = 0;
};

/// Returns a faulty copy of `clean`; the input is never modified (golden
/// models keep training on it).
[[nodiscard]] data::Dataset inject(const data::Dataset& clean,
                                   std::span<const FaultSpec> faults, Rng& rng,
                                   InjectionReport* report = nullptr);

/// Convenience overload for a single fault type.
[[nodiscard]] data::Dataset inject(const data::Dataset& clean, FaultSpec fault,
                                   Rng& rng, InjectionReport* report = nullptr);

}  // namespace tdfm::faults
