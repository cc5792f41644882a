// Campaign grid declaration and stable cell identity.
//
// A StudySpec declares the full factorial grid of the paper's evaluation —
// datasets x models x fault levels x techniques x trials — plus the shared
// training/hyperparameter configuration.  The spec *expands* into cells, and
// every cell gets a content-hashed identity:
//
//   cell id   = hex64(stable_hash64(canonical description of the cell))
//   rng seeds = stable_hash64(role | canonical subset relevant to the role)
//
// Because the seeds are derived from cell *content* (never from execution
// order, thread ids, or a shared RNG stream), a cell computes bit-identical
// results whether it runs first or last, on 1 job or 16, freshly or after a
// `--resume` that skipped half the grid.  The roles partition the axes so
// work can be shared without breaking that guarantee:
//
//   dataset  (kind, scale, spec seed)            shared by the whole grid
//   golden   (dataset, model, trial)             shared across levels+techniques
//   inject   (dataset, level, trial)             same faulty data for all techniques
//   lc-*     (dataset, level, trial)             label correction's pre-injection split
//   fit      (whole cell; ensembles drop the     the per-technique training stream
//             model axis — their member set
//             does not depend on the panel)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "data/synthetic.hpp"
#include "faults/fault_injector.hpp"
#include "mitigation/registry.hpp"
#include "models/model_zoo.hpp"
#include "nn/trainer.hpp"

namespace tdfm::study {

using faults::FaultLevel;

/// Declarative description of one campaign: the grid axes plus the shared
/// training configuration.  Axis order is fixed (dataset-major, trial-minor)
/// so expansion order is stable and reports are deterministic.
struct StudySpec {
  std::string name = "custom";
  std::vector<data::DatasetKind> datasets;
  std::vector<models::Arch> models;
  /// Fault levels; an empty FaultLevel ({}) means "no injection" (Table IV).
  std::vector<FaultLevel> fault_levels;
  std::vector<mitigation::TechniqueKind> techniques;
  std::size_t trials = 1;
  double scale = 1.0;           ///< dataset-size multiplier (bench --scale)
  std::size_t model_width = 8;  ///< base channel width (paper analogue: 64)
  std::uint64_t seed = 42;      ///< campaign master seed
  nn::TrainOptions train_opts;
  mitigation::Hyperparameters hyperparams;
  /// Apply the small-dataset adjustments the benches use for Pneumonia-sim
  /// (batch 8, 2.5x epochs, scale floored at 1.0) so every model sees a
  /// comparable number of optimisation steps.  Off for surgical test specs.
  bool tune_small_datasets = true;
  /// Additionally evaluate every fitted classifier after q8_0 quantization
  /// and record int8 accuracy/AD next to the fp32 numbers.  Changes the cell
  /// identity (quantized predictions are part of the computed bits) but only
  /// when on, so existing campaign journals stay valid.
  bool measure_quantized = false;

  /// Throws InvariantError on a degenerate grid (any empty axis, 0 trials).
  void validate() const;

  /// datasets x models x fault_levels x techniques x trials.
  [[nodiscard]] std::size_t cell_count() const;

  /// "none" or "mislabelling@10%" style level label (expansion axis name).
  [[nodiscard]] std::string fault_level_name(std::size_t index) const;
};

/// One grid point, stored as indices into the spec's axes (trial 0-based).
struct Cell {
  std::size_t dataset = 0;
  std::size_t model = 0;
  std::size_t level = 0;
  std::size_t technique = 0;
  std::size_t trial = 0;

  [[nodiscard]] bool operator==(const Cell&) const = default;
};

/// Expands the grid in deterministic dataset-major order:
/// dataset > model > level > technique > trial.
[[nodiscard]] std::vector<Cell> expand_cells(const StudySpec& spec);

/// Deterministic, platform-independent 64-bit content hash (FNV-1a mixed
/// through a splitmix64 finaliser).  The foundation of cell identity.
[[nodiscard]] std::uint64_t stable_hash64(std::string_view text);

/// Canonical textual description of a cell — every field that influences the
/// cell's computed bits, in fixed order.  Hashing this yields the cell id.
[[nodiscard]] std::string cell_canonical(const StudySpec& spec, const Cell& cell);

/// 16-hex-digit cell identity; stable across runs, processes and platforms.
[[nodiscard]] std::string cell_id(const StudySpec& spec, const Cell& cell);

/// Which of `shard_count` disjoint partitions owns this cell id:
/// stable_hash64(cell id) % shard_count.  Because the input is the content-
/// hash id, the partition is stable across runs, processes, and platforms —
/// N workers agree on ownership with zero coordination.  shard_count == 1
/// maps everything to shard 0.  Throws ConfigError on shard_count == 0.
[[nodiscard]] std::size_t shard_of(std::string_view cell_id,
                                   std::size_t shard_count);

/// The generation spec for one dataset axis entry, with the campaign's scale
/// and small-dataset tuning applied.  The generation seed is itself derived
/// from (kind, scale, campaign seed), so cached datasets are shareable
/// between campaigns that agree on those fields.
[[nodiscard]] data::SyntheticSpec dataset_spec_for(const StudySpec& spec,
                                                   data::DatasetKind kind);

/// Trainer options for one dataset axis entry (Pneumonia-sim gets batch 8
/// and 2.5x epochs when tune_small_datasets is set).
[[nodiscard]] nn::TrainOptions train_options_for(const StudySpec& spec,
                                                 data::DatasetKind kind);

// --- Role-scoped seeds (see header comment for the sharing contract). ---

/// Seed for the golden (clean, no-technique) model of (dataset, model, trial).
[[nodiscard]] std::uint64_t golden_seed(const StudySpec& spec, const Cell& cell);

/// Key identifying the golden model a cell measures against (cache key).
[[nodiscard]] std::uint64_t golden_key(const StudySpec& spec, const Cell& cell);

/// Seed for fault injection at (dataset, level, trial) — technique-invariant
/// so every technique trains on the same faulty data.
[[nodiscard]] std::uint64_t inject_seed(const StudySpec& spec, const Cell& cell);

/// Seeds for label correction's reserved-clean-subset split and the
/// injection into the remaining data (§III-B2).
[[nodiscard]] std::uint64_t lc_split_seed(const StudySpec& spec, const Cell& cell);
[[nodiscard]] std::uint64_t lc_inject_seed(const StudySpec& spec, const Cell& cell);

/// Seed for the technique fit of this cell.  For the ensemble technique the
/// model axis is excluded: its member set ignores the panel model, so panels
/// can share one trained ensemble per (dataset, level, trial).
[[nodiscard]] std::uint64_t fit_seed(const StudySpec& spec, const Cell& cell);

/// Cache key for a shareable fit (currently: ensembles).  Returns 0 for
/// techniques whose fit depends on the panel model (not shareable).
[[nodiscard]] std::uint64_t shared_fit_key(const StudySpec& spec, const Cell& cell);

}  // namespace tdfm::study
