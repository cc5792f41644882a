#include "study/presets.hpp"

#include <utility>

#include "core/error.hpp"
#include "faults/fault_injector.hpp"

namespace tdfm::study {

namespace {

using data::DatasetKind;
using faults::FaultType;
using mitigation::TechniqueKind;
using models::Arch;

/// The paper's Fig. 3 / Table IV model panel.
std::vector<Arch> panel_models() {
  return {Arch::kResNet50, Arch::kVGG16, Arch::kConvNet, Arch::kMobileNet};
}

std::vector<DatasetKind> all_datasets() {
  return {DatasetKind::kCifar10Sim, DatasetKind::kGtsrbSim,
          DatasetKind::kPneumoniaSim};
}

/// The paper runs LC only for mislabelling faults (§IV-C).
std::vector<TechniqueKind> techniques_without_lc() {
  return {TechniqueKind::kBaseline, TechniqueKind::kLabelSmoothing,
          TechniqueKind::kRobustLoss, TechniqueKind::kKnowledgeDistillation,
          TechniqueKind::kEnsemble};
}

/// Shared bench-scale skeleton.
StudySpec bench_scale(std::string name) {
  StudySpec spec;
  spec.name = std::move(name);
  spec.trials = 1;
  spec.scale = 0.4;
  spec.model_width = 8;
  spec.seed = 42;
  spec.train_opts.epochs = 10;
  return spec;
}

std::vector<Preset> build_presets() {
  std::vector<Preset> presets;

  {
    // A tiny study: one small dataset, one shallow model, three techniques,
    // two trials.  Finishes in seconds (also under TSan) — the CI guard for
    // scheduler/journal/cache wiring.
    StudySpec spec;
    spec.name = "smoke";
    spec.datasets = {DatasetKind::kPneumoniaSim};
    spec.models = {Arch::kConvNet};
    spec.fault_levels = {{faults::FaultSpec{FaultType::kMislabelling, 30.0}}};
    spec.techniques = {TechniqueKind::kBaseline, TechniqueKind::kLabelSmoothing,
                       TechniqueKind::kEnsemble};
    spec.trials = 2;
    spec.scale = 0.5;
    spec.model_width = 4;
    spec.seed = 5;
    spec.train_opts.epochs = 2;
    spec.train_opts.batch_size = 16;
    spec.hyperparams.ens_members = {Arch::kConvNet};
    spec.tune_small_datasets = false;
    presets.push_back({"smoke", "CI-sized grid (seconds, TSan-clean)",
                       std::move(spec)});
  }
  {
    StudySpec spec = bench_scale("fig3-mislabelling");
    spec.datasets = {DatasetKind::kGtsrbSim};
    spec.models = panel_models();
    spec.fault_levels = faults::standard_sweep(FaultType::kMislabelling);
    spec.techniques = mitigation::all_techniques();
    presets.push_back({"fig3-mislabelling",
                       "Fig. 3(a-d): AD across models, GTSRB, mislabelling",
                       std::move(spec)});
  }
  {
    StudySpec spec = bench_scale("fig3-removal");
    spec.datasets = {DatasetKind::kGtsrbSim};
    spec.models = panel_models();
    spec.fault_levels = faults::standard_sweep(FaultType::kRemoval);
    spec.techniques = techniques_without_lc();
    presets.push_back({"fig3-removal",
                       "Fig. 3(e-h): AD across models, GTSRB, removal",
                       std::move(spec)});
  }
  {
    StudySpec spec = bench_scale("fig4-mislabelling");
    spec.datasets = all_datasets();
    spec.models = {Arch::kResNet50};
    spec.fault_levels = faults::standard_sweep(FaultType::kMislabelling);
    spec.techniques = mitigation::all_techniques();
    presets.push_back({"fig4-mislabelling",
                       "Fig. 4(a,c,e): AD across datasets, ResNet50, mislabelling",
                       std::move(spec)});
  }
  {
    StudySpec spec = bench_scale("fig4-repetition");
    spec.datasets = all_datasets();
    spec.models = {Arch::kMobileNet};
    spec.fault_levels = faults::standard_sweep(FaultType::kRepetition);
    spec.techniques = techniques_without_lc();
    presets.push_back({"fig4-repetition",
                       "Fig. 4(b,d,f): AD across datasets, MobileNet, repetition",
                       std::move(spec)});
  }
  {
    // The cross-product superset of both Fig. 4 rows — one resumable
    // campaign instead of two bench invocations.
    StudySpec spec = bench_scale("fig4");
    spec.datasets = all_datasets();
    spec.models = {Arch::kResNet50, Arch::kMobileNet};
    spec.fault_levels = faults::standard_sweep(FaultType::kMislabelling);
    for (FaultLevel& level : faults::standard_sweep(FaultType::kRepetition)) {
      spec.fault_levels.push_back(std::move(level));
    }
    spec.techniques = mitigation::all_techniques();
    presets.push_back({"fig4",
                       "Fig. 4 superset: both datasets-axis panels in one grid",
                       std::move(spec)});
  }
  {
    StudySpec spec = bench_scale("table4");
    spec.datasets = all_datasets();
    spec.models = panel_models();
    spec.fault_levels = {{}};  // no injection: Table IV measures clean training
    spec.techniques = mitigation::all_techniques();
    presets.push_back({"table4",
                       "Table IV: accuracies without fault injection",
                       std::move(spec)});
  }
  {
    // §II / §III-D: the paper's opening example.
    StudySpec spec = bench_scale("motivating-example");
    spec.datasets = {DatasetKind::kPneumoniaSim};
    spec.models = {Arch::kResNet50};
    spec.fault_levels = {{faults::FaultSpec{FaultType::kMislabelling, 10.0}}};
    spec.techniques = mitigation::all_techniques();
    spec.trials = 2;
    spec.scale = 1.0;
    spec.train_opts.epochs = 8;
    presets.push_back({"motivating-example",
                       "§II motivating example: Pneumonia, ResNet50, 10% "
                       "mislabelling",
                       std::move(spec)});
  }
  {
    // §IV-C: every single fault type and every pair of them at 30%, Base
    // only; the Analyzer Welch-tests each pair against its dominant single.
    StudySpec spec = bench_scale("combined-faults");
    spec.datasets = {DatasetKind::kGtsrbSim};
    spec.models = {Arch::kConvNet};
    const faults::FaultSpec mislabel{FaultType::kMislabelling, 30.0};
    const faults::FaultSpec removal{FaultType::kRemoval, 30.0};
    const faults::FaultSpec repetition{FaultType::kRepetition, 30.0};
    spec.fault_levels = {{mislabel},
                         {removal},
                         {repetition},
                         {mislabel, removal},
                         {mislabel, repetition},
                         {removal, repetition}};
    spec.techniques = {TechniqueKind::kBaseline};
    spec.trials = 3;
    spec.scale = 0.8;
    spec.train_opts.epochs = 16;
    presets.push_back({"combined-faults",
                       "§IV-C: single vs combined fault types, GTSRB, ConvNet",
                       std::move(spec)});
  }
  {
    // int8-vs-fp32 deployment question: does q8_0 quantization change how
    // much faulty training data hurts?  Small grid, every cell measured
    // twice (fp32 then quantized) against the same fp32 golden.
    StudySpec spec = bench_scale("quant-ad");
    spec.datasets = {DatasetKind::kGtsrbSim};
    spec.models = {Arch::kConvNet, Arch::kMobileNet};
    spec.fault_levels = {{}, {faults::FaultSpec{FaultType::kMislabelling, 30.0}}};
    spec.techniques = {TechniqueKind::kBaseline, TechniqueKind::kLabelSmoothing,
                       TechniqueKind::kRobustLoss, TechniqueKind::kEnsemble};
    spec.hyperparams.ens_members = {Arch::kConvNet, Arch::kMobileNet};
    spec.measure_quantized = true;
    presets.push_back({"quant-ad",
                       "int8 vs fp32 AD per mitigation technique (q8_0)",
                       std::move(spec)});
  }
  {
    // The overnight grid: every architecture and dataset, all three fault
    // sweeps plus the clean level, 20 trials, full-size datasets.
    StudySpec spec;
    spec.name = "paper-full";
    spec.datasets = all_datasets();
    spec.models = models::all_architectures();
    spec.fault_levels = {{}};
    for (const FaultType type :
         {FaultType::kMislabelling, FaultType::kRepetition, FaultType::kRemoval}) {
      for (FaultLevel& level : faults::standard_sweep(type)) {
        spec.fault_levels.push_back(std::move(level));
      }
    }
    spec.techniques = mitigation::all_techniques();
    spec.trials = 20;
    spec.scale = 1.0;
    spec.model_width = 8;
    spec.seed = 42;
    spec.train_opts.epochs = 10;
    presets.push_back({"paper-full",
                       "the paper's full factorial grid (overnight; resumable; "
                       "made for --spawn N sharding)",
                       std::move(spec)});
  }
  return presets;
}

}  // namespace

const std::vector<Preset>& all_presets() {
  static const std::vector<Preset> presets = build_presets();
  return presets;
}

std::vector<std::string> preset_names() {
  std::vector<std::string> names;
  for (const Preset& p : all_presets()) names.push_back(p.name);
  return names;
}

const Preset& preset(std::string_view name) {
  for (const Preset& p : all_presets()) {
    if (p.name == name) return p;
  }
  std::string known;
  for (const Preset& p : all_presets()) {
    if (!known.empty()) known += ", ";
    known += p.name;
  }
  throw ConfigError("unknown study preset '" + std::string(name) +
                    "' (known: " + known + ")");
}

StudySpec preset_spec(std::string_view name) { return preset(name).spec; }

}  // namespace tdfm::study
