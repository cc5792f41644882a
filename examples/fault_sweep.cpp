// Fault sweep: the library's campaign engine driven as an application.
//
// Sweeps one (dataset, model, technique set) configuration across the
// selected fault types and prints the AD table, the technique ranks and
// optionally a CSV block for plotting — the same machinery the bench
// binaries use, exposed as a configurable tool.  For example:
//
//   ./examples/fault_sweep --dataset cifar10 --model VGG11 --trials 2
#include <iostream>

#include "core/cli.hpp"
#include "core/logging.hpp"
#include "core/thread_pool.hpp"
#include "kernels/kernels.hpp"
#include "study/study.hpp"

int main(int argc, char** argv) try {
  // A bad TDFM_KERNEL fails here, before any work.
  (void)tdfm::kernels::active_kernel();
  using namespace tdfm;

  CliParser cli;
  cli.add_flag("dataset", "gtsrb", "cifar10|gtsrb|pneumonia");
  cli.add_flag("model", "ConvNet", "architecture under test");
  cli.add_flag("techniques", "Base,LS,RL,KD,Ens", "comma-separated technique list");
  cli.add_flag("fault", "all", "mislabelling|repetition|removal|all");
  cli.add_flag("trials", "2", "repetitions per configuration");
  cli.add_flag("epochs", "10", "training epochs");
  cli.add_flag("scale", "0.5", "dataset scale");
  cli.add_flag("width", "8", "model width");
  cli.add_flag("seed", "42", "master seed");
  cli.add_flag("csv", "false", "also dump CSV rows");
  cli.add_flag("threads", "0",
               "worker threads (0 = hardware concurrency, 1 = serial)");
  add_obs_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  set_log_level(LogLevel::kWarn);
  apply_obs_flags(cli);
  core::ThreadPool::set_global_threads(cli.get_size("threads"));

  study::StudySpec spec;
  spec.name = "fault-sweep";
  spec.datasets = {data::dataset_from_name(cli.get_string("dataset"))};
  spec.models = {models::arch_from_name(cli.get_string("model"))};
  spec.scale = cli.get_double("scale");
  spec.model_width = cli.get_size("width");
  spec.trials = cli.get_size("trials");
  spec.train_opts.epochs = cli.get_size("epochs");
  spec.seed = cli.get_u64("seed");
  {
    const std::string list = cli.get_string("techniques");
    std::size_t pos = 0;
    while (pos < list.size()) {
      const std::size_t comma = list.find(',', pos);
      const std::size_t end = comma == std::string::npos ? list.size() : comma;
      spec.techniques.push_back(
          mitigation::technique_from_name(list.substr(pos, end - pos)));
      pos = end + 1;
    }
  }

  std::vector<faults::FaultType> types;
  const std::string fault = cli.get_string("fault");
  if (fault == "all") {
    types = {faults::FaultType::kMislabelling, faults::FaultType::kRepetition,
             faults::FaultType::kRemoval};
  } else {
    types = {faults::fault_from_name(fault)};
  }
  for (const auto type : types) {
    for (faults::FaultLevel& level : faults::standard_sweep(type)) {
      spec.fault_levels.push_back(std::move(level));
    }
  }

  const auto result = study::run_campaign(spec);
  const auto summary = study::summarize_campaign(result.records);
  std::cout << study::render_ascii(summary);
  if (cli.get_bool("csv")) std::cout << study::render_csv(summary);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
