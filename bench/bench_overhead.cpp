// E8 — §IV-E: runtime overhead analysis.
//
// Training and inference wall-clock of every technique, normalised to the
// unprotected baseline.  Expected shapes from the paper:
//   - inference overhead 1x for all techniques except ensembles (5x —
//     five member models are consulted);
//   - LS cheapest to train (~1x); KD ~1.5x (teacher + faster student);
//   - LC higher than most (secondary model trained concurrently);
//   - Ens highest training overhead (five models).
// The bench also prints the AD vs naive-accuracy-drop ablation (DESIGN.md
// §5) in --verbose mode.
#include "bench_common.hpp"

#include <cstdio>

#include "data/synthetic.hpp"
#include "nn/trainer.hpp"
#include "pipeline/decision_log.hpp"
#include "pipeline/ingest_buffer.hpp"
#include "pipeline/stream_source.hpp"

namespace {

// Builds the small GTSRB-sim training closure shared by the thread sweep and
// the instrumentation-overhead section; returns wall seconds for one 2-epoch
// fit from a fixed seed.
struct MicroTrain {
  MicroTrain(const tdfm::bench::BenchSettings& s, tdfm::models::Arch model)
      : settings(s), arch(model) {
    spec.kind = tdfm::data::DatasetKind::kGtsrbSim;
    spec.scale = std::min(s.scale, 0.4);
    pair = tdfm::data::generate(spec);
    mc = tdfm::models::ModelConfig::for_dataset(spec);
    mc.width = s.width;
    targets = tdfm::nn::one_hot(pair.train.labels, pair.train.num_classes);
    opts.epochs = 2;
    opts.auto_tune = false;
  }

  double run_once() {
    using namespace tdfm;
    Rng build_rng(settings.seed);
    auto net = models::build_model(arch, mc, build_rng);
    nn::Trainer trainer(opts);
    Rng fit_rng(settings.seed + 1);
    obs::Stopwatch watch;
    trainer.fit(*net, pair.train.images,
                [&](const Tensor& logits, std::span<const std::size_t> idx,
                    Tensor& grad) {
                  return ce.compute(logits, nn::Trainer::gather(targets, idx), grad);
                },
                fit_rng);
    return watch.elapsed_seconds();
  }

  tdfm::bench::BenchSettings settings;
  tdfm::models::Arch arch;
  tdfm::data::SyntheticSpec spec;
  tdfm::data::TrainTestPair pair;
  tdfm::models::ModelConfig mc;
  tdfm::Tensor targets;
  tdfm::nn::CrossEntropyLoss ce;
  tdfm::nn::TrainOptions opts;
};

// Times one training epoch of the technique-agnostic trainer at each thread
// count and prints throughput plus speedup over the 1-thread row.  The
// trained weights are bit-identical across rows (asserted in nn_tests); this
// table shows what the `--threads` flag buys in wall-clock.
void print_thread_sweep(const tdfm::bench::BenchSettings& s, tdfm::models::Arch model) {
  using namespace tdfm;
  MicroTrain micro(s, model);
  AsciiTable table({"threads", "train s", "samples/s", "speedup"});
  double base_seconds = 0.0;
  const std::size_t hw = core::ThreadPool::default_threads();
  for (std::size_t t = 1; t <= std::max<std::size_t>(hw, 4); t *= 2) {
    core::ThreadPool::set_global_threads(t);
    const double seconds = micro.run_once();
    if (t == 1) base_seconds = seconds;
    const double samples =
        static_cast<double>(micro.pair.train.size() * micro.opts.epochs) / seconds;
    table.add_row({std::to_string(t), fixed(seconds, 3), fixed(samples, 0),
                   fixed(base_seconds / seconds, 2) + "x"});
  }
  core::ThreadPool::set_global_threads(s.threads);
  std::cout << "\nper-thread-count training throughput ("
            << models::arch_name(model) << ", GTSRB-sim):\n"
            << table.render();
}

// Measures the cost of the obs instrumentation itself (ISSUE: disabled path
// must stay <2% of training time).  Three layers:
//   1. micro: ns per disabled Counter::add and per disabled/enabled
//      flight::record (the two checks that sit on hot paths);
//   2. macro: the same small training run with obs off / metrics on /
//      metrics+trace on / flight recorder on / snapshot exporter live;
//   3. estimate: instrumentation checks per run (GEMM calls dominate) times
//      the micro cost, as a fraction of the uninstrumented run.
void print_obs_overhead(const tdfm::bench::BenchSettings& s,
                        tdfm::models::Arch model, tdfm::bench::BenchJson& json) {
  using namespace tdfm;
  const bool metrics_was_on = obs::metrics_enabled();
  const bool trace_was_on = obs::trace_enabled();
  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);
  obs::flight::set_enabled(false);

  obs::Counter probe = obs::Registry::global().counter("bench.obs_probe");
  constexpr std::size_t kIters = 50'000'000;
  obs::Stopwatch micro_watch;
  for (std::size_t i = 0; i < kIters; ++i) probe.add(1);
  const double ns_per_check =
      micro_watch.elapsed_seconds() * 1e9 / static_cast<double>(kIters);

  // Flight recorder: the disabled path is the same shape (relaxed load +
  // branch); the enabled path is a few stores into this thread's own ring.
  obs::Stopwatch flight_off_watch;
  for (std::size_t i = 0; i < kIters; ++i) {
    obs::flight::record(obs::flight::EventKind::kCellBegin, "probe");
  }
  const double flight_off_ns =
      flight_off_watch.elapsed_seconds() * 1e9 / static_cast<double>(kIters);
  obs::flight::set_enabled(true);
  constexpr std::size_t kFlightIters = 5'000'000;
  obs::Stopwatch flight_on_watch;
  for (std::size_t i = 0; i < kFlightIters; ++i) {
    obs::flight::record(obs::flight::EventKind::kCellBegin, "probe");
  }
  const double flight_on_ns =
      flight_on_watch.elapsed_seconds() * 1e9 /
      static_cast<double>(kFlightIters);
  obs::flight::set_enabled(false);

  MicroTrain micro(s, model);
  const double off_s = micro.run_once();
  // reset_values gives a clean per-run count of instrumentation hits; any
  // user-requested --metrics scrape at exit reflects post-reset values.
  obs::Registry::global().reset_values();
  obs::set_metrics_enabled(true);
  const double metrics_s = micro.run_once();
  const double checks = static_cast<double>(
      obs::Registry::global().counter("gemm.calls").value() +
      obs::Registry::global().counter("conv.images").value());
  obs::set_trace_enabled(true);
  const double trace_s = micro.run_once();
  obs::set_trace_enabled(false);
  // Flight recorder armed: every Span begin/end also drops a ring entry.
  obs::flight::set_enabled(true);
  const double flight_s = micro.run_once();
  obs::flight::set_enabled(false);
  // Live snapshot exporter scraping alongside the run (the --spawn worker
  // configuration): a background thread, not a hot-path tax.
  double exporter_s;
  {
    obs::SnapshotExporter exporter;
    obs::ExporterOptions eopts;
    eopts.dir = "bench_overhead.obs";
    eopts.label = "bench_overhead";
    eopts.interval_ms = 100;
    exporter.start(std::move(eopts));
    exporter_s = micro.run_once();
  }

  obs::set_metrics_enabled(metrics_was_on);
  obs::set_trace_enabled(trace_was_on);
  if (!trace_was_on) obs::clear_trace_events();

  const double est_disabled_pct =
      off_s > 0.0
          ? checks * (ns_per_check + flight_off_ns) * 1e-9 / off_s * 100.0
          : 0.0;
  AsciiTable table({"configuration", "train s", "vs off"});
  const auto ratio = [&](double seconds) {
    return fixed(off_s > 0 ? seconds / off_s : 0.0, 2) + "x";
  };
  table.add_row({"obs off", fixed(off_s, 3), "1.00x"});
  table.add_row({"metrics on", fixed(metrics_s, 3), ratio(metrics_s)});
  table.add_row({"metrics + trace on", fixed(trace_s, 3), ratio(trace_s)});
  table.add_row({"metrics + flight recorder", fixed(flight_s, 3),
                 ratio(flight_s)});
  table.add_row({"metrics + snapshot exporter", fixed(exporter_s, 3),
                 ratio(exporter_s)});
  std::cout << "\nobs instrumentation overhead (" << models::arch_name(model)
            << ", GTSRB-sim, 2 epochs):\n"
            << table.render() << "disabled checks: counter "
            << fixed(ns_per_check, 2) << " ns/op, flight "
            << fixed(flight_off_ns, 2) << " ns/op (enabled "
            << fixed(flight_on_ns, 1) << " ns/op); ~" << fixed(checks, 0)
            << " checks per run -> estimated disabled-path overhead "
            << fixed(est_disabled_pct, 3) << "% (target <2%)\n";

  json.add("obs.disabled_check_ns", ns_per_check);
  json.add("obs.flight_disabled_check_ns", flight_off_ns);
  json.add("obs.flight_record_ns", flight_on_ns);
  json.add("obs.train_off_seconds", off_s);
  json.add("obs.train_metrics_seconds", metrics_s);
  json.add("obs.train_trace_seconds", trace_s);
  json.add("obs.train_flight_seconds", flight_s);
  json.add("obs.train_exporter_seconds", exporter_s);
  json.add("obs.est_disabled_overhead_pct", est_disabled_pct);
}

// The online pipeline's non-training hot paths: what does it cost to move a
// faulty sample from the stream into a retraining window, and to land one
// crash-safe decision record?  Training dominates the loop by orders of
// magnitude; these rows show the plumbing is never the bottleneck.
void print_pipeline_overhead(const tdfm::bench::BenchSettings& s,
                             tdfm::bench::BenchJson& json) {
  using namespace tdfm;

  data::SyntheticSpec spec;
  spec.kind = data::DatasetKind::kCifar10Sim;
  spec.scale = std::min(s.scale, 0.4);
  const data::Dataset base = data::generate(spec).train;

  pipeline::StreamConfig scfg;
  scfg.mislabel_percent = 20.0;
  scfg.repeat_percent = 5.0;
  scfg.chunk_size = 64;
  scfg.seed = s.seed;
  pipeline::IngestConfig icfg;
  icfg.window = 256;
  icfg.hop = 0;
  icfg.capacity = 1024;

  // Stream -> ingest -> window: fault injection, sequence accounting, and
  // window assembly, excluding any training.
  pipeline::StreamSource stream(base, scfg);
  pipeline::IngestBuffer buffer(icfg);
  constexpr std::size_t kChunks = 256;
  std::size_t windows = 0;
  obs::Stopwatch ingest_watch;
  for (std::size_t i = 0; i < kChunks; ++i) {
    buffer.push(stream.next());
    if (buffer.window_ready()) {
      const data::Dataset w = buffer.take_window();
      windows += w.size() > 0 ? 1 : 0;
    }
  }
  const double ingest_s = ingest_watch.elapsed_seconds();
  const double streamed = static_cast<double>(stream.emitted());
  const double samples_per_s = ingest_s > 0.0 ? streamed / ingest_s : 0.0;

  // Decision log: one append = serialize + write + flush (the crash-safety
  // contract), measured on a real file.
  const std::string log_path = "bench_overhead_decisions.jsonl";
  constexpr std::size_t kAppends = 2000;
  double append_us = 0.0;
  {
    pipeline::DecisionLog log(log_path);
    pipeline::Decision d;
    d.action = pipeline::Action::kHold;
    d.technique = "Base";
    d.reason = "bench: representative hold record";
    obs::Stopwatch append_watch;
    for (std::size_t i = 0; i < kAppends; ++i) {
      d.round = i;
      log.append(d);
    }
    append_us = append_watch.elapsed_seconds() * 1e6 /
                static_cast<double>(kAppends);
  }
  std::remove(log_path.c_str());

  AsciiTable table({"pipeline stage", "throughput / latency"});
  table.add_row({"stream -> ingest -> window",
                 fixed(samples_per_s / 1e6, 2) + "M samples/s"});
  table.add_row({"decision-log append (flushed)",
                 fixed(append_us, 1) + " us/record"});
  std::cout << "\nonline pipeline plumbing (" << streamed << " samples, "
            << windows << " windows, " << kAppends << " decisions):\n"
            << table.render();

  json.add("pipeline.ingest_samples_per_s", samples_per_s);
  json.add("pipeline.decision_append_us", append_us);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace tdfm;
  using namespace tdfm::bench;

  CliParser cli;
  cli.add_flag("model", "ConvNet", "model under test");
  cli.add_flag("verbose", "false", "also print the AD-definition ablation");
  cli.add_flag("thread-sweep", "false",
               "also time training at 1..N threads and print the speedup table");
  cli.add_flag("obs-overhead", "true",
               "measure the obs instrumentation's own cost (disabled and enabled)");
  cli.add_flag("pipeline-overhead", "true",
               "time the online pipeline's stream/ingest and decision-log paths");
  BenchSettings s;
  if (!parse_bench_flags(argc, argv, cli, s, /*trials=*/1, /*epochs=*/8,
                         /*scale=*/0.4, /*width=*/8)) {
    return 0;
  }
  print_banner("E8: runtime overhead of the TDFM techniques (§IV-E)", s);

  // The Fig. 3 grid narrowed to one panel at 30% mislabelling.
  const auto model = models::arch_from_name(cli.get_string("model"));
  study::StudySpec spec = preset_with_settings("fig3-mislabelling", s);
  spec.models = {model};
  spec.fault_levels = {
      {faults::FaultSpec{faults::FaultType::kMislabelling, 30.0}}};

  obs::Stopwatch watch;
  const auto result = study::run_campaign(spec, campaign_run_options(s));
  const auto summary = study::summarize_campaign(result.records);
  study::ReportOptions with_timings;
  with_timings.include_timings = true;
  std::cout << "overheads — GTSRB-sim / " << models::arch_name(model)
            << " / 30% mislabelling\n"
            << study::render_ascii(summary, with_timings);

  // Each technique's cost relative to the unprotected baseline (§IV-E);
  // Base leads the preset's technique axis.
  const study::GroupStats& base = summary.groups.front();
  const auto ratio = [](double x, double to) {
    return fixed(to > 0.0 ? x / to : 0.0, 2) + "x";
  };
  AsciiTable overhead({"technique", "train overhead", "infer overhead"});
  for (const study::GroupStats& g : summary.groups) {
    overhead.add_row({g.technique,
                      ratio(g.train_seconds.mean, base.train_seconds.mean),
                      ratio(g.infer_seconds.mean, base.infer_seconds.mean)});
  }
  std::cout << "## Overhead relative to Base\n" << overhead.render();

  if (cli.get_bool("verbose")) {
    std::cout << "\nAD-definition ablation (per §III-C AD avoids double-"
                 "counting; naive drop conflates golden mistakes):\n";
    AsciiTable ab({"technique", "AD", "reverse AD", "naive accuracy drop"});
    for (const study::GroupStats& g : summary.groups) {
      ab.add_row({g.technique, percent(g.ad.mean), percent(g.reverse_ad.mean),
                  percent(g.naive_drop.mean)});
    }
    std::cout << ab.render();
  }
  if (cli.get_bool("thread-sweep")) print_thread_sweep(s, model);

  BenchJson json("overhead", s);
  add_campaign_headlines(json, summary);
  for (const study::GroupStats& g : summary.groups) {
    json.add(g.technique + ".train_seconds", g.train_seconds.mean);
    json.add(g.technique + ".infer_seconds", g.infer_seconds.mean);
  }
  if (cli.get_bool("obs-overhead")) print_obs_overhead(s, model, json);
  if (cli.get_bool("pipeline-overhead")) print_pipeline_overhead(s, json);

  std::cout << "\npaper reference: inference 1x everywhere except Ens (5x); "
               "training LS ~1x, KD ~1.5x, LC high, Ens highest.\n";
  std::cout << "elapsed: " << fixed(watch.elapsed_seconds(), 1) << "s\n";
  json.add("elapsed_seconds", watch.elapsed_seconds());
  json.emit(s);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
