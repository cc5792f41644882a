// campaign: the quant-ad grid run in-process through study::run_campaign.
//
// GTSRB-sim; ConvNet and MobileNet; no fault and mislabelling@30%; Base,
// LS, RL and Ens; q8_0 measurement on; 2 trials (32 cells), 1 epoch,
// dataset scale 0.15, 2 scheduler jobs, pool pinned to 1 thread.  The
// campaign is repeated until the window is spent (at least three times);
// each repetition has fresh golden and shared-fit caches, while the dataset
// comes from the DatasetCache prefetch that set-up times.
//
//   operation        one grid cell
//   work_per_s       cells / the wall time of the fastest repetition
//   latency_p50_ms   the lowest median cell time of any repetition; a
//                    cell's time is the gap between consecutive
//                    completions on one scheduler worker (the first from the
//                    campaign start), since workers pull cells back to back
//   slo_met_share    cells recorded exactly once, with finite ADs, in a
//                    repetition whose report digest matches the first one,
//                    and done within kCellLimitS
#include <cmath>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "data/synthetic.hpp"
#include "faults/fault_injector.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "study/analyzer.hpp"
#include "study/dataset_cache.hpp"
#include "study/presets.hpp"
#include "study/runner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace tdfm;

constexpr std::size_t kJobs = 2;
constexpr std::size_t kSetupReps = 11;  ///< before and again after
constexpr std::size_t kMinReps = 3;
/// Fixed per-cell time limit of slo_met_share.
constexpr double kCellLimitS = 2.0;

study::StudySpec campaign_spec(const Options& opts) {
  study::StudySpec spec = study::preset_spec("quant-ad");
  spec.name = "perfbench-campaign";
  spec.trials = 2;
  spec.scale = 0.15;
  spec.train_opts.epochs = 1;
  spec.train_opts.threads = 1;
  spec.seed = opts.seed;
  if (opts.tiny) {
    spec.models = {models::Arch::kConvNet};
    spec.techniques = {mitigation::TechniqueKind::kBaseline,
                       mitigation::TechniqueKind::kEnsemble};
    spec.hyperparams.ens_members = {models::Arch::kConvNet};
    spec.trials = 1;
    spec.scale = 0.1;
  }
  return spec;
}

/// One campaign repetition and what the checks and metrics need from it.
struct Rep {
  study::CampaignResult result;
  double wall_s = 0.0;
  std::map<std::string, double> cell_s;  ///< cell id -> cell time
  double idle_s = 0.0;                   ///< summed worker idle time
  std::set<std::string> bad;             ///< cells failing a check
  std::string report;                    ///< digest of the timing-free report
};

Rep run_rep(const study::StudySpec& spec, const std::vector<std::string>& ids) {
  struct Done {
    std::thread::id worker;
    Clock::time_point at;
    std::string cell;
  };
  std::mutex mu;
  std::vector<Done> done;
  study::RunOptions run;
  run.jobs = kJobs;
  run.on_cell = [&](const study::CellRecord& r) {
    const auto at = Clock::now();
    const std::lock_guard<std::mutex> lock(mu);
    done.push_back({std::this_thread::get_id(), at, r.cell});
  };

  Rep rep;
  const auto t0 = Clock::now();
  rep.result = study::run_campaign(spec, run);
  const auto t1 = Clock::now();
  rep.wall_s = std::chrono::duration<double>(t1 - t0).count();

  std::map<std::thread::id, std::vector<const Done*>> by_worker;
  for (const Done& d : done) by_worker[d.worker].push_back(&d);
  for (auto& [worker, cells] : by_worker) {
    std::sort(cells.begin(), cells.end(),
              [](const Done* a, const Done* b) { return a->at < b->at; });
    Clock::time_point prev = t0;
    for (const Done* d : cells) {
      rep.cell_s[d->cell] = std::chrono::duration<double>(d->at - prev).count();
      prev = d->at;
    }
    rep.idle_s += std::chrono::duration<double>(t1 - prev).count();
  }
  if (by_worker.size() < kJobs) {
    rep.idle_s += static_cast<double>(kJobs - by_worker.size()) * rep.wall_s;
  }

  // Every grid cell recorded exactly once, in expansion order, finite ADs.
  std::map<std::string, int> seen;
  for (const Done& d : done) ++seen[d.cell];
  for (const std::string& id : ids) {
    if (seen[id] != 1) rep.bad.insert(id);
  }
  if (rep.result.records.size() != ids.size()) {
    rep.bad.insert(ids.begin(), ids.end());
  }
  for (std::size_t i = 0; i < rep.result.records.size(); ++i) {
    const study::CellRecord& r = rep.result.records[i];
    const bool finite = std::isfinite(r.ad) && std::isfinite(r.reverse_ad) &&
                        std::isfinite(r.naive_drop) && std::isfinite(r.quantized_ad);
    if (i >= ids.size() || r.cell != ids[i] || !finite) rep.bad.insert(r.cell);
  }
  rep.report = digest(study::render_ascii(study::summarize_campaign(rep.result.records)));
  return rep;
}

/// Folds the repetitions' checks into `out` and returns the cells that met
/// the limit.
std::size_t account(const std::vector<Rep>& reps, std::size_t cells, Result& out) {
  std::size_t met = 0;
  for (const Rep& rep : reps) {
    out.attempted += cells;
    if (rep.report != reps.front().report) {
      out.fail("report digest " + rep.report + " differs from " + reps.front().report);
      out.failed += cells;
      continue;
    }
    if (!rep.bad.empty()) {
      out.fail(std::to_string(rep.bad.size()) + " cells missing, repeated or non-finite");
    }
    out.failed += rep.bad.size();
    for (const auto& [id, s] : rep.cell_s) {
      if (!rep.bad.count(id) && s <= kCellLimitS) ++met;
    }
  }
  note("campaign report digest " + reps.front().report + " over " +
       std::to_string(reps.size()) + " repetitions");
  return met;
}

/// Median of `field` over the records of `technique` (every record when
/// empty); 0 when there is none.
double median_by(const std::vector<study::CellRecord>& records,
                 const std::string& technique, double study::CellRecord::*field) {
  std::vector<double> xs;
  for (const study::CellRecord& r : records) {
    if (technique.empty() || r.technique == technique) xs.push_back(r.*field);
  }
  return xs.empty() ? 0.0 : median(std::move(xs));
}

void trace_run(const Options& opts, const study::StudySpec& spec,
               const std::vector<std::string>& ids, const data::TrainTestPair& data,
               Result& out) {
  std::mutex mu;
  std::map<std::string, std::vector<double>> epoch_s;
  obs::set_epoch_observer([&](const obs::EpochRecord& e) {
    const std::lock_guard<std::mutex> lock(mu);
    epoch_s[e.net].push_back(e.wall_seconds);
  });
  const Rep plain = run_rep(spec, ids);
  obs::set_epoch_observer({});

  obs::clear_trace_events();
  obs::set_trace_enabled(true);
  const Rep traced = run_rep(spec, ids);
  obs::set_trace_enabled(false);
  // The overhead compares against a later untraced repetition: the first one
  // in a process also pays for cold allocator and cache state.
  const Rep again = run_rep(spec, ids);
  account({plain, traced, again}, ids.size(), out);

  const data::SyntheticSpec dspec = study::dataset_spec_for(spec, spec.datasets.front());
  out.add("data.generate_ms",
          1e3 * median_time(3, [&] { (void)data::generate(dspec); }), "ms");
  const faults::FaultSpec mislabel{faults::FaultType::kMislabelling, 30.0};
  Rng inject_rng(opts.seed);
  out.add("faults.inject_ms", 1e3 * median_time(9, [&] {
            (void)faults::inject(data.train, mislabel, inject_rng);
          }),
          "ms");

  const auto& records = plain.result.records;
  for (const char* t : {"Base", "LS", "RL", "Ens"}) {
    out.add(std::string("mitigation.fit_s.") + t,
            median_by(records, t, &study::CellRecord::train_seconds), "s");
  }
  out.add("mitigation.predict_ms",
          1e3 * median_by(records, "", &study::CellRecord::infer_seconds), "ms");
  for (const char* net : {"ConvNet", "MobileNet"}) {
    const auto it = epoch_s.find(net);
    out.add(std::string("nn.epoch_ms.") + net,
            it == epoch_s.end() ? 0.0 : 1e3 * median(it->second), "ms");
  }
  for (const char* dir : {"fwd", "bwd"}) {
    const std::string suffix = std::string(":") + dir;
    const auto ms = mean_span_ms([&](const std::string& s) { return layer_kind(s, suffix); });
    for (const std::string& kind : layer_kinds()) {
      const auto it = ms.find(kind);
      out.add("nn." + std::string(dir) + "_ms." + kind, it == ms.end() ? 0.0 : it->second,
              "ms");
    }
  }
  obs::clear_trace_events();

  probe_train_gemm(out, opts.seed, dspec.num_classes());

  const auto ratio = [](const study::CacheCounters& c) {
    const auto total = c.hits + c.misses;
    return total == 0 ? 0.0 : static_cast<double>(c.hits) / static_cast<double>(total);
  };
  out.add("study.dataset_cache_hit_ratio", ratio(plain.result.dataset_cache), "ratio");
  out.add("study.golden_cache_hit_ratio", ratio(plain.result.golden_cache), "ratio");
  out.add("study.shared_fit_cache_hit_ratio", ratio(plain.result.shared_fit_cache), "ratio");
  out.add("study.worker_idle_share",
          plain.idle_s / (static_cast<double>(kJobs) * plain.wall_s), "share");
  {
    study::Journal journal(opts.workdir + "/journal-probe.jsonl");
    std::size_t i = 0;
    out.add("study.journal_append_ms", 1e3 * median_time(21, [&] {
              journal.append(records[i++ % records.size()]);
            }),
            "ms");
  }
  out.add("obs.trace_overhead_share.campaign", (traced.wall_s - again.wall_s) / again.wall_s,
          "share");
}

}  // namespace

Result run_campaign(const Options& opts) {
  const study::StudySpec spec = campaign_spec(opts);
  std::vector<std::string> ids;
  for (const study::Cell& cell : study::expand_cells(spec)) {
    ids.push_back(study::cell_id(spec, cell));
  }
  // Scheduler workers plus the caller waiting in run_campaign.
  check_thread_budget(kJobs + 1, "campaign");
  note("campaign grid: " + std::to_string(ids.size()) + " cells, jobs " +
       std::to_string(kJobs) + ", cell limit " + std::to_string(kCellLimitS) + " s");

  // Set-up: the DatasetCache prefetch every repetition then hits.
  const data::SyntheticSpec dspec = study::dataset_spec_for(spec, spec.datasets.front());
  std::vector<double> setups;
  std::shared_ptr<const data::TrainTestPair> data;
  const auto set_up = [&] {
    for (std::size_t i = 0; i < kSetupReps; ++i) {
      study::DatasetCache::global().clear();
      const auto t0 = Clock::now();
      data = study::DatasetCache::global().get(dspec);
      setups.push_back(seconds_since(t0));
    }
  };
  set_up();
  note("inputs " + digest(std::string(reinterpret_cast<const char*>(data->train.images.data()),
                                      data->train.images.numel() * sizeof(float))));

  Result out;
  if (opts.trace) {
    trace_run(opts, spec, ids, *data, out);
    return out;
  }

  std::vector<Rep> reps;
  const auto start = Clock::now();
  while (reps.size() < kMinReps || seconds_since(start) < opts.seconds) {
    reps.push_back(run_rep(spec, ids));
  }
  // Set up again after the measurement: the median then spans the run
  // instead of one moment of the host.
  set_up();
  const std::size_t met = account(reps, ids.size(), out);
  // The fastest repetition: slow host phases only ever add time, so a
  // repetition they slowed does not set the figure.
  std::vector<double> walls;
  std::vector<double> cell_p50s;
  for (const Rep& rep : reps) {
    walls.push_back(rep.wall_s);
    std::vector<double> cell_s;
    for (const auto& [id, s] : rep.cell_s) cell_s.push_back(s);
    cell_p50s.push_back(median(std::move(cell_s)));
  }
  note_values("campaign repetition wall times (s):", walls);
  out.add("setup_s", median(setups), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("work_per_s", static_cast<double>(ids.size()) / quantile(walls, 0.0), "1/s");
  out.add("latency_p50_ms", 1e3 * quantile(cell_p50s, 0.0), "ms");
  out.add("slo_met_share", static_cast<double>(met) / static_cast<double>(out.attempted),
          "share");
  return out;
}

}  // namespace perfbench
