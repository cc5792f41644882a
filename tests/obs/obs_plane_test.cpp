// The cross-process observability plane's in-process halves: snapshot
// serialisation, order-independent aggregation, histogram quantiles, trace
// parse/merge, and the crash flight recorder (src/obs/{snapshot, exporter,
// trace, flight_recorder}).  The process-level half — 3 real shard workers
// exporting snapshots, a merged trace spanning all shards, crash dumps from
// a signalled worker — runs as the study_shard_smoke ctest.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "obs/obs.hpp"

namespace tdfm::obs {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "tdfm_obs_plane_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  ASSERT_TRUE(out.good()) << path;
  out << text;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

MetricSample counter(const std::string& name, std::uint64_t v) {
  MetricSample s;
  s.kind = MetricSample::Kind::kCounter;
  s.name = name;
  s.count = v;
  return s;
}

MetricSample gauge(const std::string& name, double v) {
  MetricSample s;
  s.kind = MetricSample::Kind::kGauge;
  s.name = name;
  s.value = v;
  return s;
}

MetricSample hist(const std::string& name, std::vector<double> bounds,
                  std::vector<std::uint64_t> counts, double sum) {
  MetricSample s;
  s.kind = MetricSample::Kind::kHistogram;
  s.name = name;
  s.upper_bounds = std::move(bounds);
  s.bucket_counts = std::move(counts);
  s.value = sum;
  for (const std::uint64_t c : s.bucket_counts) s.count += c;
  return s;
}

/// A synthetic shard snapshot with one of each metric kind.
MetricsSnapshot shard_snapshot(std::size_t shard, std::uint64_t seq,
                               std::int64_t wall_us) {
  MetricsSnapshot snap;
  snap.meta.pid = 1000 + static_cast<std::int64_t>(shard);
  snap.meta.shard_index = shard;
  snap.meta.shard_count = 3;
  snap.meta.seq = seq;
  snap.meta.wall_us = wall_us;
  snap.meta.label = "shard " + std::to_string(shard) + "/3";
  snap.meta.grid_cells = 6;
  snap.meta.cells_done = shard + 1;
  snap.meta.cells_executed = shard + 1;
  snap.meta.elapsed_seconds = 0.5 * static_cast<double>(shard + 1);
  snap.samples.push_back(counter("study.cells.executed", shard + 1));
  snap.samples.push_back(gauge("mem.rss_mb", 100.0 + static_cast<double>(shard)));
  snap.samples.push_back(
      hist("fit.seconds", {1.0, 2.0}, {shard, 1, shard * 2}, 1.5));
  return snap;
}

std::string samples_fingerprint(const Aggregator& agg) {
  MetricsSnapshot s;
  s.samples = agg.samples();
  return serialize_snapshot(s);
}

TEST(SnapshotFormat, SerializeParseRoundTrip) {
  MetricsSnapshot snap = shard_snapshot(1, 7, 123456789);
  snap.meta.label = "needs \"escaping\"\n";
  snap.meta.cells_stolen = 2;
  const std::string text = serialize_snapshot(snap);
  const MetricsSnapshot back = parse_snapshot(text);
  EXPECT_EQ(back.meta.pid, snap.meta.pid);
  EXPECT_EQ(back.meta.shard_index, 1u);
  EXPECT_EQ(back.meta.shard_count, 3u);
  EXPECT_EQ(back.meta.seq, 7u);
  EXPECT_EQ(back.meta.wall_us, 123456789);
  EXPECT_EQ(back.meta.label, snap.meta.label);
  EXPECT_EQ(back.meta.grid_cells, 6u);
  EXPECT_EQ(back.meta.cells_stolen, 2u);
  EXPECT_DOUBLE_EQ(back.meta.elapsed_seconds, 1.0);
  ASSERT_EQ(back.samples.size(), 3u);
  EXPECT_EQ(back.samples[0].name, "study.cells.executed");
  EXPECT_EQ(back.samples[0].count, 2u);
  EXPECT_EQ(back.samples[1].kind, MetricSample::Kind::kGauge);
  EXPECT_DOUBLE_EQ(back.samples[1].value, 101.0);
  EXPECT_EQ(back.samples[2].kind, MetricSample::Kind::kHistogram);
  EXPECT_EQ(back.samples[2].upper_bounds, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(back.samples[2].bucket_counts,
            (std::vector<std::uint64_t>{1, 1, 2}));
  // Serialisation is stable: re-serialising the parse reproduces the bytes.
  EXPECT_EQ(serialize_snapshot(back), text);
}

TEST(SnapshotFormat, RejectsBadInput) {
  EXPECT_THROW((void)parse_snapshot(""), ConfigError);
  EXPECT_THROW((void)parse_snapshot("{\"type\":\"counter\",\"name\":\"x\","
                                    "\"value\":1}\n"),
               ConfigError);  // no header
  EXPECT_THROW(
      (void)parse_snapshot("{\"type\":\"snapshot\",\"schema_version\":99}\n"),
      ConfigError);  // future schema
  const std::string header =
      "{\"type\":\"snapshot\",\"schema_version\":1,\"pid\":1}\n";
  EXPECT_THROW((void)parse_snapshot(header + "{\"type\":\"counter\","
                                             "\"value\":1}\n"),
               ConfigError);  // nameless metric
  EXPECT_THROW((void)parse_snapshot(header + "{\"type\":\"widget\","
                                             "\"name\":\"x\"}\n"),
               ConfigError);  // unknown kind
  EXPECT_THROW(
      (void)parse_snapshot(header +
                           "{\"type\":\"histogram\",\"name\":\"h\",\"count\":1,"
                           "\"sum\":1,\"upper_bounds\":[1.0],"
                           "\"bucket_counts\":[1]}\n"),
      ConfigError);  // bucket/bounds arity
  EXPECT_THROW((void)parse_snapshot("{\"type\":\"snapshot\""), ConfigError);
}

// A gauge may hold any double (Gauge::set); reading a negative one back
// must not pass it through an integer conversion.
TEST(SnapshotFormat, NegativeGaugeRoundTrips) {
  MetricsSnapshot snap = shard_snapshot(0, 1, 5);
  snap.samples[1].value = -2.5;
  const std::string text = serialize_snapshot(snap);
  const MetricsSnapshot back = parse_snapshot(text);
  ASSERT_EQ(back.samples.size(), 3u);
  EXPECT_EQ(back.samples[1].kind, MetricSample::Kind::kGauge);
  EXPECT_EQ(back.samples[1].value, -2.5);
  EXPECT_EQ(serialize_snapshot(back), text);
}

TEST(SnapshotFormat, OutOfRangeIntegerIsANamedError) {
  const std::string header =
      "{\"type\":\"snapshot\",\"schema_version\":1,\"pid\":1}\n";
  for (const char* line :
       {"{\"type\":\"counter\",\"name\":\"c\",\"value\":-1}\n",
        "{\"type\":\"histogram\",\"name\":\"h\",\"count\":1,\"sum\":1,"
        "\"upper_bounds\":[1.0],\"bucket_counts\":[1,1e300]}\n"}) {
    try {
      (void)parse_snapshot(header + line);
      ADD_FAILURE() << "expected ConfigError for " << line;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("out of its integer range"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)parse_snapshot(
                   "{\"type\":\"snapshot\",\"schema_version\":1,"
                   "\"seq\":1e300}\n"),
               ConfigError);
}

TEST(Aggregator, CountersSumAndOrderDoesNotMatter) {
  const MetricsSnapshot a = shard_snapshot(0, 1, 10);
  const MetricsSnapshot b = shard_snapshot(1, 1, 20);
  const MetricsSnapshot c = shard_snapshot(2, 1, 30);

  Aggregator fwd;
  fwd.add(a);
  fwd.add(b);
  fwd.add(c);
  Aggregator rev;
  rev.add(c);
  rev.add(b);
  rev.add(a);
  EXPECT_EQ(samples_fingerprint(fwd), samples_fingerprint(rev));

  // merge() is associative: (A+B)+C == A+(B+C).
  Aggregator ab;
  ab.add(a);
  ab.add(b);
  Aggregator c_only;
  c_only.add(c);
  ab.merge(c_only);
  Aggregator bc;
  bc.add(b);
  bc.add(c);
  Aggregator a_then_bc;
  a_then_bc.add(a);
  a_then_bc.merge(bc);
  EXPECT_EQ(samples_fingerprint(ab), samples_fingerprint(a_then_bc));
  EXPECT_EQ(samples_fingerprint(ab), samples_fingerprint(fwd));

  const std::vector<MetricSample> samples = fwd.samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "fit.seconds");
  EXPECT_EQ(samples[0].bucket_counts, (std::vector<std::uint64_t>{3, 3, 6}));
  EXPECT_DOUBLE_EQ(samples[0].value, 4.5);
  EXPECT_EQ(samples[1].name, "mem.rss_mb");
  EXPECT_EQ(samples[2].name, "study.cells.executed");
  EXPECT_EQ(samples[2].count, 6u);  // 1 + 2 + 3
}

TEST(Aggregator, GaugeNewestSnapshotWins) {
  MetricsSnapshot old_snap = shard_snapshot(0, 5, 100);
  old_snap.samples = {gauge("g", 1.0)};
  MetricsSnapshot new_snap = shard_snapshot(1, 1, 200);
  new_snap.samples = {gauge("g", 2.0)};
  for (const bool new_first : {false, true}) {
    Aggregator agg;
    agg.add(new_first ? new_snap : old_snap);
    agg.add(new_first ? old_snap : new_snap);
    const std::vector<MetricSample> samples = agg.samples();
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_DOUBLE_EQ(samples[0].value, 2.0) << "new_first=" << new_first;
  }
}

TEST(Aggregator, MismatchedHistogramBoundsAreASchemaConflict) {
  MetricsSnapshot a = shard_snapshot(0, 1, 10);
  a.samples = {hist("h", {1.0, 2.0}, {1, 1, 1}, 3.0)};
  MetricsSnapshot b = shard_snapshot(1, 1, 20);
  b.samples = {hist("h", {1.0, 4.0}, {1, 1, 1}, 3.0)};
  Aggregator agg;
  agg.add(a);
  EXPECT_THROW(agg.add(b), ConfigError);
}

TEST(Aggregator, LatestPerShardPicksNewestHeader) {
  Aggregator agg;
  agg.add(shard_snapshot(0, 1, 10));
  agg.add(shard_snapshot(1, 3, 40));
  MetricsSnapshot newer0 = shard_snapshot(0, 2, 30);
  newer0.meta.cells_done = 5;
  newer0.samples.clear();
  agg.add(newer0);
  const std::vector<SnapshotMeta> latest = agg.latest_per_shard();
  ASSERT_EQ(latest.size(), 2u);
  EXPECT_EQ(latest[0].shard_index, 0u);
  EXPECT_EQ(latest[0].cells_done, 5u);  // wall_us 30 beats 10
  EXPECT_EQ(latest[1].shard_index, 1u);
  EXPECT_EQ(latest[1].seq, 3u);
}

TEST(SnapshotDir, AtomicWriteThenScan) {
  const std::string dir = temp_dir("scan");
  const MetricsSnapshot a = shard_snapshot(0, 1, 10);
  const MetricsSnapshot b = shard_snapshot(1, 1, 20);
  write_snapshot_atomic(snapshot_path(dir, a.meta.pid), a);
  write_snapshot_atomic(snapshot_path(dir, b.meta.pid), b);
  const SnapshotScan scan = read_snapshot_dir(dir);
  EXPECT_EQ(scan.skipped, 0u);
  ASSERT_EQ(scan.snapshots.size(), 2u);
  EXPECT_EQ(scan.snapshots[0].meta.pid, 1000);
  EXPECT_EQ(scan.snapshots[1].meta.pid, 1001);
}

TEST(SnapshotDir, TornAndForeignFilesAreSkippedNotFatal) {
  const std::string dir = temp_dir("torn");
  write_snapshot_atomic(snapshot_path(dir, 42), shard_snapshot(0, 1, 10));
  // A SIGKILL mid-write leaves a torn half-line; a crashed rename leaves the
  // .tmp; both must cost one file, never the scan.
  write_file(dir + "/metrics-43.jsonl", "{\"type\":\"snapsh");
  write_file(snapshot_path(dir, 44) + ".tmp", "ignored: wrong suffix");
  write_file(dir + "/crash-45.json", "{\"type\":\"crash\"}");  // not metrics-*
  const SnapshotScan scan = read_snapshot_dir(dir);
  EXPECT_EQ(scan.skipped, 1u);  // only the torn metrics-43.jsonl
  ASSERT_EQ(scan.snapshots.size(), 1u);
  EXPECT_EQ(scan.snapshots[0].meta.pid, 1000);
  // A directory that does not exist yet reads as empty.
  const SnapshotScan none = read_snapshot_dir(dir + "/nope");
  EXPECT_TRUE(none.snapshots.empty());
  EXPECT_EQ(none.skipped, 0u);
}

TEST(HistogramQuantile, InterpolatesAndSaturates) {
  const std::vector<double> bounds{10.0, 20.0, 40.0};
  // 10 obs <= 10, 10 in (10,20], none in (20,40], none above.  The counts
  // are built from a volatile source on purpose: gcc 12 with AVX-512
  // (-march=native on this class of host) materializes the *constant*
  // vector {10,10,0,0} as broadcast(10) == {10,10,10,10} — a compiler bug
  // in equal-prefix/zero-tail constant stores, observed here and verified
  // against the (correct) disassembly of histogram_quantile itself.  A
  // volatile read keeps the initializer out of the constant pool.
  volatile std::uint64_t ten = 10;
  const std::vector<std::uint64_t> counts{ten, ten, 0, 0};
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.75), 15.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 1.0), 20.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.0), 0.0);
  // Mass in the +inf bucket saturates to the last finite bound.
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, {0, 0, 0, 5}, 0.99), 40.0);
  // Degenerate inputs.
  EXPECT_DOUBLE_EQ(histogram_quantile({}, {}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, {0, 0, 0, 0}, 0.5), 0.0);
  MetricSample s = hist("h", bounds, counts, 0.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(s, 0.75), 15.0);
  s.kind = MetricSample::Kind::kCounter;
  EXPECT_THROW((void)histogram_quantile(s, 0.5), InvariantError);
}

TEST(Exporter, WritesSnapshotsAndFinalizesOnStop) {
  const std::string dir = temp_dir("exporter");
  Counter ticks = Registry::global().counter("test.exporter.ticks");
  SnapshotExporter exporter;
  ExporterOptions opts;
  opts.dir = dir;
  opts.shard_index = 2;
  opts.shard_count = 3;
  opts.label = "shard 2/3";
  opts.interval_ms = 5;
  opts.fill_meta = [](SnapshotMeta& meta) {
    meta.grid_cells = 9;
    meta.cells_done = 4;
  };
  exporter.start(std::move(opts));
  EXPECT_TRUE(exporter.running());
  EXPECT_TRUE(metrics_enabled());  // start() arms the registry
  ticks.add(3);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  exporter.stop();
  EXPECT_FALSE(exporter.running());

  const SnapshotScan scan = read_snapshot_dir(dir);
  ASSERT_EQ(scan.snapshots.size(), 1u);  // one file per process, replaced
  const MetricsSnapshot& snap = scan.snapshots[0];
  EXPECT_EQ(snap.meta.shard_index, 2u);
  EXPECT_EQ(snap.meta.label, "shard 2/3");
  EXPECT_EQ(snap.meta.grid_cells, 9u);
  EXPECT_EQ(snap.meta.cells_done, 4u);
  EXPECT_GE(snap.meta.seq, 2u);  // ticked at least once + final export
  const auto it = std::find_if(
      snap.samples.begin(), snap.samples.end(),
      [](const MetricSample& s) { return s.name == "test.exporter.ticks"; });
  ASSERT_NE(it, snap.samples.end());
  EXPECT_EQ(it->count, 3u);
}

TEST(FlightRecorder, DumpIsValidJsonAndNamesInFlightCell) {
  const std::string dir = temp_dir("flight");
  flight::set_enabled(true);
  flight::record(flight::EventKind::kCellBegin, "cell-finished");
  flight::record(flight::EventKind::kCellEnd, "cell-finished");
  flight::record(flight::EventKind::kStealClaim, "cell-stuck");
  flight::record(flight::EventKind::kCellBegin, "cell-stuck");
  flight::record(flight::EventKind::kJournalAppend, "weird \"detail\"\\chars");
  // Another thread's ring must appear as its own entry; join before dumping
  // (dump_now requires quiesced writers).
  std::thread other([] {
    flight::record(flight::EventKind::kSpanBegin, "other-thread-span");
  });
  other.join();
  const std::string path = dir + "/crash-test.json";
  ASSERT_TRUE(flight::dump_now(path, 0));
  flight::set_enabled(false);

  const std::string dump = read_file(path);
  EXPECT_TRUE(json_valid(dump)) << dump;
  EXPECT_NE(dump.find("\"type\":\"crash\""), std::string::npos);
  EXPECT_NE(dump.find("\"signal_name\":\"none\""), std::string::npos);
  // The last cell_begin without a matching cell_end is the in-flight work.
  EXPECT_NE(dump.find("\"in_flight_cell\":\"cell-stuck\""), std::string::npos);
  EXPECT_NE(dump.find("\"kind\":\"steal_claim\""), std::string::npos);
  EXPECT_NE(dump.find("other-thread-span"), std::string::npos);
  // Details were sanitised at record() time: no quote/backslash survives.
  EXPECT_NE(dump.find("weird .detail..chars"), std::string::npos);
}

TEST(FlightRecorder, DisabledRecordIsANoOp) {
  flight::set_enabled(false);
  flight::record(flight::EventKind::kCellBegin, "ignored");
  const std::string dir = temp_dir("flight_off");
  const std::string path = dir + "/dump.json";
  ASSERT_TRUE(flight::dump_now(path, 0));
  const std::string dump = read_file(path);
  EXPECT_TRUE(json_valid(dump)) << dump;
  EXPECT_EQ(dump.find("\"detail\":\"ignored\""), std::string::npos);
}

TEST(TraceMerge, ThreeShardsFuseIntoOneOrderedTimeline) {
  const std::string dir = temp_dir("trace");
  // Three per-shard trace files in the writer's one-event-per-line format;
  // shard 1's file ends in a torn line (killed mid-write).
  write_file(dir + "/s0.trace.json",
             "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
             "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":101,\"tid\":0,"
             "\"args\":{\"name\":\"shard 0/3\"}},\n"
             "{\"name\":\"cell:a\",\"cat\":\"tdfm\",\"ph\":\"X\",\"pid\":101,"
             "\"tid\":0,\"ts\":50,\"dur\":10},\n"
             "{\"name\":\"cell:b\",\"cat\":\"tdfm\",\"ph\":\"X\",\"pid\":101,"
             "\"tid\":1,\"ts\":20,\"dur\":5}\n"
             "]}\n");
  write_file(dir + "/s1.trace.json",
             "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
             "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":102,\"tid\":0,"
             "\"args\":{\"name\":\"shard 1/3\"}},\n"
             "{\"name\":\"cell:c\",\"cat\":\"tdfm\",\"ph\":\"X\",\"pid\":102,"
             "\"tid\":0,\"ts\":10,\"dur\":3},\n"
             "{\"name\":\"cell:d\",\"cat\":\"tdfm\",\"ph\":\"X\",\"pi");
  write_file(dir + "/s2.trace.json",
             "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
             "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":103,\"tid\":0,"
             "\"args\":{\"name\":\"shard 2/3\"}},\n"
             "{\"name\":\"cell:e\",\"cat\":\"tdfm\",\"ph\":\"X\",\"pid\":103,"
             "\"tid\":0,\"ts\":30,\"dur\":1}\n"
             "]}\n");

  const std::string out = dir + "/merged.trace.json";
  const TraceMergeResult res = merge_chrome_traces(
      {dir + "/s0.trace.json", dir + "/s1.trace.json", dir + "/s2.trace.json",
       dir + "/missing.trace.json"},
      out);
  EXPECT_EQ(res.inputs, 3u);
  EXPECT_EQ(res.missing, 1u);
  EXPECT_EQ(res.skipped_lines, 1u);  // shard 1's torn tail
  EXPECT_EQ(res.events, 7u);         // 3 metadata + 4 complete spans

  const std::string merged = read_file(out);
  EXPECT_TRUE(json_valid(merged)) << merged;
  const TraceParse parse = parse_chrome_trace(merged);
  EXPECT_EQ(parse.skipped_lines, 0u);
  ASSERT_EQ(parse.events.size(), 7u);
  // Metadata first (by pid), then spans by (ts, pid, tid, name).
  EXPECT_EQ(parse.events[0].ph, "M");
  EXPECT_EQ(parse.events[0].pid, 101);
  EXPECT_EQ(parse.events[0].arg_name, "shard 0/3");
  EXPECT_EQ(parse.events[2].arg_name, "shard 2/3");
  EXPECT_EQ(parse.events[3].name, "cell:c");
  EXPECT_EQ(parse.events[4].name, "cell:b");
  EXPECT_EQ(parse.events[5].name, "cell:e");
  EXPECT_EQ(parse.events[6].name, "cell:a");
  // The merged timeline spans all three shard pids.
  std::vector<std::int64_t> pids;
  for (const ChromeTraceEvent& e : parse.events) {
    if (e.ph == "X") pids.push_back(e.pid);
  }
  std::sort(pids.begin(), pids.end());
  pids.erase(std::unique(pids.begin(), pids.end()), pids.end());
  EXPECT_EQ(pids, (std::vector<std::int64_t>{101, 102, 103}));
  // Merging is idempotent: merging the merged file with nothing new keeps
  // the same event set.
  const TraceMergeResult again = merge_chrome_traces({out}, dir + "/again.json");
  EXPECT_EQ(again.events, res.events);
  EXPECT_EQ(read_file(dir + "/again.json"), merged);
}

TEST(TraceMerge, OutOfRangeIntegerCountsAsOneSkippedLine) {
  const TraceParse parse = parse_chrome_trace(
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"a\",\"cat\":\"tdfm\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":0,\"ts\":1e300,\"dur\":1},\n"
      "{\"name\":\"b\",\"cat\":\"tdfm\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":0,\"ts\":2,\"dur\":1}\n"
      "]}\n");
  EXPECT_EQ(parse.skipped_lines, 1u);
  ASSERT_EQ(parse.events.size(), 1u);
  EXPECT_EQ(parse.events[0].name, "b");
}

TEST(TraceMerge, RealWriterOutputRoundTrips) {
  const std::string dir = temp_dir("trace_writer");
  clear_trace_events();
  set_trace_enabled(true);
  set_trace_process(7777, "shard 0/1");
  {
    Span outer("outer");
    Span inner("inner");
  }
  set_trace_enabled(false);
  const std::string path = dir + "/own.trace.json";
  write_chrome_trace(path);
  clear_trace_events();
  set_trace_process(0, "");  // restore default identity for later tests

  const std::string text = read_file(path);
  EXPECT_TRUE(json_valid(text)) << text;
  const TraceParse parse = parse_chrome_trace(text);
  EXPECT_EQ(parse.skipped_lines, 0u);
  ASSERT_GE(parse.events.size(), 3u);
  EXPECT_EQ(parse.events[0].ph, "M");
  EXPECT_EQ(parse.events[0].pid, 7777);
  EXPECT_EQ(parse.events[0].arg_name, "shard 0/1");
  bool saw_outer = false;
  bool saw_inner = false;
  for (const ChromeTraceEvent& e : parse.events) {
    if (e.ph != "X") continue;
    EXPECT_EQ(e.pid, 7777);
    saw_outer |= e.name == "outer";
    saw_inner |= e.name == "inner";
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
}

}  // namespace
}  // namespace tdfm::obs
