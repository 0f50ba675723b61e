// Tests for the observability layer: JSON round-trips, the metrics
// registry under concurrent writers, the driver's space samples and the
// space args its pass and list spans carry, and JSONL manifest files.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/one_pass_triangle.h"
#include "core/two_pass_triangle.h"
#include "gen/erdos_renyi.h"
#include "graph/graph.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "runtime/trial_runner.h"
#include "stream/adjacency_stream.h"
#include "stream/driver.h"
#include "stream/fault_injection.h"
#include "stream/validator.h"
#include "json_parse.h"
#include "test_util.h"

namespace cyclestream {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------- JSON --

TEST(Json, Uint64RoundTripsExactly) {
  const std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
  obs::Json j(big);
  EXPECT_EQ(j.Dump(), "18446744073709551615");
  auto parsed = testing_util::ParseJson(j.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsUint64(), big);
  EXPECT_EQ(*parsed, j);
}

TEST(Json, NegativeIntRoundTrips) {
  obs::Json j(static_cast<std::int64_t>(-42));
  EXPECT_EQ(j.Dump(), "-42");
  auto parsed = testing_util::ParseJson("-42");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsInt64(), -42);
}

TEST(Json, DoubleRoundTripsExactly) {
  for (double v : {0.1, 1.0 / 3.0, 1e-300, 12345.6789, -2.5}) {
    obs::Json j(v);
    auto parsed = testing_util::ParseJson(j.Dump());
    ASSERT_TRUE(parsed.ok()) << j.Dump();
    EXPECT_EQ(parsed->AsDouble(), v) << j.Dump();
  }
}

TEST(Json, NestedStructureRoundTrips) {
  obs::Json rec = obs::Json::Object();
  rec.Set("name", obs::Json("bench"));
  rec.Set("seed", obs::Json(std::uint64_t{12345678901234567ULL}));
  rec.Set("ok", obs::Json(true));
  rec.Set("none", obs::Json());
  obs::Json arr = obs::Json::Array();
  arr.Push(obs::Json(1));
  arr.Push(obs::Json(2.5));
  obs::Json inner = obs::Json::Object();
  inner.Set("k", obs::Json("v\"with\\escapes\n"));
  arr.Push(std::move(inner));
  rec.Set("points", std::move(arr));

  auto parsed = testing_util::ParseJson(rec.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, rec);
  // Keys keep insertion order, so Dump is deterministic.
  EXPECT_EQ(parsed->Dump(), rec.Dump());
}

TEST(Json, ObjectSetReplacesAndFinds) {
  obs::Json o = obs::Json::Object();
  o.Set("a", obs::Json(1));
  o.Set("a", obs::Json(2));
  EXPECT_EQ(o.size(), 1u);
  ASSERT_NE(o.Find("a"), nullptr);
  EXPECT_EQ(o.Find("a")->AsUint64(), 2u);
  EXPECT_EQ(o.Find("missing"), nullptr);
}

TEST(Json, ParseRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "01", "truth", "\"unterminated",
        "{\"a\":1} trailing", "nan"}) {
    EXPECT_FALSE(testing_util::ParseJson(bad).ok()) << bad;
  }
}

TEST(Json, ParseRejectsDeepNesting) {
  std::string deep(512, '[');
  deep += std::string(512, ']');
  EXPECT_FALSE(testing_util::ParseJson(deep).ok());
}

// ------------------------------------------------------------- Metrics --

TEST(MetricsRegistry, CountsAcrossThreads) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      obs::Counter c = registry.GetCounter("test.count");
      for (int i = 0; i < kIncrements; ++i) c.Increment();
      registry.GetCounter("test.delta").Increment(5);
    });
  }
  for (auto& t : threads) t.join();
  obs::Snapshot snap = registry.Read();
  EXPECT_EQ(snap.counters.at("test.count"), kThreads * kIncrements);
  EXPECT_EQ(snap.counters.at("test.delta"), kThreads * 5u);
}

TEST(MetricsRegistry, HistogramBucketBoundaries) {
  obs::MetricsRegistry registry;
  obs::Histogram h = registry.GetHistogram("lat", {1.0, 10.0, 100.0});
  h.Observe(0.5);    // bucket le=1
  h.Observe(1.0);    // le is inclusive: bucket le=1
  h.Observe(5.0);    // bucket le=10
  h.Observe(100.0);  // bucket le=100
  h.Observe(1e6);    // overflow
  obs::Snapshot snap = registry.Read();
  const obs::HistogramSnapshot& hs = snap.histograms.at("lat");
  ASSERT_EQ(hs.bounds.size(), 3u);
  ASSERT_EQ(hs.bucket_counts.size(), 4u);
  EXPECT_EQ(hs.bucket_counts[0], 2u);
  EXPECT_EQ(hs.bucket_counts[1], 1u);
  EXPECT_EQ(hs.bucket_counts[2], 1u);
  EXPECT_EQ(hs.bucket_counts[3], 1u);
  EXPECT_EQ(hs.count, 5u);
  EXPECT_DOUBLE_EQ(hs.sum, 0.5 + 1.0 + 5.0 + 100.0 + 1e6);
}

TEST(MetricsRegistry, EmptyHistogramQuantilesAreZero) {
  obs::MetricsRegistry registry;
  registry.GetHistogram("empty", obs::Log2Bounds(0, 8));
  obs::Snapshot snap = registry.Read();
  // No Observe() ever ran: the histogram has a layout but no cells, so it
  // does not appear in the snapshot at all...
  EXPECT_EQ(snap.histograms.count("empty"), 0u);
  // ...and a default (zero-count) snapshot has well-defined quantiles.
  obs::HistogramSnapshot hs;
  hs.bounds = obs::Log2Bounds(0, 8);
  hs.bucket_counts.assign(hs.bounds.size() + 1, 0);
  EXPECT_EQ(hs.Quantile(0.50), 0.0);
  EXPECT_EQ(hs.Quantile(0.95), 0.0);
  EXPECT_EQ(hs.max, 0.0);
}

TEST(MetricsRegistry, SingleSampleHistogramQuantilesAreTheSample) {
  obs::MetricsRegistry registry;
  obs::Histogram h = registry.GetHistogram("one", obs::Log2Bounds(0, 20));
  h.Observe(100.0);  // strictly inside the le=128 bucket
  obs::Snapshot snap = registry.Read();
  const obs::HistogramSnapshot& hs = snap.histograms.at("one");
  EXPECT_EQ(hs.count, 1u);
  EXPECT_EQ(hs.max, 100.0);
  // Quantiles cap at the exact max, not the bucket bound (128).
  EXPECT_EQ(hs.Quantile(0.50), 100.0);
  EXPECT_EQ(hs.Quantile(0.95), 100.0);
  EXPECT_EQ(hs.Quantile(0.0), 100.0);
  EXPECT_EQ(hs.Quantile(1.0), 100.0);
}

TEST(MetricsRegistry, TopLog2BucketCapturesHugeValues) {
  obs::MetricsRegistry registry;
  obs::Histogram h = registry.GetHistogram("huge", obs::Log2Bounds(0, 62));
  const double two63 = std::ldexp(1.0, 63);   // 2^63: above every bound
  const double two80 = std::ldexp(1.0, 80);   // far beyond uint64 range
  h.Observe(two63);
  h.Observe(two80);
  obs::Snapshot snap = registry.Read();
  const obs::HistogramSnapshot& hs = snap.histograms.at("huge");
  ASSERT_EQ(hs.bucket_counts.size(), hs.bounds.size() + 1);
  // Both land in the overflow bucket; nothing wrapped into lower buckets.
  EXPECT_EQ(hs.bucket_counts.back(), 2u);
  for (std::size_t i = 0; i + 1 < hs.bucket_counts.size(); ++i) {
    EXPECT_EQ(hs.bucket_counts[i], 0u) << "bucket " << i;
  }
  EXPECT_EQ(hs.count, 2u);
  EXPECT_EQ(hs.max, two80);
  // Overflow-bucket quantiles resolve to the exact max.
  EXPECT_EQ(hs.Quantile(0.95), two80);
}

TEST(MetricsRegistry, GaugesLastSetWins) {
  obs::MetricsRegistry registry;
  obs::Gauge g = registry.GetGauge("band.frac");
  g.Set(0.25);
  g.Set(0.75);
  registry.GetGauge("other").Set(-1.5);
  obs::Snapshot snap = registry.Read();
  EXPECT_EQ(snap.gauges.at("band.frac"), 0.75);
  EXPECT_EQ(snap.gauges.at("other"), -1.5);
  obs::Json j = snap.ToJson();
  ASSERT_NE(j.Find("gauges"), nullptr);
  EXPECT_EQ(j.Find("gauges")->Find("band.frac")->AsDouble(), 0.75);
}

TEST(MetricsRegistry, SnapshotToJsonShape) {
  obs::MetricsRegistry registry;
  registry.GetCounter("a").Increment(3);
  registry.GetHistogram("h", {2.0}).Observe(1.0);
  obs::Json j = registry.Read().ToJson();
  ASSERT_NE(j.Find("counters"), nullptr);
  EXPECT_EQ(j.Find("counters")->Find("a")->AsUint64(), 3u);
  const obs::Json* h = j.Find("histograms")->Find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Find("count")->AsUint64(), 1u);
  // Buckets: le=2 then the null-bound overflow bucket.
  ASSERT_EQ(h->Find("buckets")->size(), 2u);
  EXPECT_TRUE(h->Find("buckets")->at(1).Find("le")->is_null());
  // The snapshot serialization itself round-trips.
  auto parsed = testing_util::ParseJson(j.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, j);
}

// --------------------------------------------- Space samples + driver --

// The driver's space samples, in order: one where each adjacency list ends,
// then one at the pass end, and none inside a list.
TEST(Driver, SamplesEveryListBoundaryAndThePassEnd) {
  Graph g = gen::ErdosRenyiGnp(150, 0.1, 4);
  stream::AdjacencyListStream s(&g, 9);
  core::OnePassTriangleOptions options;
  options.sample_size = 32;
  options.seed = 5;
  core::OnePassTriangleCounter counter(options);
  testing_util::SpaceRecorder recorder(&counter);
  stream::RunPasses(s, &recorder);
  const auto& points = recorder.points();
  ASSERT_EQ(points.size(), s.list_order().size() + 1);
  std::uint64_t pairs = 0;
  for (std::size_t i = 0; i < s.list_order().size(); ++i) {
    pairs += s.ListOf(s.list_order()[i]).size();
    EXPECT_EQ(points[i].pairs, pairs) << "list " << i;
  }
  EXPECT_EQ(points.back().pairs, s.stream_length());
}

TEST(Driver, TracedAndUntracedRunsAreBitIdentical) {
  Graph g = gen::ErdosRenyiGnp(200, 0.08, 21);
  stream::AdjacencyListStream s(&g, 13);
  auto run = [&](bool traced) {
    core::TwoPassTriangleOptions options;
    options.sample_size = 48;
    options.seed = 99;
    core::TwoPassTriangleCounter counter(options);
    obs::TraceSession session;
    obs::MetricsRegistry registry;
    obs::Profiler::Options prof_options;
    prof_options.backend = obs::ProfBackend::kRusage;
    obs::Profiler prof(prof_options);
    stream::TraceOptions trace;
    if (traced) {
      trace.spans = &session;
      trace.metrics = &registry;
      trace.prof = &prof;
    }
    const stream::RunReport report = stream::RunPasses(s, &counter, trace);
    return std::pair(counter.Estimate(), report);
  };
  const auto [plain_estimate, plain_report] = run(false);
  const auto [traced_estimate, traced_report] = run(true);
  EXPECT_EQ(plain_estimate, traced_estimate);
  testing_util::ExpectReportsEqual(traced_report, plain_report);
}

TEST(Driver, PerPassReportsSumToTotals) {
  Graph g = gen::ErdosRenyiGnp(120, 0.1, 31);
  stream::AdjacencyListStream s(&g, 5);
  core::TwoPassTriangleOptions options;
  options.sample_size = 32;
  options.seed = 3;
  core::TwoPassTriangleCounter counter(options);
  stream::RunReport report = stream::RunPasses(s, &counter);
  ASSERT_EQ(report.per_pass.size(),
            static_cast<std::size_t>(report.passes_requested));
  std::size_t pairs = 0, peak = 0;
  for (const stream::PassReport& p : report.per_pass) {
    pairs += p.pairs_processed;
    peak = std::max(peak, p.reported_peak_bytes);
  }
  EXPECT_EQ(pairs, report.pairs_processed);
  EXPECT_EQ(peak, report.reported_peak_bytes);
  // Each pass delivers the full stream.
  for (const stream::PassReport& p : report.per_pass) {
    EXPECT_EQ(p.pairs_processed, 2 * g.num_edges());
  }
}

TEST(Driver, ExportsDriverMetrics) {
  Graph g = gen::ErdosRenyiGnp(100, 0.1, 41);
  stream::AdjacencyListStream s(&g, 7);
  obs::MetricsRegistry registry;
  core::TwoPassTriangleOptions options;
  options.sample_size = 16;
  options.seed = 1;
  core::TwoPassTriangleCounter counter(options);
  stream::RunPasses(s, &counter, {.metrics = &registry});
  obs::Snapshot snap = registry.Read();
  EXPECT_EQ(snap.counters.at("driver.runs"), 1u);
  EXPECT_EQ(snap.counters.at("driver.passes"), 2u);
  EXPECT_EQ(snap.counters.at("driver.pairs_processed"), 4 * g.num_edges());
  // The trusted run checks nothing, so it exports no contract counters.
  for (const auto& [name, value] : snap.counters) {
    EXPECT_NE(name.rfind("validator.", 0), 0u) << name;
  }
}

TEST(Driver, ProfilerTimesEachPassUnderItsOwnScope) {
  Graph g = gen::ErdosRenyiGnp(100, 0.1, 71);
  stream::AdjacencyListStream s(&g, 7);
  core::TwoPassTriangleOptions options;
  options.sample_size = 16;
  options.seed = 1;
  obs::Profiler::Options prof_options;
  prof_options.backend = obs::ProfBackend::kRusage;
  // Trusted and checked runs both leave one aggregate per pass, holding
  // one scope each, and nothing else.
  for (const bool checked : {false, true}) {
    SCOPED_TRACE(checked ? "checked" : "trusted");
    core::TwoPassTriangleCounter counter(options);
    obs::Profiler prof(prof_options);
    stream::TraceOptions trace;
    trace.prof = &prof;
    if (checked) {
      stream::CheckedRunOptions checked_options;
      checked_options.trace = trace;
      ASSERT_TRUE(stream::RunPassesChecked(s, &counter, checked_options).ok());
    } else {
      stream::RunPasses(s, &counter, trace);
    }
    const auto scopes = prof.Read();
    ASSERT_EQ(scopes.size(), 2u);
    EXPECT_EQ(scopes.at("driver.pass/pass=0").count, 1u);
    EXPECT_EQ(scopes.at("driver.pass/pass=1").count, 1u);
  }
}

// ---------------------------------------------- Validator counters -----

TEST(ValidatorCounters, CleanStreamCountsWorkNoViolations) {
  Graph g = gen::ErdosRenyiGnp(80, 0.1, 51);
  stream::AdjacencyListStream s(&g, 3);
  obs::MetricsRegistry registry;
  core::TwoPassTriangleOptions options;
  options.sample_size = 16;
  options.seed = 2;
  core::TwoPassTriangleCounter counter(options);
  auto report =
      stream::RunPassesChecked(s, &counter, {.trace = {.metrics = &registry}});
  ASSERT_TRUE(report.ok());
  obs::Snapshot snap = registry.Read();
  EXPECT_EQ(snap.counters.at("validator.passes_checked"), 2u);
  EXPECT_EQ(snap.counters.at("validator.pairs_checked"), 4 * g.num_edges());
  EXPECT_EQ(snap.counters.at("validator.lists_checked"),
            2 * g.num_vertices());
  EXPECT_EQ(snap.counters.at("validator.violations_total"), 0u);
  EXPECT_GT(snap.counters.at("validator.events_checked"),
            snap.counters.at("validator.pairs_checked"));
}

TEST(ValidatorCounters, InjectedFaultIsCountedByKind) {
  Graph g = gen::ErdosRenyiGnp(80, 0.1, 61);
  stream::AdjacencyListStream base(&g, 5);
  stream::FaultInjectingStream faulty(
      &base, {stream::FaultKind::kDuplicatePair, 0, 17});
  obs::MetricsRegistry registry;
  core::OnePassTriangleOptions options;
  options.sample_size = 16;
  options.seed = 2;
  core::OnePassTriangleCounter counter(options);
  auto report = stream::RunPassesChecked(faulty, &counter,
                                         {.trace = {.metrics = &registry}});
  EXPECT_FALSE(report.ok());
  obs::Snapshot snap = registry.Read();
  EXPECT_GE(snap.counters.at("validator.violations_total"), 1u);
  EXPECT_GE(snap.counters.at("validator.violations.duplicate-pair"), 1u);
}

// ---------------------------------------------- TrialRunner timing -----

TEST(TrialRunnerTiming, TimingsDoNotPerturbResults) {
  auto fn = [](std::size_t i, std::uint64_t seed) {
    runtime::TrialResult r;
    r.estimate = static_cast<double>(seed >> 8) + static_cast<double>(i);
    r.reported_peak_bytes = static_cast<std::size_t>(seed & 0xfff);
    return r;
  };
  runtime::TrialRunner parallel(4);
  runtime::TrialRunner inline_runner(1);
  std::vector<runtime::TrialTiming> timings;
  auto with = parallel.Run(64, 42, fn, &timings);
  auto without = parallel.Run(64, 42, fn);
  auto sequential = inline_runner.Run(64, 42, fn);
  ASSERT_EQ(timings.size(), 64u);
  ASSERT_EQ(with.size(), without.size());
  for (std::size_t i = 0; i < with.size(); ++i) {
    EXPECT_EQ(with[i].estimate, without[i].estimate);
    EXPECT_EQ(with[i].estimate, sequential[i].estimate);
    EXPECT_EQ(with[i].reported_peak_bytes, sequential[i].reported_peak_bytes);
  }
  for (const runtime::TrialTiming& t : timings) {
    EXPECT_GE(t.wall_seconds, 0.0);
    EXPECT_GE(t.queue_wait_seconds, 0.0);
  }
  // Inline runs have no queue: waits are exactly zero.
  std::vector<runtime::TrialTiming> inline_timings;
  inline_runner.Run(8, 7, fn, &inline_timings);
  for (const runtime::TrialTiming& t : inline_timings) {
    EXPECT_EQ(t.queue_wait_seconds, 0.0);
  }
}

// ------------------------------------------------------- Manifests -----

TEST(ManifestWriter, WritesParseableJsonlWithTrailer) {
  const std::string path = TempPath("manifest_test.jsonl");
  {
    auto writer = obs::ManifestWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    obs::Json run = obs::MakeRecord("run");
    run.Set("bench", obs::Json("obs_test"));
    run.Set("git", obs::Json(obs::GitDescribe()));
    writer->Write(run);
    obs::Json batch = obs::MakeRecord("batch");
    batch.Set("label", obs::Json("demo"));
    batch.Set("seed", obs::Json(std::uint64_t{9876543210123456789ULL}));
    writer->Write(batch);
    obs::Json end = obs::MakeRecord("run_end");
    end.Set("records", obs::Json(writer->records_written() + 1));
    writer->Write(end);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<obs::Json> records;
  std::string line;
  while (std::getline(in, line)) {
    auto parsed = testing_util::ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    records.push_back(std::move(*parsed));
  }
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].Find("record")->AsString(), "run");
  EXPECT_EQ(records[0].Find("schema_version")->AsUint64(),
            static_cast<std::uint64_t>(obs::kManifestSchemaVersion));
  EXPECT_EQ(records[1].Find("seed")->AsUint64(), 9876543210123456789ULL);
  EXPECT_EQ(records[2].Find("record")->AsString(), "run_end");
  // The trailer's count covers every line including itself.
  EXPECT_EQ(records[2].Find("records")->AsUint64(), records.size());
}

TEST(ManifestWriter, OpenFailsOnBadPath) {
  auto writer = obs::ManifestWriter::Open("/nonexistent_dir_xyz/m.jsonl");
  EXPECT_FALSE(writer.ok());
}

// --------------------------------------------------- Chrome trace file --

TEST(TraceSession, EmitsValidChromeTraceJson) {
  obs::TraceSession session;
  session.SetProcessName("obs_test");
  {
    auto span = obs::TraceSession::Begin(&session, "outer", "bench");
    span.SetArg("trials", obs::Json(std::uint64_t{7}));
    auto inner = obs::TraceSession::Begin(&session, "inner", "pass");
    inner.End();
  }  // outer ends on destruction
  EXPECT_EQ(session.event_count(), 2u);

  obs::Json j = session.ToJson();
  auto parsed = testing_util::ParseJson(j.Dump());
  ASSERT_TRUE(parsed.ok());
  const obs::Json* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // Metadata event plus the two spans.
  ASSERT_EQ(events->size(), 3u);
  EXPECT_EQ(events->at(0).Find("ph")->AsString(), "M");
  for (std::size_t i = 1; i < events->size(); ++i) {
    const obs::Json& e = events->at(i);
    EXPECT_EQ(e.Find("ph")->AsString(), "X");
    ASSERT_NE(e.Find("ts"), nullptr);
    ASSERT_NE(e.Find("dur"), nullptr);
    EXPECT_GE(e.Find("dur")->AsDouble(), 0.0);
    ASSERT_NE(e.Find("tid"), nullptr);
  }
  // Spans are recorded in end order: inner closes before outer.
  EXPECT_EQ(events->at(1).Find("name")->AsString(), "inner");
  EXPECT_EQ(events->at(2).Find("name")->AsString(), "outer");
  EXPECT_EQ(events->at(2).Find("args")->Find("trials")->AsUint64(), 7u);
}

TEST(TraceSession, ThreadNameMetadataEvents) {
  obs::TraceSession session;
  session.SetProcessName("obs_test");
  session.SetThreadName("main");
  session.SetThreadName("renamed-main");  // last call per thread wins
  std::thread worker([&session] {
    session.SetThreadName("worker-a");
    auto span = obs::TraceSession::Begin(&session, "work", "trial");
  });
  worker.join();
  obs::Json j = session.ToJson();
  const obs::Json* events = j.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  // process_name + 2 thread_name metadata events + 1 span.
  ASSERT_EQ(events->size(), 4u);
  std::size_t thread_names = 0;
  std::uint64_t worker_tid = 0;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const obs::Json& e = events->at(i);
    if (e.Find("name")->AsString() != "thread_name") continue;
    ++thread_names;
    EXPECT_EQ(e.Find("ph")->AsString(), "M");
    const std::string name = e.Find("args")->Find("name")->AsString();
    EXPECT_TRUE(name == "renamed-main" || name == "worker-a") << name;
    if (name == "worker-a") worker_tid = e.Find("tid")->AsUint64();
  }
  EXPECT_EQ(thread_names, 2u);
  // The span recorded by the worker carries the worker's named lane.
  const obs::Json& span_event = events->at(events->size() - 1);
  EXPECT_EQ(span_event.Find("ph")->AsString(), "X");
  EXPECT_EQ(span_event.Find("tid")->AsUint64(), worker_tid);
}

TEST(TraceSession, NullSessionSpansAreInert) {
  auto span = obs::TraceSession::Begin(nullptr, "noop", "bench");
  span.SetArg("k", obs::Json(std::uint64_t{1}));
  span.End();  // must not crash; nothing recorded anywhere
}

TEST(TraceSession, FlowEventsSerializeWithHexIdsAndEnclosingBinding) {
  obs::TraceSession session;
  // A full-width flow id: must survive JSON intact, which rules out
  // numeric ids (doubles lose bits past 2^53).
  const std::uint64_t flow = 0xdeadbeefcafebabeULL;
  session.EmitFlow(obs::TraceSession::FlowPhase::kStart, "stream", "service",
                   flow, session.NowNs());
  session.EmitFlow(obs::TraceSession::FlowPhase::kStep, "stream", "service",
                   flow, session.NowNs());
  session.EmitFlow(obs::TraceSession::FlowPhase::kEnd, "stream", "service",
                   flow, session.NowNs());
  obs::Json j = session.ToJson();
  const obs::Json* events = j.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 3u);
  const char* want_ph[] = {"s", "t", "f"};
  for (std::size_t i = 0; i < 3; ++i) {
    const obs::Json& e = events->at(i);
    EXPECT_EQ(e.Find("ph")->AsString(), want_ph[i]);
    EXPECT_EQ(e.Find("id")->AsString(), "0xdeadbeefcafebabe");
    EXPECT_EQ(e.Find("name")->AsString(), "stream");
    ASSERT_NE(e.Find("ts"), nullptr);
    EXPECT_EQ(e.Find("dur"), nullptr);  // flow events are instants
    if (e.Find("ph")->AsString() == "f") {
      // bp:"e" binds the arrow head to the enclosing slice, not the next
      // slice on the lane — without it Perfetto draws the arrow one op late.
      ASSERT_NE(e.Find("bp"), nullptr);
      EXPECT_EQ(e.Find("bp")->AsString(), "e");
    } else {
      EXPECT_EQ(e.Find("bp"), nullptr);
    }
  }
}

TEST(TraceSession, CounterEventsSerializeAsCounterTrack) {
  obs::TraceSession session;
  obs::Json values = obs::Json::Object();
  values.Set("cycles", obs::Json(std::uint64_t{12345}));
  values.Set("task_clock_ns", obs::Json(std::uint64_t{678}));
  session.EmitCounter("prof/driver.pass", session.NowNs(), std::move(values));
  obs::Json j = session.ToJson();
  const obs::Json* events = j.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 1u);
  const obs::Json& e = events->at(0);
  EXPECT_EQ(e.Find("ph")->AsString(), "C");
  EXPECT_EQ(e.Find("name")->AsString(), "prof/driver.pass");
  const obs::Json* args = e.Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->Find("cycles")->AsUint64(), 12345u);
  EXPECT_EQ(args->Find("task_clock_ns")->AsUint64(), 678u);
}

TEST(TraceSession, WriteToProducesLoadableFile) {
  obs::TraceSession session;
  { auto span = obs::TraceSession::Begin(&session, "work", "bench"); }
  const std::string path = TempPath("trace_test.json");
  ASSERT_TRUE(session.WriteTo(path).ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = testing_util::ParseJson(buf.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(parsed->Find("traceEvents"), nullptr);
  EXPECT_EQ(parsed->Find("displayTimeUnit")->AsString(), "ms");
}

TEST(TraceSession, DriverEmitsPassAndListSpans) {
  Graph g = gen::ErdosRenyiGnp(120, 0.1, 51);
  stream::AdjacencyListStream s(&g, 17);
  core::TwoPassTriangleOptions options;
  options.sample_size = 32;
  options.seed = 5;
  core::TwoPassTriangleCounter counter(options);
  obs::TraceSession session;
  stream::TraceOptions trace;
  trace.spans = &session;
  stream::RunPasses(s, &counter, trace);
  // Two pass spans plus at least one strided list span per pass, and no
  // validate span: the trusted run checks nothing.
  std::size_t pass_spans = 0, list_spans = 0, validate_spans = 0;
  const obs::Json j = session.ToJson();
  const obs::Json* events = j.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  for (std::size_t i = 0; i < events->size(); ++i) {
    const obs::Json* cat = events->at(i).Find("cat");
    if (cat == nullptr) continue;
    if (cat->AsString() == "pass") ++pass_spans;
    if (cat->AsString() == "list") ++list_spans;
    if (cat->AsString() == "validate") ++validate_spans;
  }
  EXPECT_EQ(pass_spans, 2u);
  EXPECT_GE(list_spans, 2u);
  EXPECT_EQ(validate_spans, 0u);
}

// The args of the `cat` spans in `trace` (a TraceSession::ToJson), in the
// order the spans closed.
std::vector<obs::Json> SpanArgs(const obs::Json& trace, const char* cat) {
  std::vector<obs::Json> args;
  const obs::Json* events = trace.Find("traceEvents");
  if (events == nullptr) return args;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const obs::Json* c = events->at(i).Find("cat");
    if (c != nullptr && c->AsString() == cat) {
      args.push_back(*events->at(i).Find("args"));
    }
  }
  return args;
}

// A pass span closes after the pass-end sample and carries its PassReport's
// peaks, so the max over a run's pass spans is the report's peak.
TEST(TraceSession, PassSpansCarryThePassPeaks) {
  Graph g = gen::ErdosRenyiGnp(200, 0.08, 11);
  stream::AdjacencyListStream s(&g, 3);
  core::TwoPassTriangleOptions options;
  options.sample_size = 64;
  options.seed = 7;
  for (const bool checked : {false, true}) {
    SCOPED_TRACE(checked ? "checked" : "trusted");
    core::TwoPassTriangleCounter counter(options);
    obs::TraceSession session;
    stream::RunReport report;
    if (checked) {
      auto checked_report =
          stream::RunPassesChecked(s, &counter, {.trace = {.spans = &session}});
      ASSERT_TRUE(checked_report.ok());
      report = *checked_report;
    } else {
      report = stream::RunPasses(s, &counter, {.spans = &session});
    }
    const std::vector<obs::Json> passes = SpanArgs(session.ToJson(), "pass");
    ASSERT_EQ(passes.size(), report.per_pass.size());
    std::uint64_t max_reported = 0, max_audited = 0;
    for (std::size_t p = 0; p < passes.size(); ++p) {
      const std::uint64_t reported =
          passes[p].Find("reported_peak_bytes")->AsUint64();
      const std::uint64_t audited =
          passes[p].Find("audited_peak_bytes")->AsUint64();
      EXPECT_EQ(reported, report.per_pass[p].reported_peak_bytes);
      EXPECT_EQ(audited, report.per_pass[p].audited_peak_bytes);
      max_reported = std::max(max_reported, reported);
      max_audited = std::max(max_audited, audited);
    }
    EXPECT_EQ(max_reported, report.reported_peak_bytes);
    EXPECT_EQ(max_audited, report.audited_peak_bytes);
    EXPECT_GT(max_audited, 0u);
  }
}

// Each list span covers kListSpanStride lists (the pass end closes the
// last, partial window) and carries the maxima of the space samples at its
// lists' ends, which are at most its pass's peaks.
TEST(TraceSession, ListSpansCloseEveryListSpanStrideLists) {
  // Two full windows, then a partial one that the pass end closes.
  const std::size_t n = 2 * stream::kListSpanStride + 100;
  Graph g = gen::ErdosRenyiGnp(n, 0.002, 61);
  stream::AdjacencyListStream s(&g, 19);
  core::OnePassTriangleOptions options;
  options.sample_size = 16;
  options.seed = 7;
  core::OnePassTriangleCounter counter(options);
  testing_util::SpaceRecorder recorder(&counter);
  obs::TraceSession session;
  const stream::RunReport report =
      stream::RunPasses(s, &recorder, {.spans = &session});
  const std::vector<obs::Json> windows = SpanArgs(session.ToJson(), "list");
  const std::vector<std::uint64_t> want_lists = {
      stream::kListSpanStride, stream::kListSpanStride, 100};
  ASSERT_EQ(windows.size(), want_lists.size());
  // The recorder saw every list end, then the pass end.
  const auto& points = recorder.points();
  ASSERT_EQ(points.size(), n + 1);
  std::size_t first = 0;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    SCOPED_TRACE("window " + std::to_string(w));
    const std::uint64_t lists = windows[w].Find("lists")->AsUint64();
    EXPECT_EQ(lists, want_lists[w]);
    std::size_t want_reported = 0, want_audited = 0;
    for (std::size_t i = first; i < first + lists; ++i) {
      want_reported = std::max(want_reported, points[i].reported);
      want_audited = std::max(want_audited, points[i].live);
    }
    first += lists;
    const std::uint64_t reported =
        windows[w].Find("max_reported_bytes")->AsUint64();
    const std::uint64_t audited =
        windows[w].Find("max_audited_bytes")->AsUint64();
    EXPECT_EQ(reported, want_reported);
    EXPECT_EQ(audited, want_audited);
    EXPECT_LE(reported, report.per_pass[0].reported_peak_bytes);
    EXPECT_LE(audited, report.per_pass[0].audited_peak_bytes);
  }
}

// A checked run whose contract fails inside the first list of a window:
// BeginList has opened the window's span, and the pass end must close it,
// with its args, before the pass span.
TEST(TraceSession, PassEndClosesTheSpanARejectedFirstListOpened) {
  Graph g = gen::ErdosRenyiGnp(3000, 0.004, 61);
  stream::AdjacencyListStream base(&g, 19);
  ASSERT_GT(base.list_order().size(), stream::kListSpanStride);
  std::size_t before = 0;  // pairs in the first window's lists
  for (std::size_t i = 0; i < stream::kListSpanStride; ++i) {
    before += base.ListOf(base.list_order()[i]).size();
  }
  ASSERT_GE(base.ListOf(base.list_order()[stream::kListSpanStride]).size(),
            2u);
  stream::FaultSpec spec;
  spec.kind = stream::FaultKind::kTruncatePass;
  spec.truncate_at = before + 1;  // one pair into the 1,025th list
  const stream::FaultInjectingStream faulty(&base, spec);
  core::OnePassTriangleOptions options;
  options.sample_size = 16;
  options.seed = 7;
  core::OnePassTriangleCounter counter(options);
  obs::TraceSession session;
  ASSERT_FALSE(
      stream::RunPassesChecked(faulty, &counter, {.trace = {.spans = &session}})
          .ok());

  const obs::Json trace = session.ToJson();
  const obs::Json* events = trace.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  double pass_end = -1;
  std::vector<double> list_ends;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const obs::Json& event = events->at(i);
    const obs::Json* cat = event.Find("cat");
    if (cat == nullptr) continue;
    const double end =
        event.Find("ts")->AsDouble() + event.Find("dur")->AsDouble();
    if (cat->AsString() == "pass") pass_end = end;
    if (cat->AsString() != "list") continue;
    list_ends.push_back(end);
    const obs::Json* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    for (const char* key : {"lists", "first_vertex", "max_reported_bytes",
                            "max_audited_bytes"}) {
      EXPECT_NE(args->Find(key), nullptr) << key;
    }
  }
  ASSERT_GE(pass_end, 0);
  ASSERT_EQ(list_ends.size(), 2u);
  for (const double end : list_ends) EXPECT_LE(end, pass_end + 1e-3);
  const std::vector<obs::Json> windows = SpanArgs(trace, "list");
  EXPECT_EQ(windows[0].Find("lists")->AsUint64(), stream::kListSpanStride);
  EXPECT_EQ(windows[1].Find("lists")->AsUint64(), 0u);
}

}  // namespace
}  // namespace cyclestream
