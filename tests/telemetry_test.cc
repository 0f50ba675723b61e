// Tests for the live-telemetry layer: the lock-free flight recorder
// (obs/flight_recorder.h), Prometheus text exposition (obs/exposition.h),
// and accuracy-vs-guarantee tracking (obs/accuracy.h).

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/accuracy.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace cyclestream {
namespace obs {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// FlightRecorder

TEST(FlightRecorder, RecordsAndCollectsInSequenceOrder) {
  FlightRecorder recorder(64);
  recorder.Record(FlightEventKind::kCreate, 0, 42);
  recorder.Record(FlightEventKind::kList, 0, 42, 7);
  recorder.Record(FlightEventKind::kEndPass, 1, 42, 1);
  std::vector<FlightEvent> events = recorder.Collect();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kCreate);
  EXPECT_EQ(events[0].a, 42u);
  EXPECT_EQ(events[1].b, 7u);
  EXPECT_EQ(events[2].shard, 1u);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  EXPECT_EQ(recorder.recorded(), 3u);
}

TEST(FlightRecorder, RingKeepsOnlyTheMostRecentCapacityEvents) {
  FlightRecorder recorder(8);  // power of two already
  for (std::uint64_t i = 0; i < 100; ++i) {
    recorder.Record(FlightEventKind::kEnqueue, 0, i);
  }
  std::vector<FlightEvent> events = recorder.Collect();
  ASSERT_EQ(events.size(), 8u);
  // The survivors are exactly the last capacity() events, in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 92 + i);
  }
  EXPECT_EQ(recorder.recorded(), 100u);
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder recorder(100);
  EXPECT_EQ(recorder.capacity(), 128u);
  FlightRecorder tiny(0);
  EXPECT_GE(tiny.capacity(), 2u);
}

TEST(FlightRecorder, DumpTextIsJsonlWithKindNames) {
  FlightRecorder recorder(16);
  recorder.Record(FlightEventKind::kKill, 2, 5);
  recorder.Record(FlightEventKind::kError, 2, 42, 3);
  const std::string dump = recorder.DumpText();
  EXPECT_NE(dump.find("\"kind\":\"kill\""), std::string::npos);
  EXPECT_NE(dump.find("\"kind\":\"error\""), std::string::npos);
  EXPECT_NE(dump.find("\"shard\":2"), std::string::npos);
  // One JSON object per line.
  std::istringstream lines(dump);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(count, 2);
}

TEST(FlightRecorder, DumpLinesCarryEveryFieldInFixedOrder) {
  // One object per collected event, seven keys in a fixed order, each value
  // the collected one.
  FlightRecorder recorder(16);
  recorder.Record(FlightEventKind::kCheckpoint, 1, 3, 4096);
  recorder.Record(FlightEventKind::kRestore, 1, 0, 15);
  const std::vector<FlightEvent> events = recorder.Collect();
  ASSERT_EQ(events.size(), 2u);
  const std::vector<std::string> want_keys = {"seq",   "t_ns", "kind",
                                              "shard", "a",    "b",
                                              "thread"};
  std::istringstream lines(recorder.DumpText());
  std::string line;
  std::size_t i = 0;
  while (std::getline(lines, line)) {
    ASSERT_LT(i, events.size());
    StatusOr<Json> parsed = Json::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    std::vector<std::string> keys;
    for (const auto& item : parsed->items()) keys.push_back(item.first);
    EXPECT_EQ(keys, want_keys) << line;
    const FlightEvent& e = events[i];
    EXPECT_EQ(parsed->Find("seq")->AsUint64(), e.seq);
    EXPECT_EQ(parsed->Find("t_ns")->AsUint64(), e.t_ns);
    EXPECT_EQ(parsed->Find("kind")->AsString(), FlightEventKindName(e.kind));
    EXPECT_EQ(parsed->Find("shard")->AsUint64(), e.shard);
    EXPECT_EQ(parsed->Find("a")->AsUint64(), e.a);
    EXPECT_EQ(parsed->Find("b")->AsUint64(), e.b);
    EXPECT_EQ(parsed->Find("thread")->AsUint64(), e.thread);
    ++i;
  }
  EXPECT_EQ(i, events.size());
}

TEST(FlightRecorder, KindNamesAreTheTenDumpNames) {
  // Dumps carry these names, and CI's flight-dump check accepts exactly
  // them. The enum is append-only, so a value never changes its name.
  const std::vector<std::string> want = {
      "enqueue", "drain",      "create",  "list", "end_pass",
      "query",   "checkpoint", "restore", "kill", "error"};
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(FlightEventKindName(static_cast<FlightEventKind>(k)), want[k]);
  }
  EXPECT_STREQ(FlightEventKindName(static_cast<FlightEventKind>(want.size())),
               "unknown");
}

TEST(FlightRecorder, WriteToProducesFileAndDumpToEnvPathIsNoOpUnset) {
  FlightRecorder recorder(16);
  recorder.Record(FlightEventKind::kCheckpoint, 0, 10, 2048);
  const std::string path = TempPath("flight_dump.jsonl");
  ASSERT_TRUE(recorder.WriteTo(path).ok());
  EXPECT_NE(ReadFile(path).find("\"kind\":\"checkpoint\""),
            std::string::npos);
  std::remove(path.c_str());
  // Unset env var: OK no-op.
  unsetenv("CYCLESTREAM_FLIGHT_DUMP");
  EXPECT_TRUE(recorder.DumpToEnvPath().ok());
  EXPECT_FALSE(recorder.WriteTo("/nonexistent-dir/x/y.jsonl").ok());
}

TEST(FlightRecorder, ConcurrentWritersAndCollectorsDoNotTear) {
  // TSan target: wait-free writers racing a collector. Collect() must only
  // ever surface fully written slots.
  FlightRecorder recorder(64);
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, &stop, w] {
      std::uint64_t i = 0;
      // Record-then-check: each writer lands at least one event even if the
      // collector finishes its rounds before this thread is scheduled.
      do {
        // a encodes writer and iteration; b is its complement, so a torn
        // slot (mismatched halves) is detectable below.
        const std::uint64_t a = (static_cast<std::uint64_t>(w) << 32) | i;
        recorder.Record(FlightEventKind::kList, static_cast<std::uint32_t>(w),
                        a, ~a);
        ++i;
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  for (int round = 0; round < 50; ++round) {
    std::vector<FlightEvent> events = recorder.Collect();
    for (const FlightEvent& e : events) {
      EXPECT_EQ(e.b, ~e.a) << "torn slot surfaced by Collect()";
    }
  }
  stop.store(true);
  for (auto& t : writers) t.join();
  std::vector<FlightEvent> events = recorder.Collect();
  EXPECT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST(Exposition, EmptySnapshotRendersEmpty) {
  EXPECT_EQ(PrometheusText(Snapshot{}), "");
}

TEST(Exposition, CountersGaugesAndLabelsRender) {
  MetricsRegistry registry;
  registry.GetCounter("service.errors_latched/shard=0").Increment(0);
  registry.GetCounter("service.errors_latched/shard=1").Increment(2);
  registry.GetGauge("accuracy.within_band/estimator=two-pass").Set(1.0);
  const std::string text = PrometheusText(registry.Read());
  EXPECT_NE(text.find("# TYPE service_errors_latched counter"),
            std::string::npos);
  EXPECT_NE(text.find("service_errors_latched{shard=\"0\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("service_errors_latched{shard=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE accuracy_within_band gauge"),
            std::string::npos);
  EXPECT_NE(text.find("accuracy_within_band{estimator=\"two-pass\"} 1.0"),
            std::string::npos);
  // One # TYPE line per family, even with two labeled series.
  std::size_t first = text.find("# TYPE service_errors_latched");
  EXPECT_EQ(text.find("# TYPE service_errors_latched", first + 1),
            std::string::npos);
}

TEST(Exposition, HistogramBucketsAreCumulativeAndEndAtInf) {
  MetricsRegistry registry;
  Histogram h = registry.GetHistogram("svc.depth", {1.0, 2.0, 4.0});
  h.Observe(0.5);
  h.Observe(1.5);
  h.Observe(100.0);  // overflow bucket
  const std::string text = PrometheusText(registry.Read());
  EXPECT_NE(text.find("# TYPE svc_depth histogram"), std::string::npos);
  EXPECT_NE(text.find("svc_depth_bucket{le=\"1.0\"} 1"), std::string::npos);
  EXPECT_NE(text.find("svc_depth_bucket{le=\"2.0\"} 2"), std::string::npos);
  EXPECT_NE(text.find("svc_depth_bucket{le=\"4.0\"} 2"), std::string::npos);
  EXPECT_NE(text.find("svc_depth_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("svc_depth_count 3"), std::string::npos);
  EXPECT_NE(text.find("svc_depth_sum 102.0"), std::string::npos);
}

TEST(Exposition, OutputIsDeterministicAndNameSorted) {
  MetricsRegistry registry;
  registry.GetCounter("zzz.last").Increment();
  registry.GetCounter("aaa.first").Increment();
  const std::string a = PrometheusText(registry.Read());
  const std::string b = PrometheusText(registry.Read());
  EXPECT_EQ(a, b);
  EXPECT_LT(a.find("aaa_first"), a.find("zzz_last"));
}

TEST(Exposition, WritePrometheusTextRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("c").Increment(5);
  const std::string path = TempPath("scrape_roundtrip.prom");
  ASSERT_TRUE(WritePrometheusText(registry.Read(), path).ok());
  EXPECT_EQ(ReadFile(path), PrometheusText(registry.Read()));
  std::remove(path.c_str());
  EXPECT_FALSE(
      WritePrometheusText(registry.Read(), "/nonexistent-dir/x.prom").ok());
}

TEST(Exposition, WritePrometheusTextReplacesAnEarlierScrape) {
  // A second write to the same path leaves exactly the newer scrape, never
  // the older one or the two appended.
  MetricsRegistry registry;
  registry.GetCounter("c").Increment(7);
  const std::string path = TempPath("scrape_replace.prom");
  ASSERT_TRUE(WritePrometheusText(registry.Read(), path).ok());
  registry.GetCounter("c").Increment(2);
  const Snapshot latest = registry.Read();
  ASSERT_TRUE(WritePrometheusText(latest, path).ok());
  const std::string text = ReadFile(path);
  EXPECT_EQ(text, PrometheusText(latest));
  EXPECT_NE(text.find("c 9"), std::string::npos);
  EXPECT_EQ(text.find("c 7"), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// AccuracyObserver

TEST(Accuracy, RelativeErrorUsesMaxTruthOne) {
  EXPECT_DOUBLE_EQ(RelativeError(110.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(RelativeError(90.0, 100.0), 0.1);
  // truth == 0: denominator clamps to 1 (absolute error).
  EXPECT_DOUBLE_EQ(RelativeError(3.0, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(RelativeError(0.0, 0.0), 0.0);
}

TEST(Accuracy, BandVerdictTracksFraction) {
  AccuracyObserver obs(nullptr, "test", AccuracyBand{0.25, 1.0 / 3.0});
  EXPECT_TRUE(obs.WithinBand());  // vacuous at 0 trials
  obs.Observe(100.0, 100.0);     // within
  obs.Observe(120.0, 100.0);     // within (0.20 <= 0.25)
  obs.Observe(200.0, 100.0);     // outside (1.00)
  EXPECT_EQ(obs.trials(), 3u);
  EXPECT_EQ(obs.within(), 2u);
  EXPECT_DOUBLE_EQ(obs.FracWithin(), 2.0 / 3.0);
  EXPECT_TRUE(obs.WithinBand());  // 2/3 >= 1 - 1/3
  obs.Observe(200.0, 100.0);      // outside -> 2/4 < 2/3
  EXPECT_FALSE(obs.WithinBand());
}

TEST(Accuracy, GaugesAndHistogramLandInRegistry) {
  MetricsRegistry registry;
  AccuracyObserver obs(&registry, "two-pass", AccuracyBand{0.5, 1.0 / 3.0});
  obs.Observe(100.0, 100.0);
  obs.Observe(400.0, 100.0);
  const Snapshot snap = registry.Read();
  ASSERT_EQ(snap.gauges.count("accuracy.frac_within/estimator=two-pass"), 1u);
  ASSERT_EQ(snap.gauges.count("accuracy.within_band/estimator=two-pass"), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("accuracy.frac_within/estimator=two-pass"),
                   0.5);
  EXPECT_DOUBLE_EQ(snap.gauges.at("accuracy.within_band/estimator=two-pass"),
                   0.0);  // 0.5 < 2/3
  ASSERT_EQ(snap.histograms.count("accuracy.rel_error/estimator=two-pass"),
            1u);
  EXPECT_EQ(snap.histograms.at("accuracy.rel_error/estimator=two-pass").count,
            2u);
  // And the whole thing renders as a scrape with the band gauge.
  const std::string text = PrometheusText(snap);
  EXPECT_NE(text.find("accuracy_within_band{estimator=\"two-pass\"} 0.0"),
            std::string::npos);
}

TEST(Accuracy, ToJsonCarriesTheManifestRecordBody) {
  AccuracyObserver obs(nullptr, "wedge", AccuracyBand{0.25, 0.2});
  obs.Observe(100.0, 100.0);
  obs.Observe(150.0, 100.0);
  const Json body = obs.ToJson();
  EXPECT_EQ(body.Find("estimator")->Dump(), "\"wedge\"");
  EXPECT_EQ(body.Find("trials")->Dump(), "2");
  EXPECT_EQ(body.Find("within")->Dump(), "1");
  EXPECT_EQ(body.Find("within_band")->Dump(), "false");
  EXPECT_DOUBLE_EQ(body.Find("frac_within")->AsDouble(), 0.5);
  EXPECT_DOUBLE_EQ(body.Find("max_rel_error")->AsDouble(), 0.5);
  EXPECT_DOUBLE_EQ(body.Find("mean_rel_error")->AsDouble(), 0.25);
}

}  // namespace
}  // namespace obs
}  // namespace cyclestream
