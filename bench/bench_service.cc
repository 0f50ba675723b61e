// Service saturation sweep: ingest throughput of the sharded many-stream
// estimator service (src/service) across streams × shards, with the
// determinism contract checked on every configuration.
//
// Each hosted stream replays one generator-family graph through one of the
// seven estimator kinds. The sweep feeds all streams maximally interleaved
// (event k of every stream before event k+1 of any) and measures end-to-end
// adjacency-pair throughput from first Append to Flush. Afterward every
// stream is queried and its estimate and RunReport are compared — bitwise —
// against the single-stream driver run of the identical estimator: the
// service must be a pure scheduling layer, never a semantic one.
//
// Manifest output (--metrics-out): one curve per shard count,
// `service_pairs_per_sec/shards=N`, with x = hosted streams and
// y = pairs/sec — the saturation curves committed to BENCH_baseline.json.
//
// Telemetry (all off by default; none of it touches stdout or estimates):
//   --scrape-out FILE        one Prometheus text scrape of the service
//                            registry after the sweep, validated by
//                            `bench_report.py scrape`.
//   --flight-dump FILE       write the flight-recorder ring (JSONL) after
//                            the sweep — a forced dump exercising the same
//                            path as the fatal-Status/chaos triggers.
//   --chrome-trace FILE      request tracing: every client call stamps a
//                            TraceContext, and one stream's life (enqueue →
//                            drain → estimator batch → query reply) renders
//                            as a single connected flow in Perfetto.
//   --prof                   hardware counters on the shard drain loops
//                            ("service.drain" scope): prof manifest records
//                            plus per-shard-count drain-cost curves
//                            (`prof/service_drain/shards=N/...`).
//   --reps N                 best-of-N runs per configuration (default 1;
//                            small-stream points get proportionally more).
//                            Use >= 100 when refreshing BENCH_baseline.json
//                            so `bench_report.py diff` compares the stable
//                            fastest run, not one noisy sample.
// Accuracy-vs-guarantee: each (variant, kind) template's driver estimate is
// scored against the exact triangle / 4-cycle count of its graph, feeding
// per-kind `accuracy.*` gauges (scraped) and `accuracy` manifest records.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exact/four_cycle.h"
#include "exact/triangle.h"
#include "gen/erdos_renyi.h"
#include "graph/graph.h"
#include "obs/accuracy.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "service/estimator_host.h"
#include "service/service.h"
#include "stream/adjacency_stream.h"
#include "stream/driver.h"
#include "stream/random_order_stream.h"

namespace cyclestream {
namespace {

using service::EstimatorKind;
using service::EstimatorService;
using service::EstimatorSpec;
using service::HostedEstimator;
using service::kEstimatorKinds;
using service::ServiceOptions;
using service::StreamId;
using service::StreamView;

// One client-side event: a whole adjacency list, or a pass boundary.
struct Event {
  bool end_pass = false;
  VertexId u = 0;
  std::vector<VertexId> list;
};

// A (graph variant, estimator kind) template: the event tape all streams of
// this combo replay, plus the driver-computed reference they must match.
struct Template {
  EstimatorSpec spec;
  std::vector<Event> events;
  double want_estimate = 0.0;
  stream::RunReport want_report;
  std::uint64_t pairs = 0;  // total OnPair events across all passes
  double truth = 0.0;       // exact count of the kind's target subgraph
};

// The exact count the kind estimates: triangles for kinds 0-4, 4-cycles
// for kinds 5-6.
double TruthFor(EstimatorKind kind, std::uint64_t triangles,
                std::uint64_t four_cycles) {
  switch (kind) {
    case EstimatorKind::kOnePassFourCycle:
    case EstimatorKind::kTwoPassFourCycle:
      return static_cast<double>(four_cycles);
    default:
      return static_cast<double>(triangles);
  }
}

constexpr int kGraphVariants = 4;

std::vector<Template> BuildTemplates(std::size_t graph_n, double graph_p) {
  std::vector<Template> out;
  for (int variant = 0; variant < kGraphVariants; ++variant) {
    Graph g = gen::ErdosRenyiGnp(graph_n, graph_p,
                                 1000 + static_cast<std::uint64_t>(variant));
    stream::AdjacencyListStream stream(&g,
                                       17 + static_cast<std::uint64_t>(variant));
    const std::uint64_t triangles = exact::CountTriangles(g);
    const std::uint64_t four_cycles = exact::CountFourCycles(g);
    for (int k = 0; k < kEstimatorKinds; ++k) {
      Template t;
      t.spec.kind = static_cast<EstimatorKind>(k);
      t.spec.slots = 16;
      t.spec.seed = 100 + static_cast<std::uint64_t>(variant * kEstimatorKinds + k);

      StatusOr<HostedEstimator> ref = service::MakeHosted(t.spec);
      CYCLESTREAM_CHECK(ref.ok());
      if (t.spec.kind == EstimatorKind::kRandomOrderTriangle) {
        // Random-order kind: reference run and tape both come from a
        // RandomOrderStream's u-runs. The service is model-agnostic — it
        // replays whatever grammar the tape carries.
        stream::RandomOrderStream ro(&g,
                                     17 + static_cast<std::uint64_t>(variant));
        t.want_report = stream::RunPasses(ro, ref->algo.get());
        t.want_estimate = ref->estimate(*ref->algo);
        t.pairs = t.want_report.pairs_processed;
        t.truth = TruthFor(t.spec.kind, triangles, four_cycles);
        for (int pass = 0; pass < ref->algo->passes(); ++pass) {
          struct Tape {
            std::vector<Event>* events;
            void BeginList(VertexId u) { events->push_back({false, u, {}}); }
            void OnPair(VertexId, VertexId v) {
              events->back().list.push_back(v);
            }
            void EndList(VertexId) {}
          } tape{&t.events};
          ro.ReplayPass(tape);
          t.events.push_back({true, 0, {}});
        }
        out.push_back(std::move(t));
        continue;
      }
      t.want_report = stream::RunPasses(stream, ref->algo.get());
      t.want_estimate = ref->estimate(*ref->algo);
      t.pairs = t.want_report.pairs_processed;
      t.truth = TruthFor(t.spec.kind, triangles, four_cycles);

      for (int pass = 0; pass < ref->algo->passes(); ++pass) {
        for (VertexId u : stream.list_order()) {
          auto span = stream.ListOf(u);
          t.events.push_back(
              {false, u, std::vector<VertexId>(span.begin(), span.end())});
        }
        t.events.push_back({true, 0, {}});
      }
      out.push_back(std::move(t));
    }
  }
  return out;
}

struct SweepPoint {
  double wall_seconds = 0.0;
  std::uint64_t pairs = 0;
  std::size_t mismatches = 0;
};

// Hosts `streams` streams (round-robin over the templates) on a service with
// `shards` shards, replays all tapes maximally interleaved, then verifies
// every stream bitwise against its driver reference.
SweepPoint RunConfig(const std::vector<Template>& templates,
                     std::size_t streams, int shards,
                     obs::MetricsRegistry* registry,
                     obs::FlightRecorder* flight,
                     obs::TraceSession* trace, obs::Profiler* prof) {
  ServiceOptions options;
  options.shards = shards;
  options.metrics = registry;
  options.flight = flight;
  options.trace = trace;
  options.prof = prof;
  EstimatorService svc(options);

  std::vector<std::future<Status>> created;
  created.reserve(streams);
  for (StreamId id = 1; id <= streams; ++id) {
    created.push_back(
        svc.Create(id, templates[(id - 1) % templates.size()].spec));
  }
  for (auto& f : created) CYCLESTREAM_CHECK(f.get().ok());

  std::size_t longest = 0;
  for (const Template& t : templates) {
    longest = std::max(longest, t.events.size());
  }

  SweepPoint point;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < longest; ++k) {
    for (StreamId id = 1; id <= streams; ++id) {
      const Template& t = templates[(id - 1) % templates.size()];
      if (k >= t.events.size()) continue;
      const Event& e = t.events[k];
      if (e.end_pass) {
        svc.EndPass(id);
      } else {
        svc.Append(id, e.u, e.list);
      }
    }
  }
  svc.Flush();
  point.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  for (StreamId id = 1; id <= streams; ++id) {
    const Template& t = templates[(id - 1) % templates.size()];
    point.pairs += t.pairs;
    StatusOr<StreamView> view = svc.Query(id).get();
    if (!view.ok() || !view->finished ||
        view->estimate != t.want_estimate ||
        view->report.pairs_processed != t.want_report.pairs_processed ||
        view->report.reported_peak_bytes !=
            t.want_report.reported_peak_bytes ||
        view->report.audited_peak_bytes != t.want_report.audited_peak_bytes) {
      ++point.mismatches;
    }
  }
  return point;
}

// Cumulative "service.drain" totals — deltas around a configuration's reps
// give that configuration's drain-loop hardware-counter cost.
obs::ProfCounters DrainTotals(obs::Profiler* prof) {
  if (prof == nullptr) return obs::ProfCounters();
  const auto aggregates = prof->Read();
  const auto it = aggregates.find("service.drain");
  return it == aggregates.end() ? obs::ProfCounters() : it->second.totals;
}

}  // namespace

int Main(int argc, char** argv) {
  bench::BenchOptions opts = bench::ParseOptions(argc, argv);
  bench::PrintHeader(
      opts, "Service saturation: sharded many-stream ingest throughput",
      "pairs/sec vs hosted streams per shard count; every configuration "
      "verified bitwise against the single-stream driver");

  const std::size_t graph_n = opts.full ? 64 : 32;
  const double graph_p = 0.25;
  const std::vector<std::size_t> stream_counts =
      opts.full ? std::vector<std::size_t>{16, 64, 256, 1024}
                : std::vector<std::size_t>{8, 32, 128};
  const std::vector<int> shard_counts =
      opts.full ? std::vector<int>{1, 2, 4, 8, 16}
                : std::vector<int>{1, 2, 4, 8};

  const std::vector<Template> templates = BuildTemplates(graph_n, graph_p);

  // Telemetry plumbing. The scraped registry is the manifest registry when
  // --metrics-out is on (so service metrics also land in the snapshot
  // record); otherwise a local one, so --scrape-out works standalone.
  const std::string scrape_out = bench::FlagString(argc, argv, "--scrape-out");
  const std::string flight_dump =
      bench::FlagString(argc, argv, "--flight-dump");
  std::unique_ptr<obs::MetricsRegistry> local_registry;
  obs::MetricsRegistry* registry = bench::Metrics();
  if (registry == nullptr && !scrape_out.empty()) {
    local_registry = std::make_unique<obs::MetricsRegistry>();
    registry = local_registry.get();
  }
  // Attached only when a dump is requested: the ring's wait-free Record()
  // is cheap but not free, and the headline pairs/sec must track the
  // telemetry-off configuration committed in BENCH_baseline.json.
  obs::FlightRecorder flight(1024);
  obs::FlightRecorder* flight_ptr = flight_dump.empty() ? nullptr : &flight;

  // Accuracy-vs-guarantee: one observer per estimator kind, fed the driver
  // reference estimate of each graph variant (the service is verified
  // bit-identical to it below). The (0.5, 1/3) default band matches the
  // paper's standard constant-factor configuration; the exact counter must
  // land exactly.
  std::vector<std::unique_ptr<obs::AccuracyObserver>> accuracy;
  for (int k = 0; k < service::kEstimatorKinds; ++k) {
    accuracy.push_back(std::make_unique<obs::AccuracyObserver>(
        registry, service::KindName(static_cast<EstimatorKind>(k)),
        obs::AccuracyBand{}));
  }
  for (const Template& t : templates) {
    accuracy[static_cast<int>(t.spec.kind)]->Observe(t.want_estimate, t.truth);
  }

  bench::Table table(opts, {{"shards", 8, bench::kColInt},
                            {"streams", 9, bench::kColInt},
                            {"pairs", 12, bench::kColInt},
                            {"wall_s", 9, 4},
                            {"pairs/s", 12, 0}});
  table.PrintHeader();

  // --reps N: best-of per configuration. Shared machines jitter single
  // runs by ±20% (scheduling, frequency drift); the fastest wall time is
  // the stable capability statistic the committed baseline and
  // `bench_report.py diff` compare. Small-stream configurations have
  // millisecond measurement windows dominated by thread-placement luck, so
  // they get proportionally more reps (same total sampling time per point).
  const int reps = std::max(1, bench::FlagValue(argc, argv, "--reps", 1));

  obs::TraceSession* trace = bench::TraceSpans();
  obs::Profiler* prof = bench::Prof();

  std::size_t total_mismatches = 0;
  for (int shards : shard_counts) {
    for (std::size_t streams : stream_counts) {
      const std::size_t longest_x = stream_counts.back();
      const int point_reps =
          reps == 1 ? 1
                    : static_cast<int>(
                          (static_cast<std::size_t>(reps) * longest_x) /
                          streams);
      const obs::ProfCounters drain_before = DrainTotals(prof);
      int reps_run = 1;
      SweepPoint p =
          RunConfig(templates, streams, shards, registry, flight_ptr, trace,
                    prof);
      for (int r = 1; r < point_reps; ++r) {
        SweepPoint q =
            RunConfig(templates, streams, shards, registry, flight_ptr,
                      trace, prof);
        total_mismatches += q.mismatches;
        ++reps_run;
        if (q.wall_seconds < p.wall_seconds) p = q;
      }
      const double rate =
          p.wall_seconds > 0.0
              ? static_cast<double>(p.pairs) / p.wall_seconds
              : 0.0;
      total_mismatches += p.mismatches;
      table.PrintRow({static_cast<std::size_t>(shards), streams, p.pairs,
                      p.wall_seconds, rate});
      bench::CurvePoint(
          "service_pairs_per_sec/shards=" + std::to_string(shards),
          static_cast<double>(streams), rate);
      if (prof != nullptr) {
        // Drain-loop cost curves per shard count: x = hosted streams,
        // y = per-pair counter rate over every rep of this configuration.
        // Task-clock exists on any backend; the hardware-derived curves
        // need a real PMU (on the rusage fallback they are simply absent,
        // and the manifest's prof records carry the fallback flag).
        const obs::ProfCounters d = DrainTotals(prof).Minus(drain_before);
        const double pairs_done =
            static_cast<double>(p.pairs) * static_cast<double>(reps_run);
        if (pairs_done > 0.0) {
          const std::string base =
              "prof/service_drain/shards=" + std::to_string(shards);
          bench::CurvePoint(base + "/task_clock_ns_per_pair",
                            static_cast<double>(streams),
                            static_cast<double>(d.task_clock_ns) / pairs_done);
          if (prof->backend() == obs::ProfBackend::kPerfEvent &&
              d.cycles > 0) {
            bench::CurvePoint(base + "/ipc", static_cast<double>(streams),
                              d.Ipc());
            bench::CurvePoint(base + "/cache_miss_per_pair",
                              static_cast<double>(streams),
                              static_cast<double>(d.cache_misses) /
                                  pairs_done);
          }
        }
      }
    }
  }

  if (!scrape_out.empty()) {
    // One scrape with the full sweep's data.
    const Status status =
        obs::WritePrometheusText(registry->Read(), scrape_out);
    if (!status.ok()) {
      std::fprintf(stderr, "[bench] %s\n", status.message().c_str());
    }
  }
  for (const auto& a : accuracy) bench::RecordAccuracy(*a);
  if (!flight_dump.empty()) {
    const Status status = flight.WriteTo(flight_dump);
    if (!status.ok()) {
      std::fprintf(stderr, "[bench] %s\n", status.message().c_str());
    } else {
      std::fprintf(stderr, "[bench] flight dump: %s (%llu events recorded)\n",
                   flight_dump.c_str(),
                   static_cast<unsigned long long>(flight.recorded()));
    }
  }

  bench::Note(opts,
              "\n%s: every (streams, shards) configuration matches the "
              "single-stream driver bitwise (estimate + report)\n",
              total_mismatches == 0 ? "PASS" : "FAIL");
  if (total_mismatches != 0) {
    bench::Note(opts, "  %zu stream(s) diverged\n", total_mismatches);
  }
  return total_mismatches == 0 ? 0 : 1;
}

}  // namespace cyclestream

int main(int argc, char** argv) { return cyclestream::Main(argc, argv); }
