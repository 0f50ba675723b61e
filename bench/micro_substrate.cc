// Microbenchmarks for the substrate: stream replay, samplers, exact
// counters, generators, and the end-to-end estimators. google-benchmark.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "core/median.h"
#include "obs/build_info.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "core/one_pass_triangle.h"
#include "core/two_pass_triangle.h"
#include "runtime/thread_pool.h"
#include "runtime/trial_runner.h"
#include "exact/four_cycle.h"
#include "exact/triangle.h"
#include "gen/chung_lu.h"
#include "gen/erdos_renyi.h"
#include "gen/projective_plane.h"
#include "sampling/bottom_k.h"
#include "stream/adjacency_stream.h"
#include "stream/driver.h"
#include "stream/validator.h"
#include "util/random.h"

namespace cyclestream {
namespace {

// Registry for counters surfaced in the --metrics-out manifest (validator
// work counts, primarily). Never torn down: benchmarks may register from
// static-init contexts.
obs::MetricsRegistry& MicroRegistry() {
  static obs::MetricsRegistry* registry = new obs::MetricsRegistry();
  return *registry;
}

const Graph& SharedGraph() {
  static const Graph* g = new Graph(gen::ErdosRenyiGnp(20000, 6.0 / 20000, 42));
  return *g;
}

const Graph& SharedSocialGraph() {
  static const Graph* g =
      new Graph(gen::ChungLuPowerLaw(20000, 8.0, 2.3, 42));
  return *g;
}

void BM_RngNext64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next64());
  }
}
BENCHMARK(BM_RngNext64);

void BM_BottomKOffer(benchmark::State& state) {
  sampling::BottomKSampler<std::uint32_t> sampler(
      static_cast<std::size_t>(state.range(0)), 7);
  std::uint64_t key = 0;
  for (auto _ : state) {
    sampler.Offer(key++, 0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BottomKOffer)->Arg(1 << 10)->Arg(1 << 16);

void BM_StreamReplay(benchmark::State& state) {
  const Graph& g = SharedGraph();
  stream::AdjacencyListStream s(&g, 3);
  struct NullSink {
    std::size_t pairs = 0;
    void BeginList(VertexId) {}
    void OnPair(VertexId, VertexId) { ++pairs; }
    void EndList(VertexId) {}
  };
  for (auto _ : state) {
    NullSink sink;
    s.ReplayPass(sink);
    benchmark::DoNotOptimize(sink.pairs);
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
}
BENCHMARK(BM_StreamReplay);

// Minimal batch-capable algorithm for replay-throughput measurement: the
// per-element sum keeps the compiler from collapsing the traversal while
// the work per pair stays negligible, so the measured time is dispatch +
// memory traffic — the substrate cost the batched refactor targets.
class ReplayTally final : public stream::StreamAlgorithm {
 public:
  int passes() const override { return 1; }
  void OnPair(VertexId, VertexId v) override { sum_ += v; }
  void OnListBatch(VertexId, std::span<const VertexId> list) override {
    std::uint64_t acc = 0;
    for (VertexId v : list) acc += v;
    sum_ += acc;
  }
  std::size_t CurrentSpaceBytes() const override { return sizeof(*this); }
  std::uint64_t sum() const { return sum_; }

 private:
  std::uint64_t sum_ = 0;
};

// 20k-vertex ER graph for the replay-throughput comparison. Denser than
// SharedGraph() (average degree 32 vs 6): the batched path's advantage is
// per-pair dispatch eliminated, so it grows with list length, while at
// degree 6 the per-list boundary work (BeginList/EndList, space sampling)
// dominates both paths and compresses the ratio toward 1.
const Graph& SharedReplayGraph() {
  static const Graph* g =
      new Graph(gen::ErdosRenyiGnp(20000, 32.0 / 20000, 42));
  return *g;
}

const Graph& ReplayGraph(int which) {
  return which == 0 ? SharedReplayGraph() : SharedSocialGraph();
}

// The pre-refactor cost: every pair crosses the driver's metering sink and
// a virtual StreamAlgorithm::OnPair (AlgoT = StreamAlgorithm, PairwiseOnly
// hides the stream's span delivery). Arg 0 = ER, Arg 1 = power-law.
void BM_DriverReplayPairwise(benchmark::State& state) {
  const Graph& g = ReplayGraph(static_cast<int>(state.range(0)));
  stream::AdjacencyListStream s(&g, 3);
  stream::PairwiseOnly<stream::AdjacencyListStream> pairwise(&s);
  for (auto _ : state) {
    ReplayTally tally;
    stream::StreamAlgorithm* base = &tally;
    stream::RunReport report = stream::RunPasses(pairwise, base);
    benchmark::DoNotOptimize(report.pairs_processed);
    benchmark::DoNotOptimize(tally.sum());
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
}
BENCHMARK(BM_DriverReplayPairwise)->Arg(0)->Arg(1);

// The batched path: one devirtualized OnListBatch per adjacency list
// through the same driver. Items/s over BM_DriverReplayPairwise at the
// same Arg is the substrate speedup (CI enforces batched >= pairwise via
// the manifest curves below).
void BM_DriverReplayBatched(benchmark::State& state) {
  const Graph& g = ReplayGraph(static_cast<int>(state.range(0)));
  stream::AdjacencyListStream s(&g, 3);
  for (auto _ : state) {
    ReplayTally tally;
    stream::RunReport report = stream::RunPasses(s, &tally);
    benchmark::DoNotOptimize(report.pairs_processed);
    benchmark::DoNotOptimize(tally.sum());
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
}
BENCHMARK(BM_DriverReplayBatched)->Arg(0)->Arg(1);

// Deterministic replay-throughput measurement for the manifest: best
// pairs/sec over `reps` driver runs. Used post-run (not under
// google-benchmark) so the manifest rows exist whenever --metrics-out is
// given, regardless of --benchmark_filter.
double MeasureReplayPairsPerSec(const Graph& g, bool batched, int reps) {
  stream::AdjacencyListStream s(&g, 3);
  stream::PairwiseOnly<stream::AdjacencyListStream> pairwise(&s);
  const double pairs = static_cast<double>(2 * g.num_edges());
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    ReplayTally tally;
    const auto start = std::chrono::steady_clock::now();
    stream::RunReport report;
    if (batched) {
      report = stream::RunPasses(s, &tally);
    } else {
      stream::StreamAlgorithm* base = &tally;
      report = stream::RunPasses(pairwise, base);
    }
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(report.pairs_processed);
    benchmark::DoNotOptimize(tally.sum());
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    if (seconds > 0.0) best = std::max(best, pairs / seconds);
  }
  return best;
}

// Replays one pass of `s` into `contract`, whole lists through OnList: the
// path RunPassesChecked takes on an AdjacencyListStream.
void ReplayValidated(const stream::AdjacencyListStream& s,
                     stream::AdjacencyListContract* contract) {
  struct Forward {
    stream::AdjacencyListContract* c;
    void BeginList(VertexId u) { c->BeginList(u); }
    void OnList(VertexId u, std::span<const VertexId> list) {
      c->OnList(u, list);
    }
    void EndList(VertexId u) { c->EndList(u); }
  } sink{contract};
  contract->BeginPass(0);
  s.ReplayPass(sink);
  contract->EndPass(0);
}

// Cost of online validation per pair: same replay as BM_StreamReplay but
// with an AdjacencyListContract consuming every event. The items/s delta
// against BM_StreamReplay is the strict-mode overhead.
void BM_StreamReplayValidated(benchmark::State& state) {
  const Graph& g = SharedGraph();
  stream::AdjacencyListStream s(&g, 3);
  for (auto _ : state) {
    stream::AdjacencyListContract validator(&g);
    ReplayValidated(s, &validator);
    benchmark::DoNotOptimize(validator.ok());
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
  // One untimed replay feeds the validator work counters surfaced in the
  // --metrics-out manifest (per-iteration export would skew the timing).
  stream::AdjacencyListContract validator(&g);
  ReplayValidated(s, &validator);
  validator.ExportMetrics(&MicroRegistry());
}
BENCHMARK(BM_StreamReplayValidated);

void BM_ExactTriangles(benchmark::State& state) {
  const Graph& g = SharedSocialGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact::CountTriangles(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_ExactTriangles);

void BM_ExactFourCycles(benchmark::State& state) {
  const Graph& g = SharedGraph();
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact::CountFourCycles(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_ExactFourCycles);

void BM_ProjectivePlane(benchmark::State& state) {
  const std::uint64_t q = state.range(0);
  for (auto _ : state) {
    Graph g = gen::ProjectivePlaneGraph(q);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_ProjectivePlane)->Arg(11)->Arg(23);

void BM_TwoPassTriangleEndToEnd(benchmark::State& state) {
  const Graph& g = SharedSocialGraph();
  stream::AdjacencyListStream s(&g, 5);
  const std::size_t sample = g.num_edges() / state.range(0);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    core::TwoPassTriangleOptions options;
    options.sample_size = sample;
    options.seed = ++seed;
    core::TwoPassTriangleCounter counter(options);
    stream::RunPasses(s, &counter);
    benchmark::DoNotOptimize(counter.Estimate());
  }
  state.SetItemsProcessed(state.iterations() * 4 * g.num_edges());
}
BENCHMARK(BM_TwoPassTriangleEndToEnd)->Arg(8)->Arg(64);

void BM_OnePassTriangleEndToEnd(benchmark::State& state) {
  const Graph& g = SharedSocialGraph();
  stream::AdjacencyListStream s(&g, 5);
  const std::size_t sample = g.num_edges() / state.range(0);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    core::OnePassTriangleOptions options;
    options.sample_size = sample;
    options.seed = ++seed;
    core::OnePassTriangleCounter counter(options);
    stream::RunPasses(s, &counter);
    benchmark::DoNotOptimize(counter.Estimate());
  }
  state.SetItemsProcessed(state.iterations() * 2 * g.num_edges());
}
BENCHMARK(BM_OnePassTriangleEndToEnd)->Arg(8)->Arg(64);

// End-to-end strict mode: the two-pass estimator driven through
// RunPassesChecked. Compare against BM_TwoPassTriangleEndToEnd at the same
// sample divisor for the full-pipeline validation overhead.
void BM_TwoPassTriangleChecked(benchmark::State& state) {
  const Graph& g = SharedSocialGraph();
  stream::AdjacencyListStream s(&g, 5);
  const std::size_t sample = g.num_edges() / state.range(0);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    core::TwoPassTriangleOptions options;
    options.sample_size = sample;
    options.seed = ++seed;
    core::TwoPassTriangleCounter counter(options);
    auto report = stream::RunPassesChecked(s, &counter);
    benchmark::DoNotOptimize(report.ok());
    benchmark::DoNotOptimize(counter.Estimate());
  }
  state.SetItemsProcessed(state.iterations() * 4 * g.num_edges());
}
BENCHMARK(BM_TwoPassTriangleChecked)->Arg(8)->Arg(64);

void BM_TrialSeed(benchmark::State& state) {
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::TrialSeed(42, i++));
  }
}
BENCHMARK(BM_TrialSeed);

// Round-trip cost of one pool task (submit + execute + future wait): the
// per-trial overhead floor of the parallel TrialRunner path.
void BM_ThreadPoolSubmit(benchmark::State& state) {
  runtime::ThreadPool pool(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    pool.Submit([] {}).wait();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ThreadPoolSubmit)->Arg(1)->Arg(4);

// TrialRunner fan-out over a cheap trial fn: scheduling overhead per batch.
void BM_TrialRunnerFanOut(benchmark::State& state) {
  runtime::TrialRunner runner(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto results =
        runner.Run(64, 7, [](std::size_t, std::uint64_t seed) {
          return runtime::TrialResult{
              .estimate = static_cast<double>(seed & 0xff)};
        });
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_TrialRunnerFanOut)->Arg(1)->Arg(4);

// Median amplification end-to-end: sequential (lockstep) vs pool-backed
// chunk-per-worker execution of the same copies. Identical estimates by
// construction; the items/s gap is the parallel speedup.
void BM_EstimateTrianglesAmplified(benchmark::State& state) {
  const Graph& g = SharedSocialGraph();
  stream::AdjacencyListStream s(&g, 5);
  const int threads = static_cast<int>(state.range(0));
  runtime::ThreadPool pool(threads);
  const int kCopies = 9;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    auto out = core::EstimateTriangles(s, g.num_edges() / 16, kCopies,
                                       ++seed,
                                       threads > 1 ? &pool : nullptr);
    benchmark::DoNotOptimize(out.estimate);
  }
  state.SetItemsProcessed(state.iterations() * kCopies * 4 * g.num_edges());
}
BENCHMARK(BM_EstimateTrianglesAmplified)->Arg(1)->Arg(4);

// Replay-throughput rows for the manifest: one curve per (graph family,
// delivery mode), a single (pairs-per-pass, pairs/sec) point each. The CI
// smoke step (scripts/bench_report.py validate) fails the run if a
// "<base>/batched" curve falls below its "<base>/pairwise" sibling.
void WriteReplayThroughputCurves(obs::ManifestWriter& writer) {
  constexpr int kReps = 5;
  struct Row {
    const char* curve;
    const Graph* graph;
    bool batched;
  };
  const Row rows[] = {
      {"replay_throughput/er/pairwise", &SharedReplayGraph(), false},
      {"replay_throughput/er/batched", &SharedReplayGraph(), true},
      {"replay_throughput/powerlaw/pairwise", &SharedSocialGraph(), false},
      {"replay_throughput/powerlaw/batched", &SharedSocialGraph(), true},
  };
  for (const Row& row : rows) {
    const double pairs_per_sec =
        MeasureReplayPairsPerSec(*row.graph, row.batched, kReps);
    obs::Json point = obs::MakeRecord("curve_point");
    point.Set("curve", obs::Json(std::string(row.curve)));
    point.Set("x", obs::Json(static_cast<double>(2 * row.graph->num_edges())));
    point.Set("y", obs::Json(pairs_per_sec));
    writer.Write(point);
  }
}

// Hardware-counter curves behind --prof: one profiled replay per (graph
// family, delivery mode), emitted as curve_point rows so the baseline can
// carry per-pair IPC / cache-miss curves. Per-pair task-clock is always
// available; the hardware-derived curves (ipc, cycles, cache and branch
// misses per pair) only exist on a real PMU — on the rusage fallback the
// run still validates, it just carries the task-clock curve alone, and the
// `prof` records' fallback flag says why.
void WriteProfCurves(obs::ManifestWriter& writer, obs::Profiler* prof) {
  if (prof == nullptr) return;
  constexpr int kReps = 3;
  struct Row {
    const char* curve;
    const Graph* graph;
    bool batched;
  };
  const Row rows[] = {
      {"prof/er/pairwise", &SharedReplayGraph(), false},
      {"prof/er/batched", &SharedReplayGraph(), true},
      {"prof/powerlaw/pairwise", &SharedSocialGraph(), false},
      {"prof/powerlaw/batched", &SharedSocialGraph(), true},
  };
  const bool perf = prof->backend() == obs::ProfBackend::kPerfEvent;
  for (const Row& row : rows) {
    const Graph& g = *row.graph;
    const double pairs = static_cast<double>(2 * g.num_edges());
    stream::AdjacencyListStream s(&g, 3);
    stream::PairwiseOnly<stream::AdjacencyListStream> pairwise(&s);
    // Best-of-reps, like MeasureReplayPairsPerSec: per-pair counter rates
    // are throughput-shaped, so the minimum-interference rep is the signal.
    obs::ProfCounters best;
    for (int r = 0; r < kReps; ++r) {
      obs::ProfScope scope =
          obs::Profiler::Begin(prof, std::string("micro.replay/") + row.curve);
      ReplayTally tally;
      stream::RunReport report;
      if (row.batched) {
        report = stream::RunPasses(s, &tally);
      } else {
        stream::StreamAlgorithm* base = &tally;
        report = stream::RunPasses(pairwise, base);
      }
      benchmark::DoNotOptimize(report.pairs_processed);
      benchmark::DoNotOptimize(tally.sum());
      const obs::ProfCounters delta = scope.End();
      if (r == 0 || delta.task_clock_ns < best.task_clock_ns) best = delta;
    }
    auto emit = [&](const char* metric, double y) {
      obs::Json point = obs::MakeRecord("curve_point");
      point.Set("curve", obs::Json(std::string(row.curve) + "/" + metric));
      point.Set("x", obs::Json(pairs));
      point.Set("y", obs::Json(y));
      writer.Write(point);
    };
    emit("task_clock_ns_per_pair",
         static_cast<double>(best.task_clock_ns) / pairs);
    if (perf && best.cycles > 0) {
      emit("ipc", best.Ipc());
      emit("cycles_per_pair", static_cast<double>(best.cycles) / pairs);
      emit("cache_miss_per_pair",
           static_cast<double>(best.cache_misses) / pairs);
      emit("branch_miss_per_pair",
           static_cast<double>(best.branch_misses) / pairs);
    }
  }
}

}  // namespace
}  // namespace cyclestream

// Custom main instead of BENCHMARK_MAIN(): strips the repo-wide manifest
// flags (google-benchmark rejects unrecognized arguments) and, when
// --metrics-out is given, writes a JSONL manifest with the registry
// snapshot after the benchmarks finish; its run header, `prof` records and
// run_end trailer come from bench_util's RunRecord, ProfRecords and
// RunEndRecord. --chrome-trace wraps the google-benchmark run and the
// replay-throughput measurement in bench phase spans.
int main(int argc, char** argv) {
  using namespace cyclestream;
  const auto start = std::chrono::steady_clock::now();
  std::string metrics_out;
  std::string chrome_trace;
  bool prof_enabled = false;
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value_of = [&](std::string_view prefix) -> const char* {
      if (arg.rfind(prefix, 0) == 0 && arg.size() > prefix.size()) {
        return argv[i] + prefix.size();
      }
      return nullptr;
    };
    if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
      continue;
    }
    if (const char* v = value_of("--metrics-out=")) {
      metrics_out = v;
      continue;
    }
    if (arg == "--chrome-trace" && i + 1 < argc) {
      chrome_trace = argv[++i];
      continue;
    }
    if (const char* v = value_of("--chrome-trace=")) {
      chrome_trace = v;
      continue;
    }
    if (arg == "--prof") {
      prof_enabled = true;
      continue;
    }
    passthrough.push_back(argv[i]);
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  std::unique_ptr<obs::TraceSession> spans;
  if (!chrome_trace.empty()) {
    spans = std::make_unique<obs::TraceSession>();
    spans->SetProcessName("micro_substrate");
  }
  std::unique_ptr<obs::Profiler> prof;
  if (prof_enabled) {
    obs::Profiler::Options prof_options;
    prof_options.trace = spans.get();
    prof = std::make_unique<obs::Profiler>(prof_options);
    std::fprintf(stderr, "[bench] prof backend: %s%s\n",
                 obs::ProfBackendName(prof->backend()),
                 prof->fallback() ? " (perf_event denied, fell back)" : "");
  }
  {
    auto span =
        obs::TraceSession::Begin(spans.get(), "google-benchmark", "bench");
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  if (!metrics_out.empty()) {
    auto span =
        obs::TraceSession::Begin(spans.get(), "replay-throughput", "bench");
    auto writer = obs::ManifestWriter::Open(metrics_out);
    if (!writer.ok()) {
      std::fprintf(stderr, "warning: --metrics-out %s: %s\n",
                   metrics_out.c_str(),
                   std::string(writer.status().message()).c_str());
      return 0;
    }
    obs::Json run = bench::RunRecord(argc, argv);
    run.Set("prof", obs::Json(prof != nullptr));
    writer->Write(run);
    WriteReplayThroughputCurves(*writer);
    if (prof != nullptr) {
      auto prof_span =
          obs::TraceSession::Begin(spans.get(), "prof-curves", "bench");
      WriteProfCurves(*writer, prof.get());
      prof_span.End();
      for (const obs::Json& record : bench::ProfRecords(*prof)) {
        writer->Write(record);
      }
      prof->ExportMetrics(&MicroRegistry());
      obs::SetBuildInfoGauge(&MicroRegistry());
    }
    obs::Json metrics = obs::MakeRecord("metrics");
    metrics.Set("metrics", MicroRegistry().Read().ToJson());
    writer->Write(metrics);
    writer->Write(bench::RunEndRecord(
        *writer, std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count()));
  }
  if (spans != nullptr) {
    Status st = spans->WriteTo(chrome_trace);
    if (!st.ok()) {
      std::fprintf(stderr, "warning: --chrome-trace %s: %s\n",
                   chrome_trace.c_str(), std::string(st.message()).c_str());
    }
  }
  return 0;
}
