#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory_resource>
#include <numeric>
#include <thread>
#include <unordered_set>

#include "exact/four_cycle.h"
#include "exact/triangle.h"
#include "gen/chung_lu.h"
#include "gen/erdos_renyi.h"
#include "util/check.h"
#include "util/hashing.h"
#include "util/random.h"

namespace cyclestream {
namespace benchmark {
namespace {

constexpr std::uint64_t kListOrderSeed = 3;

double PeakRssBytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // Linux: KiB
}

void WriteJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t SeedFor(std::uint64_t seed, std::uint64_t tag) {
  return Mix128To64(seed, tag);
}

double HostProbe() {
  // Three fixed jobs, each slowed most by a different shared resource: a
  // walk of dependent loads and stores over a table twice the L2 of the
  // machine the benchmark was built on (cache and memory latency), 20k keys
  // hashed into a node-based set (pointer chasing), and a sort of 50k keys
  // (branches). Of the three alone and their sums, the sum of all three
  // tracked the workloads best. Nothing in them depends on what the last
  // round left behind: the set allocates from its own arena, not the heap
  // the library shares, and an untimed pass over all their memory puts it
  // in the same cache state every time.
  constexpr std::size_t kWords = std::size_t{1} << 19;  // 4 MiB
  constexpr std::uint64_t kWalkSteps = 100000;
  constexpr std::uint64_t kSetKeys = 20000;
  constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;
  static std::vector<std::uint64_t> table(kWords);
  static std::vector<std::byte> arena(std::size_t{2} << 20);
  static const std::vector<std::uint32_t> keys = [] {
    std::vector<std::uint32_t> k(50000);
    Rng rng(1);
    for (std::uint32_t& key : k) key = static_cast<std::uint32_t>(rng.Next64());
    return k;
  }();
  static std::vector<std::uint32_t> sorted(keys.size());

  std::uint64_t x =
      std::accumulate(table.begin(), table.end(), std::uint64_t{0}) +
      std::accumulate(keys.begin(), keys.end(), std::uint64_t{0});
  std::fill(arena.begin(), arena.end(), std::byte{0});
  std::fill(sorted.begin(), sorted.end(), 0u);
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = 0; i < kWalkSteps; ++i) {
    x = table[(x ^ i) & (kWords - 1)] + i * kGolden;
    table[i & (kWords - 1)] = x;
  }
  {
    std::pmr::monotonic_buffer_resource pool(
        arena.data(), arena.size(), std::pmr::null_memory_resource());
    std::pmr::unordered_set<std::uint64_t> set(&pool);
    for (std::uint64_t i = 0; i < kSetKeys; ++i) set.insert(i * kGolden + x);
    for (std::uint64_t i = 0; i < kSetKeys; ++i) x += set.count(i * kGolden);
  }
  std::copy(keys.begin(), keys.end(), sorted.begin());
  std::sort(sorted.begin(), sorted.end());
  x += sorted[x % sorted.size()];
  const double seconds = SecondsBetween(t0, Clock::now());
  table[0] = x;  // keeps every step's result live
  return seconds;
}

double PairsPerProbe(const std::vector<Repetition>& reps, double pairs) {
  std::vector<double> ratios;
  for (const Repetition& r : reps) ratios.push_back(pairs * r.probe / r.wall);
  return Median(std::move(ratios));
}

// ---------------------------------------------------------------------------
// SpanRecorder

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

SpanRecorder::Span::Span(SpanRecorder* recorder, std::string name,
                         std::string category, std::uint64_t id)
    : recorder_(recorder),
      name_(std::move(name)),
      category_(std::move(category)),
      id_(id),
      start_(Clock::now()) {}

SpanRecorder::Span::Span(Span&& other) noexcept
    : recorder_(std::exchange(other.recorder_, nullptr)),
      name_(std::move(other.name_)),
      category_(std::move(other.category_)),
      id_(other.id_),
      start_(other.start_) {}

SpanRecorder::Span& SpanRecorder::Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    recorder_ = std::exchange(other.recorder_, nullptr);
    name_ = std::move(other.name_);
    category_ = std::move(other.category_);
    id_ = other.id_;
    start_ = other.start_;
  }
  return *this;
}

void SpanRecorder::Span::End() {
  if (recorder_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  recorder_->Record(
      {std::move(name_), std::move(category_), id_, 0,
       std::chrono::duration<double, std::micro>(start_ - recorder_->origin_)
           .count(),
       std::chrono::duration<double, std::micro>(end - start_).count()});
  recorder_ = nullptr;
}

void SpanRecorder::Add(std::string name, std::string category,
                       std::uint64_t id, Clock::time_point start,
                       Clock::time_point end) {
  Record({std::move(name), std::move(category), id, 0,
          std::chrono::duration<double, std::micro>(start - origin_).count(),
          std::chrono::duration<double, std::micro>(end - start).count()});
}

std::uint32_t SpanRecorder::ThreadIndex() {
  const std::size_t self = std::hash<std::thread::id>()(std::this_thread::get_id());
  for (const auto& [hash, index] : threads_) {
    if (hash == self) return index;
  }
  const auto index = static_cast<std::uint32_t>(threads_.size() + 1);
  threads_.emplace_back(self, index);
  return index;
}

void SpanRecorder::Record(Event event) {
  std::lock_guard<std::mutex> lock(mu_);
  event.tid = ThreadIndex();
  events_.push_back(std::move(event));
}

std::size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    std::fputs("{\"name\":", f);
    WriteJsonString(f, e.name);
    std::fputs(",\"cat\":", f);
    WriteJsonString(f, e.category);
    std::fprintf(f,
                 ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu}}%s\n",
                 e.tid, e.start_us, e.duration_us,
                 static_cast<unsigned long long>(e.id),
                 i + 1 < events_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Results

void Results::Metric(const std::string& name, double value,
                     const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Results::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (++failed_ <= 10) {
    std::fprintf(stderr, "[%s] check failed: %s\n", workload_.c_str(),
                 what.c_str());
  }
}

void Results::CheckOk(const Status& status, const std::string& what) {
  Check(status.ok(), what + ": " + status.ToString());
}

double ReportThroughput(const std::vector<Repetition>& reps, double pairs,
                        Results& results) {
  std::vector<double> rates, probes;
  for (const Repetition& r : reps) {
    rates.push_back(pairs / r.wall);
    probes.push_back(r.probe);
  }
  const double rate = Median(rates);
  results.Metric("pairs_per_probe", PairsPerProbe(reps, pairs), "pairs/probe");
  results.Metric("pairs_per_s", rate, "pairs/s");
  results.Metric("pairs_per_s.q1", Quantile(rates, 0.25), "pairs/s");
  results.Metric("pairs_per_s.q3", Quantile(rates, 0.75), "pairs/s");
  results.Metric("host.probe_s", Median(probes), "s");
  results.Metric("rounds", static_cast<double>(reps.size()), "count");
  return rate;
}

void Results::Print() const {
  for (const Entry& m : metrics_) {
    std::printf("metric %s %s %.17g %s\n", workload_.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed_ == 0 && attempted_ > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    if (std::isfinite(m.value)) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    } else {
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.unit.c_str());
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Inputs

std::uint64_t Inputs::Pairs() const {
  std::uint64_t pairs = 0;
  for (const Job& job : jobs) pairs += job.reference.report.pairs_processed;
  return pairs;
}

service::HostedEstimator MakeEstimator(const service::EstimatorSpec& spec) {
  StatusOr<service::HostedEstimator> hosted = service::MakeHosted(spec);
  CYCLESTREAM_CHECK(hosted.ok());
  return std::move(hosted).value();
}

Reference RunReference(const GraphInput& g, const Job& job) {
  service::HostedEstimator hosted = MakeEstimator(job.spec);
  Reference ref;
  ref.report = WithStream(g, job, [&](const auto& s) {
    return stream::RunPasses(s, hosted.algo.get());
  });
  ref.estimate = hosted.estimate(*hosted.algo);
  return ref;
}

std::vector<Event> BuildTape(const GraphInput& g, const Job& job) {
  struct Recorder {
    std::vector<Event>* events;
    void BeginList(VertexId u) { events->push_back({false, u, {}}); }
    void OnPair(VertexId, VertexId v) { events->back().list.push_back(v); }
    void EndList(VertexId) {}
  };
  std::vector<Event> events;
  const int passes = MakeEstimator(job.spec).algo->passes();
  for (int pass = 0; pass < passes; ++pass) {
    WithStream(g, job, [&](const auto& s) { s.ReplayPass(Recorder{&events}); });
    events.push_back({true, 0, {}});
  }
  return events;
}

bool MatchesReference(double estimate, const stream::RunReport& report,
                      const Reference& want) {
  return std::memcmp(&estimate, &want.estimate, sizeof(double)) == 0 &&
         report.pairs_processed == want.report.pairs_processed &&
         report.reported_peak_bytes == want.report.reported_peak_bytes &&
         report.audited_peak_bytes == want.report.audited_peak_bytes;
}

double TruthOf(const GraphInput& g, service::EstimatorKind kind) {
  using service::EstimatorKind;
  if (kind == EstimatorKind::kOnePassFourCycle ||
      kind == EstimatorKind::kTwoPassFourCycle) {
    return static_cast<double>(g.four_cycles);
  }
  return static_cast<double>(g.triangles);
}

namespace {

// Builds the inputs of `spec` from `seed`, timing each step.
Inputs BuildInputs(const InputSpec& spec, std::uint64_t seed,
                   SpanRecorder* spans) {
  Inputs in;
  for (int v = 0; v < spec.variants; ++v) {
    auto g = std::make_unique<GraphInput>();
    const std::uint64_t graph_seed = SeedFor(seed, 100 + v);
    Clock::time_point t0 = Clock::now();
    {
      auto span = SpanRecorder::Begin(spans, "gen", "setup");
      g->graph = spec.family == InputSpec::Family::kChungLu
                     ? gen::ChungLuPowerLaw(spec.n, spec.density, spec.gamma,
                                            graph_seed)
                     : gen::ErdosRenyiGnp(spec.n, spec.density, graph_seed);
    }
    Clock::time_point t1 = Clock::now();
    in.times.graph += SecondsBetween(t0, t1);
    {
      auto span = SpanRecorder::Begin(spans, "exact", "setup");
      g->triangles = exact::CountTriangles(g->graph);
    }
    t0 = Clock::now();
    in.times.exact += SecondsBetween(t1, t0);
    {
      auto span = SpanRecorder::Begin(spans, "streams", "setup");
      // The lists come in one fixed order for every seed; the seed shuffles
      // each list. On skewed graphs the hubs' positions in the stream set
      // the 4-cycle estimators' state several-fold, so an order that moved
      // with the seed would swamp every cross-seed comparison.
      std::vector<VertexId> list_order(g->graph.num_vertices());
      std::iota(list_order.begin(), list_order.end(), VertexId{0});
      Rng(kListOrderSeed).Shuffle(list_order.data(), list_order.size());
      g->adjacency = std::make_unique<stream::AdjacencyListStream>(
          &g->graph, std::move(list_order), SeedFor(seed, 200 + v));
      g->random_order = std::make_unique<stream::RandomOrderStream>(
          &g->graph, SeedFor(seed, 300 + v));
    }
    in.times.tape += SecondsBetween(t0, Clock::now());
    for (service::EstimatorKind kind : spec.kinds) {
      Job job;
      job.graph = in.graphs.size();
      job.spec.kind = kind;
      job.spec.slots = spec.slots != 0
                           ? spec.slots
                           : std::max<std::uint64_t>(
                                 1, g->graph.num_edges() / spec.slots_divisor);
      job.spec.seed =
          SeedFor(seed, 1000 + 16 * static_cast<std::uint64_t>(v) +
                            static_cast<std::uint64_t>(kind));
      in.jobs.push_back(std::move(job));
    }
    in.graphs.push_back(std::move(g));
  }
  for (Job& job : in.jobs) {
    const GraphInput& g = in.GraphOf(job);
    if (spec.references) {
      auto span = SpanRecorder::Begin(spans, "reference", "setup");
      const Clock::time_point t0 = Clock::now();
      job.reference = RunReference(g, job);
      in.times.reference += SecondsBetween(t0, Clock::now());
    }
    if (spec.tapes) {
      auto span = SpanRecorder::Begin(spans, "tape", "setup");
      const Clock::time_point t0 = Clock::now();
      job.tape = BuildTape(g, job);
      in.times.tape += SecondsBetween(t0, Clock::now());
    }
  }
  return in;
}

}  // namespace

Inputs TimedSetup(const InputSpec& spec, const RunConfig& config,
                  SpanRecorder* spans, Results& results) {
  // At least three builds and 1 s of them: millisecond set-ups get hundreds
  // of repeats, and the median does not hang on one moment of a shared
  // machine (over 0.2 s of builds, the median moved by 40% between runs).
  std::vector<double> total, graph, exact, reference, tape;
  Inputs in;
  double spent = 0.0;
  for (int r = 0; r < 3 || spent < 1.0; ++r) {
    in = Inputs();  // free the previous build before timing the next
    auto span = SpanRecorder::Begin(spans, "setup", "setup", r);
    const Clock::time_point t0 = Clock::now();
    in = BuildInputs(spec, config.seed, spans);
    total.push_back(SecondsBetween(t0, Clock::now()));
    spent += total.back();
    graph.push_back(in.times.graph);
    exact.push_back(in.times.exact);
    reference.push_back(in.times.reference);
    tape.push_back(in.times.tape);
  }
  in.times = {Median(graph), Median(exact), Median(reference), Median(tape)};
  results.Metric("setup_s", Median(total), "s");
  results.Metric("gen.graph_s", in.times.graph, "s");
  results.Metric("setup.reference_s", in.times.reference, "s");
  results.Metric("setup.tape_s", in.times.tape, "s");
  return in;
}

void FinishRun(const RunConfig& config, Inputs& in,
               const std::vector<double>& estimates,
               const SpanRecorder& recorder, Results& results) {
  if (!config.trace) {
    results.Metric("peak_rss_bytes", PeakRssBytes(), "bytes");
    return;
  }
  // The 4-cycle ground truth only feeds the accuracy diagnostic. It takes
  // seconds and hundreds of MB on the batch graphs, so only the traced run
  // counts it, last, and it stays out of setup_s.
  const Clock::time_point t0 = Clock::now();
  for (auto& g : in.graphs) g->four_cycles = exact::CountFourCycles(g->graph);
  results.Metric("exact.count_s",
                 in.times.exact + SecondsBetween(t0, Clock::now()), "s");
  std::vector<double> errors;
  for (std::size_t i = 0; i < in.jobs.size(); ++i) {
    const double truth = TruthOf(in.GraphOf(in.jobs[i]), in.jobs[i].spec.kind);
    if (truth > 0) errors.push_back(std::abs(estimates[i] - truth) / truth);
  }
  results.Metric("rel_error_p50", Median(errors), "ratio");
  results.Check(recorder.WriteChromeTrace(config.trace_path),
                "write Chrome trace " + config.trace_path);
  results.Metric("trace.spans", static_cast<double>(recorder.size()), "count");
}

}  // namespace benchmark
}  // namespace cyclestream
