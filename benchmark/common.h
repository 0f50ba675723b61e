// Shared pieces of the benchmark binary: timing statistics, the benchmark's
// own span recorder, metric/diagnostic collection, and the generated inputs
// (graphs, streams, event tapes, driver references) every workload and the
// layer ledger run on.
//
// The benchmark drives the library only through public calls of gen, exact,
// stream, core, runtime, service and snapshot. Every telemetry pointer the
// library offers stays null: spans are recorded here, around the calls.

#ifndef CYCLESTREAM_BENCHMARK_COMMON_H_
#define CYCLESTREAM_BENCHMARK_COMMON_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "service/estimator_host.h"
#include "service/service.h"
#include "stream/adjacency_stream.h"
#include "stream/driver.h"
#include "stream/random_order_stream.h"

namespace cyclestream {
namespace benchmark {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Throughput is gated in units of a host probe. The benchmark was built on
// a shared 4-vCPU VM whose speed drifts over minutes as other tenants load
// the host: ten 30 s runs of one commit spread by 6-34% in raw pairs/s. A
// fixed job timed just before each round slows with the host, and the ratio
// of probe time to round time spread by 3.7-6.1% over ten runs where raw
// pairs/s spread by 6.0-10.6%.

/// Wall seconds of the host probe: three fixed jobs (a memory walk, a hash
/// set, a sort) made of no library code.
double HostProbe();

/// One timed unit of a workload's work (a round or a sweep), with the host
/// probe timed just before it.
struct Repetition {
  double wall = 0.0;   // seconds
  double probe = 0.0;  // HostProbe() seconds
};

/// Median over `reps` of pairs * probe / wall: the pairs each repetition
/// processed in the time the host probe took just before it.
double PairsPerProbe(const std::vector<Repetition>& reps, double pairs);

/// Seed of input `tag` under the run's `--seed`.
std::uint64_t SeedFor(std::uint64_t seed, std::uint64_t tag);

/// Chrome trace-event recorder. Spans are kept in memory and written once
/// at the end of the run; a null recorder makes every span a no-op.
class SpanRecorder {
 public:
  SpanRecorder();

  /// RAII span: records [construction, End() or destruction) under `name`.
  /// Spans sharing `id` belong to one request (one round, sweep or epoch).
  class Span {
   public:
    Span() = default;
    Span(SpanRecorder* recorder, std::string name, std::string category,
         std::uint64_t id);
    Span(Span&& other) noexcept;
    Span& operator=(Span&& other) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { End(); }
    void End();

   private:
    SpanRecorder* recorder_ = nullptr;
    std::string name_;
    std::string category_;
    std::uint64_t id_ = 0;
    Clock::time_point start_;
  };

  static Span Begin(SpanRecorder* recorder, std::string name,
                    std::string category, std::uint64_t id = 0) {
    if (recorder == nullptr) return Span();
    return Span(recorder, std::move(name), std::move(category), id);
  }

  /// Records a span whose interval was measured by the caller.
  void Add(std::string name, std::string category, std::uint64_t id,
           Clock::time_point start, Clock::time_point end);

  /// Writes {"traceEvents": [...]} to `path`; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;
  std::size_t size() const;

 private:
  struct Event {
    std::string name;
    std::string category;
    std::uint64_t id;
    std::uint32_t tid;
    double start_us;
    double duration_us;
  };
  void Record(Event event);
  std::uint32_t ThreadIndex();

  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Event> events_;                    // guarded by mu_
  std::vector<std::pair<std::size_t, std::uint32_t>> threads_;  // guarded by mu_
};

/// Metrics and checks of one workload run. Metrics are printed by name;
/// every check counts as attempted, and a failed one makes the run fail.
class Results {
 public:
  explicit Results(std::string workload) : workload_(std::move(workload)) {}

  void Metric(const std::string& name, double value, const std::string& unit);
  /// One comparison against a reference; `what` is printed on failure.
  void Check(bool ok, const std::string& what);
  /// A Status that must be OK, counted as one attempted operation.
  void CheckOk(const Status& status, const std::string& what);
  /// Counts `n` checks that passed elsewhere (on another thread).
  void Pass(std::uint64_t n) { attempted_ += n; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Prints one "metric <workload> <name> <value> <unit>" line per metric,
  /// then the JSON summary as the last line.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::string workload_;
  std::vector<Entry> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Reports the throughput of `reps`, each of which processed `pairs` pairs:
/// `pairs_per_probe` (the gated metric), the raw `pairs_per_s` median with
/// its quartiles, `host.probe_s` and `rounds`. Returns the raw median
/// pairs/s.
double ReportThroughput(const std::vector<Repetition>& reps, double pairs,
                        Results& results);

// The thread budget: load comes from one process with at most 3 threads.
// Amplified runs are median-of-kCopies on a kPoolThreads pool beside the
// main thread; the service runs kShards shards on kServiceThreads threads
// beside one producer.
constexpr int kCopies = 4;
constexpr int kPoolThreads = 2;
constexpr int kShards = 4;
constexpr int kServiceThreads = 2;

inline service::ServiceOptions ServiceConfig(int shards = kShards,
                                             int threads = kServiceThreads) {
  service::ServiceOptions options;
  options.shards = shards;
  options.threads = threads;
  return options;
}

/// Settings shared by every workload.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  // Chrome-trace output when trace is on
};

// ---------------------------------------------------------------------------
// Generated inputs.

/// One client event: a whole adjacency list (or u-run) or a pass boundary.
struct Event {
  bool end_pass = false;
  VertexId u = 0;
  std::vector<VertexId> list;
};

/// A graph with its exact counts and both stream materializations.
struct GraphInput {
  Graph graph;
  std::uint64_t triangles = 0;
  std::uint64_t four_cycles = 0;  // filled by FinishRun
  std::unique_ptr<stream::AdjacencyListStream> adjacency;
  std::unique_ptr<stream::RandomOrderStream> random_order;
};

/// Estimate and driver report of one trusted `RunPasses` run.
struct Reference {
  double estimate = 0.0;
  stream::RunReport report;
};

/// One estimator over one graph: the unit every workload and layer is
/// costed on. The random-order kind reads the graph's random-order stream,
/// every other kind its adjacency-list stream.
struct Job {
  std::size_t graph = 0;
  service::EstimatorSpec spec;
  Reference reference;      // filled when the workload needs references
  std::vector<Event> tape;  // filled when the workload feeds the service
};

/// Wall time of each set-up step, in seconds.
struct SetupTimes {
  double graph = 0.0;      // gen calls
  double exact = 0.0;      // exact triangle counts
  double reference = 0.0;  // trusted driver runs
  double tape = 0.0;       // streams and service tapes
};

struct Inputs {
  std::vector<std::unique_ptr<GraphInput>> graphs;
  std::vector<Job> jobs;
  SetupTimes times;

  const GraphInput& GraphOf(const Job& job) const { return *graphs[job.graph]; }
  std::uint64_t Pairs() const;  // Σ reference pairs over all jobs
};

/// What a workload generates from its seed.
struct InputSpec {
  enum class Family { kErdosRenyi, kChungLu };
  Family family = Family::kErdosRenyi;
  std::size_t n = 0;
  double density = 0.0;  // p for G(n, p), average degree for Chung–Lu
  double gamma = 2.3;    // Chung–Lu power-law exponent
  int variants = 1;      // graphs generated
  std::vector<service::EstimatorKind> kinds;
  std::uint64_t slots = 0;           // 0: m / slots_divisor
  std::uint64_t slots_divisor = 32;
  bool references = true;
  bool tapes = false;
};

/// Builds the inputs of `spec` from the run's seed repeatedly, reports the median `setup_s` and the
/// per-step `gen.graph_s`, `setup.reference_s` and `setup.tape_s` medians,
/// and returns the last build with the median step times in `times`.
Inputs TimedSetup(const InputSpec& spec, const RunConfig& config,
                  SpanRecorder* spans, Results& results);

/// Calls `fn` with the stream job `job` reads.
template <typename Fn>
decltype(auto) WithStream(const GraphInput& g, const Job& job, Fn&& fn) {
  if (job.spec.kind == service::EstimatorKind::kRandomOrderTriangle) {
    return fn(*g.random_order);
  }
  return fn(*g.adjacency);
}

service::HostedEstimator MakeEstimator(const service::EstimatorSpec& spec);

/// Trusted `RunPasses` of a fresh estimator for `job`.
Reference RunReference(const GraphInput& g, const Job& job);

/// Event tape of `job`: every pass of its stream as client events.
std::vector<Event> BuildTape(const GraphInput& g, const Job& job);

/// True iff estimate (bitwise), pairs and both peaks equal the reference.
bool MatchesReference(double estimate, const stream::RunReport& report,
                      const Reference& want);

/// The exact count the kind estimates (4-cycles or triangles).
double TruthOf(const GraphInput& g, service::EstimatorKind kind);

/// What one SweepService call measured. `wall` runs from the first Append
/// to the return of the last Flush; the rest are per-call samples.
struct ServiceSweep {
  double wall = 0.0;
  double state_bytes = 0.0;  // Σ audited peaks of the finished streams
  std::uint64_t stalls = 0;  // waits past 1 s, each made to start a drain
  std::vector<double> create, flush, query, append_ns;
  std::vector<double> checkpoint, checkpoint_bytes, restore;
};

/// Hosts `streams` streams, round-robin over `jobs`, on a fresh service:
/// creates them, feeds every tape maximally interleaved, flushes, then
/// queries each and checks it against its job's reference (a failed check
/// counts in `results`). With `instrumented`, also times each Append and
/// checkpoints every shard at 8 points of the feed, restoring each
/// checkpoint into a scratch service.
ServiceSweep SweepService(const Inputs& in, const std::vector<const Job*>& jobs,
                          std::size_t streams,
                          const service::ServiceOptions& options,
                          bool instrumented, std::uint64_t index,
                          SpanRecorder* spans, Results& results);

// ---------------------------------------------------------------------------
// Workloads (batch.cc, service_load.cc) and the traced layer ledger
// (ledger.cc).

void RunCheckedSmallState(const RunConfig& config, Results& results);
void RunAmplifiedLargeState(const RunConfig& config, Results& results);
void RunServiceIngest(const RunConfig& config, Results& results);

/// How a workload ran its jobs, for the ledger's residual: measured cost
/// minus the sum of the layers it went through.
struct EndToEnd {
  double ns_per_pair = 0.0;  // measured, untraced
  bool checked = false;      // batch rounds run through RunPassesChecked
  int copies = 1;            // estimator copies per job in a batch round
  int threads = 1;           // threads the copies are spread over
  // A service workload: the streams it hosts, round-robin over the jobs.
  // 0 for a batch workload, whose service layer hosts one stream per job.
  std::size_t service_streams = 0;
};

/// Per-layer metrics measured on `inputs` from outside each layer.
void MeasureLayers(const Inputs& inputs, const EndToEnd& e2e,
                   SpanRecorder* spans, Results& results);

/// Ends a workload run. An untraced run reports `peak_rss_bytes`. A traced
/// run counts the 4-cycle ground truth, reports `exact.count_s` and the
/// `rel_error_p50` of `estimates` (one per job), and writes the recorder's
/// Chrome trace to the configured path (a checked operation).
void FinishRun(const RunConfig& config, Inputs& in,
               const std::vector<double>& estimates,
               const SpanRecorder& recorder, Results& results);

}  // namespace benchmark
}  // namespace cyclestream

#endif  // CYCLESTREAM_BENCHMARK_COMMON_H_
