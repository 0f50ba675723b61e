// The traced run's layer ledger: each layer a pair passes through is timed
// from outside, on the workload's own inputs, as an increment over the
// layer below it:
//   stream    bare ReplayPass into a counting sink
//   driver    RunPasses(Tally) minus replay
//   contract  RunPassesChecked(Tally) minus RunPasses(Tally), per model
//   core.K    RunPasses(estimator K) minus RunPasses(Tally)
//   median    ParallelCopies::Run, lockstep and on a 2-thread pool
//   service   EstimatorService Create/Append/Flush/Query on the same tapes
//   snapshot  CheckpointShard / RestoreShard of that service
// Kinds a workload does not run are costed at its slot count, so every
// workload reports every kind.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common.h"
#include "core/median.h"
#include "runtime/thread_pool.h"

namespace cyclestream {
namespace benchmark {
namespace {

using service::EstimatorKind;
using service::EstimatorService;
using service::StreamId;

// Median seconds of `run(make())` over repeated fresh instances: at least
// three reps and 50 ms, or one rep once 0.5 s is spent.
template <typename MakeFn, typename RunFn>
double TimeFresh(MakeFn&& make, RunFn&& run) {
  std::vector<double> samples;
  double spent = 0.0;
  while (samples.empty() ||
         (spent < 0.5 && (samples.size() < 3 || spent < 0.05))) {
    auto instance = make();
    const Clock::time_point t0 = Clock::now();
    run(instance);
    samples.push_back(SecondsBetween(t0, Clock::now()));
    spent += samples.back();
  }
  return Median(std::move(samples));
}

// A StreamAlgorithm that only counts pairs: the null estimator the replay,
// driver and contract layers are costed with.
class Tally final : public stream::StreamAlgorithm {
 public:
  explicit Tally(int passes) : passes_(passes) {}
  int passes() const override { return passes_; }
  bool AcceptsModel(stream::StreamModel) const override { return true; }
  void OnPair(VertexId, VertexId) override { ++pairs_; }
  void OnListBatch(VertexId, std::span<const VertexId> list) override {
    pairs_ += list.size();
  }
  std::size_t CurrentSpaceBytes() const override { return sizeof(*this); }

 private:
  int passes_;
  std::uint64_t pairs_ = 0;
};

struct PairCounter {
  std::uint64_t pairs = 0;
  void BeginList(VertexId) {}
  void OnList(VertexId, std::span<const VertexId> list) { pairs += list.size(); }
  void EndList(VertexId) {}
};

// One estimator over one graph, costed layer by layer. `job.reference` is
// the ledger's own driver run.
struct LedgerJob {
  const Job* workload_job = nullptr;  // null for a kind the workload skips
  Job job;
  double replay = 0.0, driver = 0.0, checked = 0.0, core = 0.0;  // seconds
  double pairs() const {
    return static_cast<double>(job.reference.report.pairs_processed);
  }
};

std::vector<LedgerJob> LedgerJobs(const Inputs& in) {
  std::vector<LedgerJob> out;
  for (std::size_t g = 0; g < in.graphs.size(); ++g) {
    const Job* first = nullptr;
    for (const Job& job : in.jobs) {
      if (job.graph == g && first == nullptr) first = &job;
    }
    for (int k = 0; k < service::kEstimatorKinds; ++k) {
      LedgerJob lj;
      for (const Job& job : in.jobs) {
        if (job.graph == g && static_cast<int>(job.spec.kind) == k) {
          lj.workload_job = &job;
        }
      }
      if (lj.workload_job != nullptr) {
        lj.job = *lj.workload_job;
      } else {
        lj.job.graph = g;
        lj.job.spec.kind = static_cast<EstimatorKind>(k);
        lj.job.spec.slots = first->spec.slots;
        lj.job.spec.seed = SeedFor(first->spec.seed, 77 + k);
      }
      out.push_back(std::move(lj));
    }
  }
  return out;
}

void CostJob(const GraphInput& g, LedgerJob& lj, SpanRecorder* spans,
             Results& results) {
  const std::string name = service::KindName(lj.job.spec.kind);
  const int passes = MakeEstimator(lj.job.spec).algo->passes();
  WithStream(g, lj.job, [&](const auto& s) {
    {
      auto span = SpanRecorder::Begin(spans, "replay " + name, "stream");
      lj.replay = TimeFresh([] { return PairCounter(); },
                            [&](PairCounter& c) {
                              for (int p = 0; p < passes; ++p) s.ReplayPass(c);
                            });
    }
    {
      auto span = SpanRecorder::Begin(spans, "driver " + name, "driver");
      lj.driver = TimeFresh([&] { return Tally(passes); }, [&](Tally& t) {
        stream::RunPasses(s, static_cast<stream::StreamAlgorithm*>(&t));
      });
    }
    {
      auto span = SpanRecorder::Begin(spans, "contract " + name, "contract");
      lj.checked = TimeFresh([&] { return Tally(passes); }, [&](Tally& t) {
        const StatusOr<stream::RunReport> r = stream::RunPassesChecked(
            s, static_cast<stream::StreamAlgorithm*>(&t));
        results.CheckOk(r.status(), "RunPassesChecked " + name);
      });
    }
    auto span = SpanRecorder::Begin(spans, "core " + name, "core");
    lj.core = TimeFresh([&] { return MakeEstimator(lj.job.spec); },
                        [&](service::HostedEstimator& h) {
                          lj.job.reference.report =
                              stream::RunPasses(s, h.algo.get());
                          lj.job.reference.estimate = h.estimate(*h.algo);
                        });
  });
  if (lj.workload_job != nullptr &&
      lj.workload_job->reference.report.passes_requested != 0) {
    results.Check(MatchesReference(lj.job.reference.estimate,
                                   lj.job.reference.report,
                                   lj.workload_job->reference),
                  name + " ledger run differs from the workload reference");
  }
  if (lj.job.spec.kind == EstimatorKind::kExactStreamTriangle) {
    results.Check(
        lj.job.reference.estimate == static_cast<double>(g.triangles),
        "exact-stream differs from exact::CountTriangles");
  }
}

void ReportMedianLayer(const Inputs& in, const std::vector<LedgerJob>& jobs,
                       SpanRecorder* spans, Results& results) {
  runtime::ThreadPool pool(kPoolThreads);
  double single = 0.0, lockstep = 0.0, pooled = 0.0, pairs = 0.0;
  for (const LedgerJob& lj : jobs) {
    const int kind = static_cast<int>(lj.job.spec.kind);
    if (kind < 1 || kind > 6) continue;  // the amplified kinds
    const GraphInput& g = in.GraphOf(lj.job);
    const std::string name = service::KindName(lj.job.spec.kind);
    std::vector<service::EstimatorSpec> specs;
    for (int c = 0; c < kCopies; ++c) {
      service::EstimatorSpec spec = lj.job.spec;
      spec.seed = SeedFor(lj.job.spec.seed, static_cast<std::uint64_t>(c));
      specs.push_back(spec);
    }
    std::vector<double> want;
    for (const service::EstimatorSpec& spec : specs) {
      auto span = SpanRecorder::Begin(spans, "single " + name, "median");
      double estimate = 0.0;
      single += TimeFresh([&] { return MakeEstimator(spec); },
                          [&](service::HostedEstimator& h) {
                            stream::RunPasses(*g.adjacency, h.algo.get());
                            estimate = h.estimate(*h.algo);
                          });
      want.push_back(estimate);
    }
    auto make_copies = [&] {
      std::vector<std::unique_ptr<stream::StreamAlgorithm>> algos;
      for (const service::EstimatorSpec& spec : specs) {
        algos.push_back(MakeEstimator(spec).algo);
      }
      return core::ParallelCopies(std::move(algos));
    };
    const auto estimate_of = MakeEstimator(specs[0]).estimate;
    auto check = [&](core::ParallelCopies& copies, const char* mode) {
      for (int c = 0; c < kCopies; ++c) {
        const double got = estimate_of(*copies.copy(c));
        results.Check(std::memcmp(&got, &want[c], sizeof(double)) == 0,
                      name + " " + mode + " copy " + std::to_string(c) +
                          " differs from the single-copy driver");
      }
    };
    {
      auto span = SpanRecorder::Begin(spans, "lockstep " + name, "median");
      lockstep += TimeFresh(make_copies, [&](core::ParallelCopies& copies) {
        copies.Run(*g.adjacency, nullptr);
        check(copies, "lockstep");
      });
    }
    auto span = SpanRecorder::Begin(spans, "pooled " + name, "median");
    pooled += TimeFresh(make_copies, [&](core::ParallelCopies& copies) {
      copies.Run(*g.adjacency, &pool);
      check(copies, "pooled");
    });
    pairs += lj.pairs();
  }
  results.Metric("median.parallel_efficiency",
                 single / (kPoolThreads * pooled), "ratio");
  results.Metric("median.lockstep_ns_per_pair", 1e9 * lockstep / pairs,
                 "ns/pair");
  results.Metric("median.pooled_ns_per_pair", 1e9 * pooled / pairs, "ns/pair");
}

// Reports the service and snapshot layers and returns the driver ns/pair
// (RunPasses of each stream's estimator) on the same tapes.
double ReportServiceLayers(const Inputs& in, std::vector<LedgerJob>& ledger,
                           const EndToEnd& e2e, SpanRecorder* spans,
                           Results& results) {
  // The workload's own jobs, with tapes.
  std::vector<const LedgerJob*> costed;
  std::vector<const Job*> jobs;
  for (LedgerJob& lj : ledger) {
    if (lj.workload_job == nullptr) continue;
    if (lj.job.tape.empty()) lj.job.tape = BuildTape(in.GraphOf(lj.job), lj.job);
    costed.push_back(&lj);
    jobs.push_back(&lj.job);
  }
  const std::size_t streams =
      e2e.service_streams != 0 ? e2e.service_streams : jobs.size();
  double pairs = 0.0, driver_seconds = 0.0;
  std::vector<double> shard_pairs(kShards, 0.0);
  for (StreamId id = 1; id <= streams; ++id) {
    const LedgerJob& lj = *costed[(id - 1) % costed.size()];
    pairs += lj.pairs();
    driver_seconds += lj.core;
    shard_pairs[EstimatorService::ShardOf(id, kShards)] += lj.pairs();
  }

  const ServiceSweep plain = SweepService(in, jobs, streams, ServiceConfig(),
                                          false, 0, spans, results);
  const ServiceSweep timed = SweepService(in, jobs, streams, ServiceConfig(),
                                          true, 0, spans, results);
  const ServiceSweep single = SweepService(
      in, jobs, streams, ServiceConfig(1, 1), false, 0, spans, results);

  const double service_ns = 1e9 * plain.wall / pairs;
  const double driver_ns = 1e9 * driver_seconds / pairs;
  results.Metric("service.append_call_ns_p50", Quantile(timed.append_ns, 0.5),
                 "ns");
  results.Metric("service.append_call_ns_p99", Quantile(timed.append_ns, 0.99),
                 "ns");
  results.Metric("service.create_s_p50", Quantile(plain.create, 0.5), "s");
  results.Metric("service.flush_s_p50", Quantile(timed.flush, 0.5), "s");
  results.Metric("service.query_s_p50", Quantile(plain.query, 0.5), "s");
  results.Metric("service.query_s_p99", Quantile(plain.query, 0.99), "s");
  results.Metric("service.ns_per_pair", service_ns, "ns/pair");
  results.Metric("service.driver_ns_per_pair", driver_ns, "ns/pair");
  results.Metric("service.cost_ratio_vs_driver", service_ns / driver_ns,
                 "ratio");
  results.Metric("service.shard_skew",
                 *std::max_element(shard_pairs.begin(), shard_pairs.end()) /
                     (pairs / kShards),
                 "ratio");
  results.Metric("service.pairs_per_s.single_thread", pairs / single.wall,
                 "pairs/s");
  results.Metric("snapshot.checkpoint_s_p50", Quantile(timed.checkpoint, 0.5),
                 "s");
  results.Metric("snapshot.checkpoint_s_p99", Quantile(timed.checkpoint, 0.99),
                 "s");
  results.Metric("snapshot.checkpoint_bytes_p50",
                 Quantile(timed.checkpoint_bytes, 0.5), "bytes");
  results.Metric("snapshot.restore_s_p50", Quantile(timed.restore, 0.5), "s");
  return driver_ns;
}

}  // namespace

void MeasureLayers(const Inputs& in, const EndToEnd& e2e, SpanRecorder* spans,
                   Results& results) {
  auto ledger_span = SpanRecorder::Begin(spans, "ledger", "ledger");
  std::vector<LedgerJob> ledger = LedgerJobs(in);
  for (LedgerJob& lj : ledger) CostJob(in.GraphOf(lj.job), lj, spans, results);

  double pairs = 0.0, replay = 0.0, driver = 0.0;
  double contract[2] = {0.0, 0.0}, contract_pairs[2] = {0.0, 0.0};
  // A batch round's predicted cost: per job, replay + driver, the contract
  // on the checked path, and the copies' estimator work spread over the
  // threads.
  double e2e_pairs = 0.0, e2e_sum = 0.0;
  for (const LedgerJob& lj : ledger) {
    pairs += lj.pairs();
    replay += lj.replay;
    driver += lj.driver - lj.replay;
    const int model =
        lj.job.spec.kind == EstimatorKind::kRandomOrderTriangle ? 1 : 0;
    contract[model] += lj.checked - lj.driver;
    contract_pairs[model] += lj.pairs();
    if (lj.workload_job != nullptr) {
      e2e_pairs += lj.pairs();
      e2e_sum += lj.driver + (e2e.checked ? lj.checked - lj.driver : 0.0) +
                 static_cast<double>(e2e.copies) / e2e.threads *
                     (lj.core - lj.driver);
    }
  }
  results.Metric("stream.replay_ns_per_pair", 1e9 * replay / pairs, "ns/pair");
  results.Metric("driver.ns_per_pair", 1e9 * driver / pairs, "ns/pair");
  results.Metric("contract.adjacency_list.ns_per_pair",
                 1e9 * contract[0] / contract_pairs[0], "ns/pair");
  results.Metric("contract.random_order.ns_per_pair",
                 1e9 * contract[1] / contract_pairs[1], "ns/pair");

  for (int k = 0; k < service::kEstimatorKinds; ++k) {
    double seconds = 0.0, kind_pairs = 0.0, audited = 0.0, reported = 0.0;
    for (const LedgerJob& lj : ledger) {
      if (static_cast<int>(lj.job.spec.kind) != k) continue;
      seconds += lj.core - lj.driver;
      kind_pairs += lj.pairs();
      const stream::RunReport& report = lj.job.reference.report;
      audited = std::max(audited,
                         static_cast<double>(report.audited_peak_bytes));
      reported = std::max(reported,
                          static_cast<double>(report.reported_peak_bytes));
    }
    const std::string base =
        std::string("core.") + service::KindName(static_cast<EstimatorKind>(k));
    results.Metric(base + ".ns_per_pair", 1e9 * seconds / kind_pairs, "ns/pair");
    results.Metric(base + ".audited_peak_bytes", audited, "bytes");
    results.Metric(base + ".reported_peak_bytes", reported, "bytes");
  }

  ReportMedianLayer(in, ledger, spans, results);
  const double driver_ns = ReportServiceLayers(in, ledger, e2e, spans, results);

  // A service workload's cost is compared with the driver and estimator
  // work on its tapes, spread over the service's threads.
  const double sum_ns = e2e.service_streams != 0
                            ? driver_ns / kServiceThreads
                            : 1e9 * e2e_sum / e2e_pairs;
  results.Metric("ledger.e2e_ns_per_pair", e2e.ns_per_pair, "ns/pair");
  results.Metric("ledger.layer_sum_ns_per_pair", sum_ns, "ns/pair");
  results.Metric("ledger.residual_frac",
                 (e2e.ns_per_pair - sum_ns) / e2e.ns_per_pair, "ratio");
}

}  // namespace benchmark
}  // namespace cyclestream
