// The two closed-loop batch workloads: one graph, every estimator kind,
// round after round.
//
// checked_small_state: small estimator state (slots = 64) under the strict
//   driver, so the replay, driver and contract layers carry most of the
//   cost. The random-order kind makes EdgeStreamContract run beside
//   AdjacencyListContract.
// amplified_large_state: per-copy state of 0.1-2.5 MB (slots = m/32), two
//   copies per pool thread, so the larger kinds outgrow L2, under
//   median-of-4-copies amplification on a 2-thread pool, on
//   the trusted path: estimator containers and ParallelCopies carry the
//   cost, and contract changes must not move it.

#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/median.h"
#include "runtime/thread_pool.h"

namespace cyclestream {
namespace benchmark {
namespace {

using service::EstimatorKind;

constexpr int kMinRounds = 3;

// Copy `c` of a median-amplified estimator: the seed split core::Estimate*
// uses.
service::EstimatorSpec CopySpec(service::EstimatorSpec spec, std::uint64_t c) {
  spec.seed = SeedFor(spec.seed, c);
  return spec;
}

std::vector<EstimatorKind> KindRange(int first, int last) {
  std::vector<EstimatorKind> kinds;
  for (int k = first; k <= last; ++k) {
    kinds.push_back(static_cast<EstimatorKind>(k));
  }
  return kinds;
}

// Runs `round(index, spans)` for at least `seconds` and kMinRounds rounds,
// each after a host probe; returns each round's wall time and probe.
template <typename RoundFn>
std::vector<Repetition> RunRounds(double seconds, SpanRecorder* spans,
                                  std::uint64_t first_index, RoundFn&& round) {
  std::vector<Repetition> reps;
  const Clock::time_point begin = Clock::now();
  while (static_cast<int>(reps.size()) < kMinRounds ||
         SecondsBetween(begin, Clock::now()) < seconds) {
    Repetition r;
    r.probe = HostProbe();
    const Clock::time_point t0 = Clock::now();
    round(first_index + reps.size(), spans);
    r.wall = SecondsBetween(t0, Clock::now());
    reps.push_back(r);
  }
  return reps;
}

// Untraced rounds for the whole run, or, when tracing, half the run
// untraced (the end-to-end numbers) and half traced (the overhead).
// Reports throughput and returns the raw median pairs/s.
template <typename RoundFn>
double MeasureRounds(const RunConfig& config, SpanRecorder* spans,
                     double pairs, Results& results, RoundFn&& round) {
  const std::vector<Repetition> reps = RunRounds(
      config.trace ? config.seconds / 2 : config.seconds, nullptr, 1, round);
  const double rate = ReportThroughput(reps, pairs, results);
  if (config.trace) {
    const std::vector<Repetition> traced =
        RunRounds(config.seconds / 2, spans, 1 + reps.size(), round);
    results.Metric("trace.overhead_frac",
                   1.0 - PairsPerProbe(traced, pairs) / PairsPerProbe(reps, pairs),
                   "ratio");
  }
  return rate;
}

}  // namespace

void RunCheckedSmallState(const RunConfig& config, Results& results) {
  SpanRecorder recorder;
  SpanRecorder* spans = config.trace ? &recorder : nullptr;

  InputSpec spec;
  spec.family = InputSpec::Family::kErdosRenyi;
  spec.n = 10000;
  spec.density = 32.0 / static_cast<double>(spec.n);
  spec.kinds = KindRange(1, 7);
  spec.slots = 64;
  Inputs in = TimedSetup(spec, config, spans, results);

  double state_bytes = 0.0;
  std::vector<double> estimates;
  auto round = [&](std::uint64_t index, SpanRecorder* s) {
    auto round_span = SpanRecorder::Begin(s, "round", "workload", index);
    state_bytes = 0.0;
    estimates.clear();
    for (const Job& job : in.jobs) {
      const GraphInput& g = in.GraphOf(job);
      auto span = SpanRecorder::Begin(s, service::KindName(job.spec.kind),
                                      "driver.checked", index);
      service::HostedEstimator hosted = MakeEstimator(job.spec);
      StatusOr<stream::RunReport> report = WithStream(g, job, [&](const auto& st) {
        return stream::RunPassesChecked(st, hosted.algo.get());
      });
      span.End();
      const std::string what =
          std::string(service::KindName(job.spec.kind)) + " round " +
          std::to_string(index);
      if (!report.ok()) {
        results.CheckOk(report.status(), what);
        estimates.push_back(0.0);
        continue;
      }
      const double estimate = hosted.estimate(*hosted.algo);
      estimates.push_back(estimate);
      results.Check(MatchesReference(estimate, *report, job.reference),
                    what + " differs from the trusted driver");
      state_bytes += static_cast<double>(report->audited_peak_bytes);
    }
  };
  const double pairs = static_cast<double>(in.Pairs());
  const double rate = MeasureRounds(config, spans, pairs, results, round);
  results.Metric("core.state_peak_bytes", state_bytes, "bytes");

  if (config.trace) {
    EndToEnd e2e;
    e2e.ns_per_pair = 1e9 / rate;
    e2e.checked = true;
    MeasureLayers(in, e2e, spans, results);
  }
  FinishRun(config, in, estimates, recorder, results);
}

void RunAmplifiedLargeState(const RunConfig& config, Results& results) {
  SpanRecorder recorder;
  SpanRecorder* spans = config.trace ? &recorder : nullptr;

  InputSpec spec;
  spec.family = InputSpec::Family::kChungLu;
  spec.n = 5000;
  spec.density = 16.0;
  spec.gamma = 2.3;
  spec.kinds = KindRange(1, 6);
  spec.slots_divisor = 32;
  spec.references = false;  // each copy gets its own reference below
  Inputs in = TimedSetup(spec, config, spans, results);

  runtime::ThreadPool pool(kPoolThreads);
  // References: every copy driven alone through the trusted driver, two at
  // a time on the pool (which also warms the allocator before timing). The
  // ParallelCopies contract makes each pooled copy bit-identical to its own.
  std::vector<Reference> want(in.jobs.size() * kCopies);
  {
    std::vector<std::future<void>> pending;
    for (std::size_t i = 0; i < want.size(); ++i) {
      pending.push_back(pool.Submit([&in, &want, i] {
        Job copy = in.jobs[i / kCopies];
        copy.spec = CopySpec(copy.spec, i % kCopies);
        want[i] = RunReference(in.GraphOf(copy), copy);
      }));
    }
    for (auto& f : pending) f.get();
  }
  double pairs = 0.0, state_bytes = 0.0;
  std::vector<double> medians;
  std::vector<decltype(service::HostedEstimator::estimate)> estimate_of;
  for (std::size_t j = 0; j < in.jobs.size(); ++j) {
    estimate_of.push_back(MakeEstimator(in.jobs[j].spec).estimate);
    pairs += static_cast<double>(want[j * kCopies].report.pairs_processed);
    std::vector<double> copy_estimates;
    for (int c = 0; c < kCopies; ++c) {
      const Reference& ref = want[j * kCopies + c];
      state_bytes += static_cast<double>(ref.report.audited_peak_bytes);
      copy_estimates.push_back(ref.estimate);
    }
    medians.push_back(core::Median(std::move(copy_estimates)));
  }

  auto round = [&](std::uint64_t index, SpanRecorder* s) {
    auto round_span = SpanRecorder::Begin(s, "round", "workload", index);
    for (std::size_t j = 0; j < in.jobs.size(); ++j) {
      const Job& job = in.jobs[j];
      auto span = SpanRecorder::Begin(s, service::KindName(job.spec.kind),
                                      "median.pooled", index);
      std::vector<std::unique_ptr<stream::StreamAlgorithm>> algos;
      for (int c = 0; c < kCopies; ++c) {
        algos.push_back(MakeEstimator(CopySpec(job.spec, c)).algo);
      }
      core::ParallelCopies copies(std::move(algos));
      copies.Run(*in.GraphOf(job).adjacency, &pool);
      span.End();
      for (int c = 0; c < kCopies; ++c) {
        const double got = estimate_of[j](*copies.copy(c));
        results.Check(
            std::memcmp(&got, &want[j * kCopies + c].estimate,
                        sizeof(double)) == 0,
            std::string(service::KindName(job.spec.kind)) + " copy " +
                std::to_string(c) + " round " + std::to_string(index) +
                " differs from the single-copy driver");
      }
    }
  };
  const double rate = MeasureRounds(config, spans, pairs, results, round);
  results.Metric("core.state_peak_bytes", state_bytes, "bytes");

  if (config.trace) {
    EndToEnd e2e;
    e2e.ns_per_pair = 1e9 / rate;
    e2e.copies = kCopies;
    e2e.threads = kPoolThreads;
    MeasureLayers(in, e2e, spans, results);
  }
  FinishRun(config, in, medians, recorder, results);
}

}  // namespace benchmark
}  // namespace cyclestream
