// The service workload, on 32 templates: 4 ER G(48, 0.25) graphs x the 8
// estimator kinds at slots = 16, so lists average ~12 pairs and per-op
// service costs (the Append copy, the mailbox node, promises and wakeups)
// dominate.
//
// service_ingest (closed loop): 1024 streams round-robin over the templates,
//   fed maximally interleaved by one producer thread, then flushed; every
//   stream is then queried and compared bitwise with its driver reference.
//
// The service runs with 4 shards on 2 threads, so load uses at most 3
// threads. The traced run's ledger also drives this sweep on the batch
// workloads' inputs, with checkpoints and restores (SweepService).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "common.h"
#include "service/service.h"

namespace cyclestream {
namespace benchmark {
namespace {

using service::EstimatorService;
using service::StreamId;
using service::StreamView;

constexpr int kMinSweeps = 3;

InputSpec TemplateSpec() {
  InputSpec spec;
  spec.family = InputSpec::Family::kErdosRenyi;
  spec.n = 48;
  spec.density = 0.25;
  spec.variants = 4;
  for (int k = 0; k < service::kEstimatorKinds; ++k) {
    spec.kinds.push_back(static_cast<service::EstimatorKind>(k));
  }
  spec.slots = 16;
  spec.tapes = true;
  return spec;
}

const Job& JobOf(const Inputs& in, StreamId id) {
  return in.jobs[(id - 1) % in.jobs.size()];
}

// Checks one finished stream's view against its job's reference, and the
// exact-stream kind against the exact triangle count.
std::string ViewMismatch(const Inputs& in, const Job& job, StreamId id,
                         const StatusOr<StreamView>& view) {
  const std::string name = std::string(service::KindName(job.spec.kind)) +
                           " stream " + std::to_string(id);
  if (!view.ok()) return name + ": " + view.status().ToString();
  if (!view->finished) return name + " did not finish";
  if (!MatchesReference(view->estimate, view->report, job.reference)) {
    return name + " differs from the driver reference";
  }
  if (job.spec.kind == service::EstimatorKind::kExactStreamTriangle &&
      view->estimate != static_cast<double>(in.GraphOf(job).triangles)) {
    return name + " differs from exact::CountTriangles";
  }
  return "";
}

// EstimatorService::Drain can return with an op still in its shard's
// mailbox. It releases the shard's scheduled flag and then re-checks the
// mailbox, and on x86 the load may take effect before the store: a producer
// that pushes in between still sees the flag set and starts no drain. The
// op then waits for the next op on its shard, and a caller that waits on it
// alone hangs (seen once in several thousand sweeps, every thread parked).
// Every wait here is therefore bounded: after kStall without a result it
// queries an id no stream uses on that shard, which starts a drain, and
// counts a stall.
constexpr auto kStall = std::chrono::seconds(1);

// An id on `shard` of `svc` that no stream uses: the sweeps number their
// streams from 1.
StreamId IdleId(const EstimatorService& svc, int shard) {
  StreamId id = StreamId{1} << 40;
  while (EstimatorService::ShardOf(id, svc.shards()) != shard) ++id;
  return id;
}

template <typename T>
T Await(EstimatorService& svc, int shard, std::future<T> result,
        std::uint64_t& stalls) {
  while (result.wait_for(kStall) != std::future_status::ready) {
    ++stalls;
    svc.Query(IdleId(svc, shard));  // its NotFound result is not needed
  }
  return result.get();
}

// Flush with bounded waits: a query on every shard, which its shard takes
// only after every op sent before it.
void Barrier(EstimatorService& svc, std::uint64_t& stalls) {
  std::vector<std::future<StatusOr<StreamView>>> done;
  for (int shard = 0; shard < svc.shards(); ++shard) {
    done.push_back(svc.Query(IdleId(svc, shard)));
  }
  for (int shard = 0; shard < svc.shards(); ++shard) {
    Await(svc, shard, std::move(done[shard]), stalls);
  }
}

std::vector<double> ReferenceEstimates(const Inputs& in) {
  std::vector<double> estimates;
  for (const Job& job : in.jobs) estimates.push_back(job.reference.estimate);
  return estimates;
}

}  // namespace

ServiceSweep SweepService(const Inputs& in, const std::vector<const Job*>& jobs,
                          std::size_t streams,
                          const service::ServiceOptions& options,
                          bool instrumented, std::uint64_t index,
                          SpanRecorder* spans, Results& results) {
  constexpr std::size_t kCheckpointPoints = 8;
  auto job_of = [&](StreamId id) -> const Job& {
    return *jobs[(id - 1) % jobs.size()];
  };
  ServiceSweep sweep;
  std::vector<std::pair<int, std::vector<std::uint8_t>>> manifests;
  {
    auto sweep_span = SpanRecorder::Begin(spans, "sweep", "service", index);
    EstimatorService svc(options);
    {
      auto span = SpanRecorder::Begin(spans, "create", "service", index);
      for (StreamId id = 1; id <= streams; ++id) {
        const Clock::time_point t0 = Clock::now();
        results.CheckOk(Await(svc, EstimatorService::ShardOf(id, svc.shards()),
                              svc.Create(id, job_of(id).spec), sweep.stalls),
                        "Create");
        sweep.create.push_back(SecondsBetween(t0, Clock::now()));
      }
    }
    std::size_t longest = 0;
    for (const Job* job : jobs) longest = std::max(longest, job->tape.size());

    const Clock::time_point begin = Clock::now();
    {
      auto span = SpanRecorder::Begin(spans, "append", "service", index);
      std::size_t next_point = 1;
      for (std::size_t k = 0; k < longest; ++k) {
        if (instrumented &&
            k == next_point * longest / (kCheckpointPoints + 1)) {
          ++next_point;
          const Clock::time_point t0 = Clock::now();
          Barrier(svc, sweep.stalls);
          sweep.flush.push_back(SecondsBetween(t0, Clock::now()));
          for (int shard = 0; shard < options.shards; ++shard) {
            auto checkpoint_span =
                SpanRecorder::Begin(spans, "checkpoint", "snapshot", index);
            const Clock::time_point c0 = Clock::now();
            StatusOr<std::vector<std::uint8_t>> bytes =
                Await(svc, shard, svc.CheckpointShard(shard), sweep.stalls);
            sweep.checkpoint.push_back(SecondsBetween(c0, Clock::now()));
            results.CheckOk(bytes.status(), "CheckpointShard");
            if (!bytes.ok()) continue;
            sweep.checkpoint_bytes.push_back(
                static_cast<double>(bytes->size()));
            manifests.emplace_back(shard, std::move(bytes).value());
          }
        }
        for (StreamId id = 1; id <= streams; ++id) {
          const std::vector<Event>& tape = job_of(id).tape;
          if (k >= tape.size()) continue;
          const Event& e = tape[k];
          if (e.end_pass) {
            svc.EndPass(id);
          } else if (instrumented) {
            const Clock::time_point t0 = Clock::now();
            svc.Append(id, e.u, e.list);
            sweep.append_ns.push_back(1e9 * SecondsBetween(t0, Clock::now()));
          } else {
            svc.Append(id, e.u, e.list);
          }
        }
      }
    }
    {
      auto span = SpanRecorder::Begin(spans, "flush", "service", index);
      const Clock::time_point t0 = Clock::now();
      Barrier(svc, sweep.stalls);
      const Clock::time_point flushed = Clock::now();
      sweep.flush.push_back(SecondsBetween(t0, flushed));
      sweep.wall = SecondsBetween(begin, flushed);
    }
    auto span = SpanRecorder::Begin(spans, "query", "service", index);
    for (StreamId id = 1; id <= streams; ++id) {
      const Clock::time_point t0 = Clock::now();
      const StatusOr<StreamView> view =
          Await(svc, EstimatorService::ShardOf(id, svc.shards()),
                svc.Query(id), sweep.stalls);
      sweep.query.push_back(SecondsBetween(t0, Clock::now()));
      const std::string mismatch = ViewMismatch(in, job_of(id), id, view);
      results.Check(mismatch.empty(), mismatch);
      if (view.ok()) {
        sweep.state_bytes +=
            static_cast<double>(view->report.audited_peak_bytes);
      }
    }
  }
  if (!manifests.empty()) {
    EstimatorService scratch(ServiceConfig(options.shards, 1));
    for (auto& [shard, bytes] : manifests) {
      auto span = SpanRecorder::Begin(spans, "restore", "snapshot", index);
      const Clock::time_point t0 = Clock::now();
      results.CheckOk(Await(scratch, shard,
                            scratch.RestoreShard(shard, std::move(bytes)),
                            sweep.stalls),
                      "RestoreShard");
      sweep.restore.push_back(SecondsBetween(t0, Clock::now()));
    }
  }
  return sweep;
}

void RunServiceIngest(const RunConfig& config, Results& results) {
  SpanRecorder recorder;
  SpanRecorder* spans = config.trace ? &recorder : nullptr;
  constexpr std::size_t kStreams = 1024;
  Inputs in = TimedSetup(TemplateSpec(), config, spans, results);
  double pairs = 0.0;
  for (StreamId id = 1; id <= kStreams; ++id) {
    pairs += static_cast<double>(JobOf(in, id).reference.report.pairs_processed);
  }

  std::vector<const Job*> jobs;
  for (const Job& job : in.jobs) jobs.push_back(&job);
  std::uint64_t stalls = 0;
  auto sweeps = [&](double seconds, std::uint64_t first, SpanRecorder* s,
                    double* state_bytes) {
    std::vector<Repetition> reps;
    const Clock::time_point begin = Clock::now();
    while (static_cast<int>(reps.size()) < kMinSweeps ||
           SecondsBetween(begin, Clock::now()) < seconds) {
      Repetition r;
      r.probe = HostProbe();
      const ServiceSweep sweep =
          SweepService(in, jobs, kStreams, ServiceConfig(), false,
                       first + reps.size(), s, results);
      r.wall = sweep.wall;
      reps.push_back(r);
      *state_bytes = sweep.state_bytes;
      stalls += sweep.stalls;
    }
    return reps;
  };
  double state_bytes = 0.0;
  const std::vector<Repetition> reps = sweeps(
      config.trace ? config.seconds / 2 : config.seconds, 0, nullptr,
      &state_bytes);
  const double rate = ReportThroughput(reps, pairs, results);
  results.Metric("core.state_peak_bytes", state_bytes, "bytes");

  if (config.trace) {
    double unused = 0.0;
    const std::vector<Repetition> traced =
        sweeps(config.seconds / 2, 2000, spans, &unused);
    results.Metric("trace.overhead_frac",
                   1.0 - PairsPerProbe(traced, pairs) / PairsPerProbe(reps, pairs),
                   "ratio");
    EndToEnd e2e;
    e2e.ns_per_pair = 1e9 / rate;
    e2e.service_streams = kStreams;
    MeasureLayers(in, e2e, spans, results);
  }
  results.Metric("service.stalls", static_cast<double>(stalls), "count");
  FinishRun(config, in, ReferenceEstimates(in), recorder, results);
}

}  // namespace benchmark
}  // namespace cyclestream
