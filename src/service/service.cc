#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <utility>

#include "obs/exposition.h"
#include "service/mailbox.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "util/check.h"
#include "util/hashing.h"

namespace cyclestream {
namespace service {
namespace {

enum class OpKind : std::uint8_t {
  kCreate,
  kList,
  kEndPass,
  kQuery,
  kCheckpoint,
  kRestore,
  kKill,
  kBarrier,
};

constexpr double kLatencyBounds[] = {1e-6, 1e-5, 1e-4, 1e-3,
                                     1e-2, 0.1,  1.0,  10.0};

// Distinct flow-id namespace per service instance (never reused).
std::uint64_t NextServiceSalt() {
  static std::atomic<std::uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) * 0x9e3779b97f4a7c15ULL;
}

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kCreate: return "create";
    case OpKind::kList: return "append";
    case OpKind::kEndPass: return "end_pass";
    case OpKind::kQuery: return "query";
    case OpKind::kCheckpoint: return "checkpoint";
    case OpKind::kRestore: return "restore";
    case OpKind::kKill: return "kill";
    case OpKind::kBarrier: return "barrier";
  }
  return "unknown";
}

}  // namespace

// One mailbox message. Exactly one promise pointer is set, matching the
// kind; data-path ops (kList, kEndPass) carry none.
struct EstimatorService::Op {
  OpKind kind = OpKind::kBarrier;
  StreamId id = 0;
  TraceContext trace;
  VertexId u = 0;
  // kList: the list's slice of the shard's pair arena (set by Push).
  std::size_t list_begin = 0;
  std::size_t list_size = 0;
  EstimatorSpec spec;
  std::vector<std::uint8_t> manifest;
  std::chrono::steady_clock::time_point enqueued;
  std::unique_ptr<std::promise<Status>> status_promise;
  std::unique_ptr<std::promise<StatusOr<StreamView>>> view_promise;
  std::unique_ptr<std::promise<StatusOr<std::vector<std::uint8_t>>>>
      bytes_promise;
  std::unique_ptr<std::promise<std::size_t>> count_promise;
  std::unique_ptr<std::promise<void>> barrier_promise;
};

// Complete state of one hosted stream. Mirrors what the single-stream
// driver tracks per run (pass cursor + RunReport, metered by the driver's
// SampleSpace), so the service's view is bit-identical to a sequential
// driver run of the same event sequence.
struct EstimatorService::StreamState {
  EstimatorSpec spec;
  HostedEstimator hosted;
  int pass = 0;
  bool finished = false;
  Status error;  // latched by misuse; OK in the normal lifecycle
  stream::RunReport report;

  // Checkpoint layout of a manifest entry between its spec and its
  // estimator's section (absent while an error is latched): the run
  // cursor, the latched error and the report.
  static void Fields(auto& self, auto& ar) {
    ar.U64(self.pass);
    ar.Bool(self.finished);
    bool has_error = !self.error.ok();
    ar.Bool(has_error);
    if (has_error) {
      StatusCode code = self.error.code();
      std::string message = self.error.message();
      ar.U32(code);
      ar.String(message);
      if constexpr (ar.kLoading) {
        if (ar.ok() && code != StatusCode::kOk) {
          self.error = Status(code, std::move(message));
        }
      }
    }
    stream::RunReport::Fields(self.report, ar);
  }
};

struct EstimatorService::Shard {
  std::size_t index = 0;
  Mailbox<Op, VertexId> mailbox;
  // Consumer-only (the shard's drain task): never touched off-thread. The
  // batch buffers trade places with the mailbox's on every take, so their
  // capacity is reused across drains.
  std::vector<Op> batch;
  std::vector<VertexId> batch_pairs;
  std::map<StreamId, StreamState> streams;
  // Bound metric handles (unset when the service runs unmetered).
  obs::Counter ops, lists, pairs, queries, checkpoints, restores, kills,
      drains, dropped, errors;
  obs::Histogram queue_depth, latency, occupancy;
  // Latency attribution beyond mailbox wait: whole-batch drain time and
  // single-op estimator compute time.
  obs::Histogram drain_seconds, process_seconds;
};

EstimatorService::EstimatorService(const ServiceOptions& options)
    : drain_budget_(std::max<std::size_t>(options.drain_budget, 1)),
      metrics_(options.metrics),
      flight_(options.flight),
      trace_(options.trace),
      prof_(options.prof),
      trace_salt_(NextServiceSalt()),
      pool_(options.threads > 0 ? options.threads
                                : std::max(options.shards, 1)) {
  const int shards = std::max(options.shards, 1);
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = static_cast<std::size_t>(i);
    if (metrics_ != nullptr) {
      // Error latches and drops carry a per-shard label suffix so a scrape
      // can localize a failing shard; high-rate data-path counters stay
      // unlabeled (one merged series).
      const std::string by_shard = "/shard=" + std::to_string(i);
      shard->ops = metrics_->GetCounter("service.ops");
      shard->lists = metrics_->GetCounter("service.lists");
      shard->pairs = metrics_->GetCounter("service.pairs");
      shard->queries = metrics_->GetCounter("service.queries");
      shard->checkpoints = metrics_->GetCounter("service.checkpoints");
      shard->restores = metrics_->GetCounter("service.restores");
      shard->kills = metrics_->GetCounter("service.kills");
      shard->drains = metrics_->GetCounter("service.drains");
      shard->dropped = metrics_->GetCounter("service.dropped_ops" + by_shard);
      shard->errors =
          metrics_->GetCounter("service.errors_latched" + by_shard);
      // Materialize the error-class series at 0 so a clean run still
      // exposes them — operators alert on value, not absence.
      shard->dropped.Increment(0);
      shard->errors.Increment(0);
      shard->queue_depth = metrics_->GetHistogram("service.queue_depth",
                                                  obs::Log2Bounds(0, 20));
      shard->latency = metrics_->GetHistogram(
          "service.op_latency_seconds",
          std::vector<double>(std::begin(kLatencyBounds),
                              std::end(kLatencyBounds)));
      shard->occupancy = metrics_->GetHistogram("service.shard_occupancy",
                                                obs::Log2Bounds(0, 20));
      shard->drain_seconds = metrics_->GetHistogram(
          "service.drain_batch_seconds",
          std::vector<double>(std::begin(kLatencyBounds),
                              std::end(kLatencyBounds)));
      shard->process_seconds = metrics_->GetHistogram(
          "service.op_process_seconds",
          std::vector<double>(std::begin(kLatencyBounds),
                              std::end(kLatencyBounds)));
    }
    shards_.push_back(std::move(shard));
  }
}

EstimatorService::~EstimatorService() {
  // Resolve everything in flight; the pool destructor then finishes any
  // still-running drain task and joins.
  Flush();
}

int EstimatorService::ShardOf(StreamId id, int shards) {
  CYCLESTREAM_CHECK_GE(shards, 1);
  return static_cast<int>(Mix64(id) % static_cast<std::uint64_t>(shards));
}

EstimatorService::Shard& EstimatorService::ShardFor(StreamId id) {
  return *shards_[static_cast<std::size_t>(ShardOf(id, shards()))];
}

TraceContext EstimatorService::StampTrace(StreamId id) {
  TraceContext context;
  if (trace_ == nullptr) return context;  // all-zero: data path untouched
  // Stable per-stream flow id, salted per service instance so two services
  // sharing one TraceSession (e.g. a sweep) never merge their arrow
  // chains. Mix64 maps exactly one input to 0, which would read as
  // "untraced" — nudge it to 1.
  context.trace_id = Mix64(id ^ trace_salt_);
  if (context.trace_id == 0) context.trace_id = 1;
  context.span_id = next_span_id_.fetch_add(1, std::memory_order_relaxed);
  return context;
}

void EstimatorService::Enqueue(Shard& shard, Op op,
                               std::span<const VertexId> list) {
  if (metrics_ != nullptr || trace_ != nullptr) {
    op.enqueued = std::chrono::steady_clock::now();
  }
  if (trace_ != nullptr && op.trace.trace_id != 0) {
    // Producer side of the request flow: a small slice on the caller's
    // lane with the flow anchor inside it, so the arrow starts (Create) or
    // steps (everything else) from where the client handed the op off.
    const std::uint64_t start = trace_->NowNs();
    trace_->EmitFlow(op.kind == OpKind::kCreate
                         ? obs::TraceSession::FlowPhase::kStart
                         : obs::TraceSession::FlowPhase::kStep,
                     "stream", "service", op.trace.trace_id, start);
    obs::Json args = obs::Json::Object();
    args.Set("stream", obs::Json(op.id));
    args.Set("span", obs::Json(op.trace.span_id));
    trace_->EmitComplete(std::string("service.enqueue ") + OpName(op.kind),
                         "service", start, trace_->NowNs(), std::move(args));
  }
  if (flight_ != nullptr) {
    flight_->Record(obs::FlightEventKind::kEnqueue,
                    static_cast<std::uint32_t>(shard.index), op.id,
                    static_cast<std::uint64_t>(op.kind));
  }
  // The push that finds the shard idle owns submitting its drain task.
  if (shard.mailbox.Push(std::move(op), list)) {
    pool_.Submit([this, i = shard.index] { Drain(i); });
  }
}

void EstimatorService::Drain(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  std::vector<Op>& batch = shard.batch;
  std::size_t processed = 0;
  // An empty take releases the shard; the next push then submits a drain.
  while (shard.mailbox.TakeAll(&batch, &shard.batch_pairs)) {
    if (metrics_ != nullptr) {
      shard.drains.Increment();
      shard.queue_depth.Observe(static_cast<double>(batch.size()));
      shard.occupancy.Observe(static_cast<double>(shard.streams.size()));
      const auto now = std::chrono::steady_clock::now();
      for (const Op& op : batch) {
        shard.latency.Observe(
            std::chrono::duration<double>(now - op.enqueued).count());
      }
    }
    if (flight_ != nullptr) {
      flight_->Record(obs::FlightEventKind::kDrain,
                      static_cast<std::uint32_t>(shard.index), batch.size(),
                      shard.batch_pairs.size());
    }
    obs::TraceSession::Span drain_span;
    if (trace_ != nullptr) {
      drain_span = obs::TraceSession::Begin(trace_, "service.drain",
                                            "service");
      drain_span.SetArg("shard",
                        obs::Json(static_cast<std::uint64_t>(shard.index)));
      drain_span.SetArg("batch",
                        obs::Json(static_cast<std::uint64_t>(batch.size())));
    }
    obs::ProfScope drain_prof = obs::Profiler::Begin(prof_, "service.drain");
    const auto batch_start = std::chrono::steady_clock::now();
    for (Op& op : batch) Process(shard, op);
    if (metrics_ != nullptr) {
      shard.drain_seconds.Observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        batch_start)
              .count());
    }
    drain_prof.End();
    drain_span.End();
    processed += batch.size();
    if (processed >= drain_budget_) {
      // Yield the worker; the shard stays scheduled (this task still owns
      // the consumer role, the continuation inherits it).
      pool_.Submit([this, shard_index] { Drain(shard_index); });
      return;
    }
  }
}

void EstimatorService::Process(Shard& shard, Op& op) {
  if (metrics_ != nullptr) shard.ops.Increment();
  obs::TraceSession::Span span;
  if (trace_ != nullptr) {
    span = obs::TraceSession::Begin(
        trace_, std::string("service.") + OpName(op.kind), "service");
    span.SetArg("stream", obs::Json(op.id));
    span.SetArg("shard", obs::Json(static_cast<std::uint64_t>(shard.index)));
    if (op.trace.trace_id != 0) {
      span.SetArg("span", obs::Json(op.trace.span_id));
      // Consumer side of the request flow, anchored inside this op's
      // slice. The stream's arrow chain terminates at its Query reply.
      trace_->EmitFlow(op.kind == OpKind::kQuery
                           ? obs::TraceSession::FlowPhase::kEnd
                           : obs::TraceSession::FlowPhase::kStep,
                       "stream", "service", op.trace.trace_id,
                       trace_->NowNs());
    }
  }
  std::chrono::steady_clock::time_point start;
  if (metrics_ != nullptr) start = std::chrono::steady_clock::now();
  switch (op.kind) {
    case OpKind::kCreate: DoCreate(shard, op); break;
    case OpKind::kList: DoList(shard, op); break;
    case OpKind::kEndPass: DoEndPass(shard, op); break;
    case OpKind::kQuery: DoQuery(shard, op); break;
    case OpKind::kCheckpoint: DoCheckpoint(shard, op); break;
    case OpKind::kRestore: DoRestore(shard, op); break;
    case OpKind::kKill: DoKill(shard, op); break;
    case OpKind::kBarrier: op.barrier_promise->set_value(); break;
  }
  if (metrics_ != nullptr) {
    shard.process_seconds.Observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
  }
}

void EstimatorService::OnErrorLatched(Shard& shard, StreamId id,
                                      const Status& error) {
  if (metrics_ != nullptr) shard.errors.Increment();
  if (flight_ != nullptr) {
    flight_->Record(obs::FlightEventKind::kError,
                    static_cast<std::uint32_t>(shard.index), id,
                    static_cast<std::uint64_t>(error.code()));
    // Fatal-Status hook: dump the rings while the crash context is fresh
    // (no-op unless CYCLESTREAM_FLIGHT_DUMP names a path).
    flight_->DumpToEnvPath();
  }
}

void EstimatorService::DoCreate(Shard& shard, Op& op) {
  if (shard.streams.count(op.id) != 0) {
    op.status_promise->set_value(Status::FailedPrecondition(
        "stream " + std::to_string(op.id) + " already exists"));
    return;
  }
  StatusOr<HostedEstimator> hosted = MakeHosted(op.spec);
  if (!hosted.ok()) {
    op.status_promise->set_value(hosted.status());
    return;
  }
  StreamState state;
  state.spec = op.spec;
  state.hosted = std::move(hosted).value();
  state.report.passes_requested = state.hosted.algo->passes();
  CYCLESTREAM_CHECK_GE(state.report.passes_requested, 1);
  state.report.per_pass.emplace_back();
  state.hosted.algo->BeginPass(0);
  shard.streams.emplace(op.id, std::move(state));
  if (flight_ != nullptr) {
    flight_->Record(obs::FlightEventKind::kCreate,
                    static_cast<std::uint32_t>(shard.index), op.id);
  }
  op.status_promise->set_value(Status::Ok());
}

void EstimatorService::DoList(Shard& shard, Op& op) {
  auto it = shard.streams.find(op.id);
  if (it == shard.streams.end()) {
    if (metrics_ != nullptr) shard.dropped.Increment();
    return;
  }
  StreamState& state = it->second;
  if (!state.error.ok()) return;  // already latched; drop silently
  if (state.finished) {
    state.error = Status::FailedPrecondition(
        "append to stream " + std::to_string(op.id) +
        " after its final pass ended");
    OnErrorLatched(shard, op.id, state.error);
    return;
  }
  const std::span<const VertexId> list =
      std::span<const VertexId>(shard.batch_pairs)
          .subspan(op.list_begin, op.list_size);
  stream::StreamAlgorithm* algo = state.hosted.algo.get();
  algo->BeginList(op.u);
  algo->OnListBatch(op.u, list);
  state.report.pairs_processed += list.size();
  state.report.per_pass.back().pairs_processed += list.size();
  algo->EndList(op.u);
  // The driver's own meter keeps the service's reports bit-identical.
  stream::internal::SampleSpace(*algo, algo->memory_domain(), &state.report);
  if (metrics_ != nullptr) {
    shard.lists.Increment();
    shard.pairs.Increment(list.size());
  }
  if (flight_ != nullptr) {
    flight_->Record(obs::FlightEventKind::kList,
                    static_cast<std::uint32_t>(shard.index), op.id,
                    list.size());
  }
}

void EstimatorService::DoEndPass(Shard& shard, Op& op) {
  auto it = shard.streams.find(op.id);
  if (it == shard.streams.end()) {
    if (metrics_ != nullptr) shard.dropped.Increment();
    return;
  }
  StreamState& state = it->second;
  if (!state.error.ok()) return;
  if (state.finished) {
    state.error = Status::FailedPrecondition(
        "pass boundary on stream " + std::to_string(op.id) +
        " after its final pass ended");
    OnErrorLatched(shard, op.id, state.error);
    return;
  }
  stream::StreamAlgorithm* algo = state.hosted.algo.get();
  algo->EndPass(state.pass);
  stream::internal::SampleSpace(*algo, algo->memory_domain(), &state.report);
  ++state.pass;
  if (flight_ != nullptr) {
    flight_->Record(obs::FlightEventKind::kEndPass,
                    static_cast<std::uint32_t>(shard.index), op.id,
                    static_cast<std::uint64_t>(state.pass));
  }
  if (state.pass < state.report.passes_requested) {
    state.report.per_pass.emplace_back();
    algo->BeginPass(state.pass);
  } else {
    state.finished = true;
  }
}

void EstimatorService::DoQuery(Shard& shard, Op& op) {
  if (metrics_ != nullptr) shard.queries.Increment();
  auto it = shard.streams.find(op.id);
  if (it == shard.streams.end()) {
    if (flight_ != nullptr) {
      flight_->Record(obs::FlightEventKind::kQuery,
                      static_cast<std::uint32_t>(shard.index), op.id, 1);
    }
    op.view_promise->set_value(
        Status::NotFound("unknown stream " + std::to_string(op.id)));
    return;
  }
  const StreamState& state = it->second;
  if (flight_ != nullptr) {
    flight_->Record(obs::FlightEventKind::kQuery,
                    static_cast<std::uint32_t>(shard.index), op.id,
                    state.error.ok() ? 0 : 1);
  }
  if (!state.error.ok()) {
    op.view_promise->set_value(state.error);
    return;
  }
  StreamView view;
  view.spec = state.spec;
  view.passes_requested = state.report.passes_requested;
  // A multi-pass estimator has no result before its last pass ends.
  view.estimate = (state.finished || view.passes_requested == 1)
                      ? state.hosted.estimate(*state.hosted.algo)
                      : std::numeric_limits<double>::quiet_NaN();
  view.pass = state.pass;
  view.finished = state.finished;
  view.report = state.report;
  op.view_promise->set_value(std::move(view));
}

void EstimatorService::DoCheckpoint(Shard& shard, Op& op) {
  if (metrics_ != nullptr) shard.checkpoints.Increment();
  snapshot::SnapshotWriter outer;
  snapshot::Saver entries(outer);
  entries.U64(shard.streams.size());
  for (const auto& [id, state] : shard.streams) {
    entries.U64(id);
    snapshot::SnapshotWriter inner;
    SerializeSpec(state.spec, inner);
    snapshot::Saver ar(inner);
    StreamState::Fields(state, ar);
    if (state.error.ok()) ar.Nested(*state.hosted.algo);
    entries.Bytes(std::move(inner).Finish());
  }
  std::vector<std::uint8_t> manifest = std::move(outer).Finish();
  if (flight_ != nullptr) {
    flight_->Record(obs::FlightEventKind::kCheckpoint,
                    static_cast<std::uint32_t>(shard.index),
                    shard.streams.size(), manifest.size());
  }
  op.bytes_promise->set_value(std::move(manifest));
}

void EstimatorService::DoRestore(Shard& shard, Op& op) {
  if (metrics_ != nullptr) shard.restores.Increment();
  Status status = DoRestoreImpl(shard, op);
  if (flight_ != nullptr) {
    flight_->Record(obs::FlightEventKind::kRestore,
                    static_cast<std::uint32_t>(shard.index),
                    status.ok() ? 1 : 0,
                    static_cast<std::uint64_t>(status.code()));
  }
  op.status_promise->set_value(std::move(status));
}

Status EstimatorService::DoRestoreImpl(Shard& shard, Op& op) {
  const int shard_index = static_cast<int>(shard.index);
  StatusOr<snapshot::SnapshotReader> outer =
      snapshot::SnapshotReader::Open(op.manifest);
  if (!outer.ok()) {
    return outer.status();
  }
  snapshot::Loader entries(*outer);
  std::uint64_t count = 0;
  entries.U64(count);
  std::map<StreamId, StreamState> restored;
  for (std::uint64_t i = 0; i < count; ++i) {
    StreamId id = 0;
    std::vector<std::uint8_t> bytes;
    entries.U64(id);
    entries.Bytes(bytes);
    if (!entries.ok()) {
      return entries.status();
    }
    if (ShardOf(id, shards()) != shard_index) {
      return Status::FailedPrecondition(
          "manifest stream " + std::to_string(id) +
          " does not belong to shard " + std::to_string(shard_index));
    }
    StatusOr<snapshot::SnapshotReader> inner =
        snapshot::SnapshotReader::Open(bytes);
    if (!inner.ok()) {
      return inner.status();
    }
    StatusOr<EstimatorSpec> spec = RestoreSpec(*inner);
    if (!spec.ok()) {
      return spec.status();
    }
    StatusOr<HostedEstimator> hosted = MakeHosted(*spec);
    if (!hosted.ok()) {
      return hosted.status();
    }
    StreamState state;
    state.spec = *spec;
    state.hosted = std::move(hosted).value();
    snapshot::Loader ar(*inner);
    StreamState::Fields(state, ar);
    if (!ar.ok()) {
      return ar.status();
    }
    // Pass bookkeeping must be self-consistent before the estimator's own
    // payload is trusted (the driver's resume check).
    if (!stream::internal::PassShapeMatches(state.report,
                                            state.hosted.algo->passes(),
                                            state.pass, state.finished)) {
      return Status::FailedPrecondition(
          "checkpoint pass bookkeeping does not match estimator for stream " +
          std::to_string(id));
    }
    if (state.error.ok()) {
      ar.Nested(*state.hosted.algo);
      if (!ar.ok()) {
        return ar.status();
      }
    }
    Status final_status = inner->Final();
    if (!final_status.ok()) {
      return final_status;
    }
    restored.emplace(id, std::move(state));
  }
  Status outer_final = outer->Final();
  if (!outer_final.ok()) {
    return outer_final;
  }
  shard.streams = std::move(restored);
  return Status::Ok();
}

void EstimatorService::DoKill(Shard& shard, Op& op) {
  if (metrics_ != nullptr) shard.kills.Increment();
  const std::size_t lost = shard.streams.size();
  shard.streams.clear();
  if (flight_ != nullptr) {
    flight_->Record(obs::FlightEventKind::kKill,
                    static_cast<std::uint32_t>(shard.index), lost);
    // Chaos crash point: dump the rings so the post-mortem shows what the
    // killed shard was doing (no-op unless CYCLESTREAM_FLIGHT_DUMP is set).
    flight_->DumpToEnvPath();
  }
  op.count_promise->set_value(lost);
}

std::future<Status> EstimatorService::Create(StreamId id, EstimatorSpec spec) {
  Op op;
  op.kind = OpKind::kCreate;
  op.id = id;
  op.trace = StampTrace(id);
  op.spec = spec;
  op.status_promise = std::make_unique<std::promise<Status>>();
  std::future<Status> future = op.status_promise->get_future();
  Enqueue(ShardFor(id), std::move(op));
  return future;
}

void EstimatorService::Append(StreamId id, VertexId u,
                              std::span<const VertexId> list) {
  Op op;
  op.kind = OpKind::kList;
  op.id = id;
  op.trace = StampTrace(id);
  op.u = u;
  Enqueue(ShardFor(id), std::move(op), list);
}

void EstimatorService::EndPass(StreamId id) {
  Op op;
  op.kind = OpKind::kEndPass;
  op.id = id;
  op.trace = StampTrace(id);
  Enqueue(ShardFor(id), std::move(op));
}

std::future<StatusOr<StreamView>> EstimatorService::Query(StreamId id) {
  Op op;
  op.kind = OpKind::kQuery;
  op.id = id;
  op.trace = StampTrace(id);
  op.view_promise =
      std::make_unique<std::promise<StatusOr<StreamView>>>();
  std::future<StatusOr<StreamView>> future = op.view_promise->get_future();
  Enqueue(ShardFor(id), std::move(op));
  return future;
}

std::future<StatusOr<std::vector<std::uint8_t>>>
EstimatorService::CheckpointShard(int shard) {
  CYCLESTREAM_CHECK(shard >= 0 && shard < shards());
  Op op;
  op.kind = OpKind::kCheckpoint;
  op.bytes_promise = std::make_unique<
      std::promise<StatusOr<std::vector<std::uint8_t>>>>();
  auto future = op.bytes_promise->get_future();
  Enqueue(*shards_[static_cast<std::size_t>(shard)], std::move(op));
  return future;
}

std::future<std::size_t> EstimatorService::KillShard(int shard) {
  CYCLESTREAM_CHECK(shard >= 0 && shard < shards());
  Op op;
  op.kind = OpKind::kKill;
  op.count_promise = std::make_unique<std::promise<std::size_t>>();
  std::future<std::size_t> future = op.count_promise->get_future();
  Enqueue(*shards_[static_cast<std::size_t>(shard)], std::move(op));
  return future;
}

std::future<Status> EstimatorService::RestoreShard(
    int shard, std::vector<std::uint8_t> manifest) {
  CYCLESTREAM_CHECK(shard >= 0 && shard < shards());
  Op op;
  op.kind = OpKind::kRestore;
  op.manifest = std::move(manifest);
  op.status_promise = std::make_unique<std::promise<Status>>();
  std::future<Status> future = op.status_promise->get_future();
  Enqueue(*shards_[static_cast<std::size_t>(shard)], std::move(op));
  return future;
}

std::string EstimatorService::ScrapeMetrics() const {
  if (metrics_ == nullptr) return std::string();
  // Refresh the profiler's gauge surface so a scrape carries the latest
  // drain-loop hardware-counter aggregates alongside the op metrics.
  if (prof_ != nullptr) prof_->ExportMetrics(metrics_);
  return obs::PrometheusText(metrics_->Read());
}

void EstimatorService::Flush() {
  std::vector<std::future<void>> barriers;
  barriers.reserve(shards_.size());
  for (auto& shard : shards_) {
    Op op;
    op.kind = OpKind::kBarrier;
    op.barrier_promise = std::make_unique<std::promise<void>>();
    barriers.push_back(op.barrier_promise->get_future());
    Enqueue(*shard, std::move(op));
  }
  for (auto& barrier : barriers) barrier.wait();
}

}  // namespace service
}  // namespace cyclestream
