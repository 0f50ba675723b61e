// Sharded many-stream estimator service: the long-lived multi-tenant layer
// over the single-stream driver.
//
// The production story for "millions of users" is many concurrent graphs and
// queries, not one big stream. An `EstimatorService` hosts thousands of
// independent estimator instances keyed by stream id. A stable hash of the
// id picks one of N shards; each shard owns the full state of its streams
// and consumes its own MPSC mailbox (service/mailbox.h: one lock around
// reusable op and pair buffers and the drain-scheduled bit) on a
// shared `runtime::ThreadPool`. Clients push whole adjacency lists (the
// PR-4 span substrate's unit of delivery) with fire-and-forget `Append`,
// advance pass boundaries with `EndPass`, and read current estimates
// asynchronously via `Query` futures.
//
// Determinism contract: a stream's events are processed in submission
// order, by exactly one shard, with the same callback sequence as the
// single-stream driver's sink (BeginList / OnListBatch / EndList) and the
// driver's own space meter (`stream::internal::SampleSpace`, at every list
// boundary and after every EndPass). Estimates, RunReports, and checkpoint
// bytes are therefore bit-identical to running each stream through the
// driver sequentially — for ANY (streams, shards, threads) configuration.
// Cross-stream interleaving affects scheduling only, never state: no two
// streams share mutable state, and no shard state is touched off its drain
// task.
//
// Checkpoint/restore: `CheckpointShard` serializes a whole shard into one
// snapshot envelope — a manifest mapping stream id → nested per-stream
// envelope (spec, pass cursor, RunReport, estimator state), each with its
// own CRC (src/snapshot). `KillShard` simulates a crash (all shard state
// dropped); `RestoreShard` rebuilds the shard from manifest bytes alone.
// Because control operations ride the same mailbox as data, a checkpoint
// or kill lands at a deterministic batch boundary, and a killed shard
// restored from its last checkpoint and re-fed the post-checkpoint batches
// finishes bit-identical to an uninterrupted run (tests/service_test.cc).
//
// Error latching: data-path ops are fire-and-forget, so a stream that is
// fed after its final pass, or created twice, latches a typed Status that
// every later `Query` returns — a misused stream can never return a
// silently wrong estimate.
//
// Observability: with a `MetricsRegistry` attached, shards record queue
// depth per drain, per-op mailbox latency, shard occupancy, and counters
// for every op class (error latches and dropped ops are per-shard:
// `service.errors_latched/shard=N`). `ScrapeMetrics()` renders the whole
// registry in Prometheus text format at any instant. An attached
// `obs::Logger` gets structured records for control ops and latched
// errors; an attached `obs::FlightRecorder` gets a wait-free event per
// enqueue/drain/op, dumped to `CYCLESTREAM_FLIGHT_DUMP` on any latched
// Status and on chaos KillShard. Telemetry never touches estimator
// inputs, so instrumented and bare services produce bit-identical
// estimates.
//
// Request tracing: with an `obs::TraceSession` attached, every client call
// stamps its mailbox envelope with a `TraceContext` (trace id derived from
// the stream id, fresh span id per request). The producer side emits a
// small "service.enqueue" slice with a flow event inside it ('s' on
// Create, 't' afterwards); the consumer side wraps each op in a
// "service.<op>" slice carrying a matching flow step ('f' on Query). One
// stream's life — enqueue, drain, estimator batch, query reply — renders
// as a single connected arrow chain in Perfetto. Latency attribution
// splits three ways in the metrics registry: `service.op_latency_seconds`
// (mailbox queue wait), `service.drain_batch_seconds` (whole drain batch),
// `service.op_process_seconds` (single-op estimator compute). With an
// `obs::Profiler` attached, each drain batch runs under a "service.drain"
// ProfScope, so shard-worker hardware counters land in the profiler's
// aggregates and on the scrape surface.

#ifndef CYCLESTREAM_SERVICE_SERVICE_H_
#define CYCLESTREAM_SERVICE_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <vector>

#include "graph/types.h"
#include "obs/flight_recorder.h"
#include "obs/logger.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "service/estimator_host.h"
#include "stream/driver.h"
#include "util/status.h"

namespace cyclestream {
namespace service {

/// Client-facing stream identifier. Any 64-bit value; ids pick their shard
/// through a stable hash, so a given id always lands on the same shard for
/// a fixed shard count.
using StreamId = std::uint64_t;

/// Identity a request carries through the mailbox. `trace_id` is stable
/// per stream (a hash of the stream id, never 0 when tracing is on) and
/// doubles as the Chrome-trace flow id, so every envelope of one stream
/// joins the same arrow chain; `span_id` is unique per request and links
/// the producer-side enqueue slice to the consumer-side process slice in
/// event args. Both are 0 when no TraceSession is attached — the data
/// path then never touches the tracing fields.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

struct ServiceOptions {
  /// Number of shards (state partitions). Clamped to >= 1.
  int shards = 4;
  /// Worker threads draining shard mailboxes; 0 = one per shard. Fewer
  /// threads than shards is valid (shards multiplex onto the pool);
  /// estimates do not depend on this in any way.
  int threads = 0;
  /// Max ops one drain task processes before re-queueing itself, so a hot
  /// shard cannot starve its pool-mates. Clamped to >= 1.
  std::size_t drain_budget = 1024;
  /// Optional metrics sink (owned by the caller, must outlive the service).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional structured logger ("service" component scope; caller-owned).
  obs::Logger* logger = nullptr;
  /// Optional flight recorder for post-mortem event rings (caller-owned).
  obs::FlightRecorder* flight = nullptr;
  /// Optional Chrome-trace session: request spans + per-stream flow events
  /// (caller-owned, must outlive the service). Null = no tracing, and the
  /// request path costs one pointer test per op.
  obs::TraceSession* trace = nullptr;
  /// Optional hardware-counter profiler: each drain batch runs under a
  /// "service.drain" ProfScope (caller-owned). Null = one branch per batch.
  obs::Profiler* prof = nullptr;
};

/// Point-in-time view of one stream, returned by Query.
struct StreamView {
  EstimatorSpec spec;
  /// The estimator's current headline estimate (see estimator_host.h). A
  /// multi-pass estimator has none until its last pass ends: while
  /// `!finished && passes_requested > 1` this is a quiet NaN.
  double estimate = 0.0;
  /// In-progress pass index; == passes_requested once finished.
  int pass = 0;
  int passes_requested = 0;
  bool finished = false;
  /// Same sampling points and fields as the single-stream driver's report.
  stream::RunReport report;
};

class EstimatorService {
 public:
  explicit EstimatorService(const ServiceOptions& options);

  /// Drains every mailbox, then joins the workers. Pending futures resolve
  /// before destruction completes.
  ~EstimatorService();

  EstimatorService(const EstimatorService&) = delete;
  EstimatorService& operator=(const EstimatorService&) = delete;

  int shards() const { return static_cast<int>(shards_.size()); }
  int threads() const { return pool_.num_threads(); }

  /// The shard a stream id lives on: stable hash, uniform for arbitrary id
  /// patterns (sequential ids included).
  static int ShardOf(StreamId id, int shards);

  /// Registers a new stream hosting a fresh estimator built from `spec`.
  /// kFailedPrecondition if the id already exists on its shard.
  std::future<Status> Create(StreamId id, EstimatorSpec spec);

  /// Feeds one whole adjacency list (vertex `u`, its neighbors in stream
  /// order) to the stream's estimator. The list is copied once, into the
  /// shard's pair arena, before Append returns. Fire-and-forget: an unknown
  /// id is counted and dropped; feeding a finished or errored stream
  /// latches a typed error that Query returns.
  void Append(StreamId id, VertexId u, std::span<const VertexId> list);

  /// Ends the stream's current pass (and begins the next, if the estimator
  /// takes more). After the final pass the stream is finished; its estimate
  /// remains queryable. Fire-and-forget like Append.
  void EndPass(StreamId id);

  /// Snapshot of the stream's estimate, pass cursor, and driver-equivalent
  /// RunReport, after every previously submitted op on that stream.
  /// kNotFound for unknown ids; the latched error for misused streams.
  std::future<StatusOr<StreamView>> Query(StreamId id);

  /// Serializes every stream of `shard` into one manifest envelope at the
  /// current batch boundary (ordered with prior ops, after them).
  std::future<StatusOr<std::vector<std::uint8_t>>> CheckpointShard(int shard);

  /// Chaos: drops all of `shard`'s streams (a simulated crash), returning
  /// how many were lost. In-flight earlier ops still apply; later ops on
  /// the dead streams are dropped/counted like any unknown id.
  std::future<std::size_t> KillShard(int shard);

  /// Rebuilds `shard` from `manifest` (the bytes of a CheckpointShard),
  /// replacing all current streams of that shard. Typed errors for every
  /// corruption class (snapshot.h) and kFailedPrecondition for a manifest
  /// whose ids do not belong to `shard`; on error the shard keeps its
  /// pre-restore streams untouched.
  std::future<Status> RestoreShard(int shard, std::vector<std::uint8_t> manifest);

  /// Barrier: returns once every op submitted before the call has been
  /// processed on every shard.
  void Flush();

  /// The attached MetricsRegistry rendered in Prometheus text exposition
  /// format (obs/exposition.h) — counters, gauges, and cumulative-bucket
  /// histograms, including the per-shard error counters and queue-depth/
  /// latency histograms. Point-in-time: safe to call while shards are
  /// draining. Empty string when the service runs unmetered.
  std::string ScrapeMetrics() const;

  /// The attached flight recorder (null when none was configured).
  obs::FlightRecorder* flight_recorder() const { return flight_; }

 private:
  struct Op;
  struct StreamState;
  struct Shard;

  Shard& ShardFor(StreamId id);
  /// Stamps a fresh TraceContext for a request on `id` (all-zero when no
  /// trace session is attached).
  TraceContext StampTrace(StreamId id);
  void Enqueue(Shard& shard, Op op, std::span<const VertexId> list = {});
  void Drain(std::size_t shard_index);
  void Process(Shard& shard, Op& op);

  // Op handlers (consumer side, single-threaded per shard).
  void DoCreate(Shard& shard, Op& op);
  void DoList(Shard& shard, Op& op);
  void DoEndPass(Shard& shard, Op& op);
  void DoQuery(Shard& shard, Op& op);
  void DoCheckpoint(Shard& shard, Op& op);
  void DoRestore(Shard& shard, Op& op);
  Status DoRestoreImpl(Shard& shard, Op& op);
  void DoKill(Shard& shard, Op& op);

  /// Telemetry for a Status latched on a stream: per-shard error counter,
  /// structured error record, flight kError event, and the fatal-Status
  /// flight dump (CYCLESTREAM_FLIGHT_DUMP).
  void OnErrorLatched(Shard& shard, StreamId id, const Status& error);

  const std::size_t drain_budget_;
  obs::MetricsRegistry* const metrics_;
  obs::FlightRecorder* const flight_;
  obs::TraceSession* const trace_;
  obs::Profiler* const prof_;
  const std::uint64_t trace_salt_;  // per-instance flow-id namespace
  std::atomic<std::uint64_t> next_span_id_{1};
  obs::LogScope log_;
  std::vector<std::unique_ptr<Shard>> shards_;
  runtime::ThreadPool pool_;  // declared last: destroyed (joined) first
};

}  // namespace service
}  // namespace cyclestream

#endif  // CYCLESTREAM_SERVICE_SERVICE_H_
