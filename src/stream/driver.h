// Multi-pass driver: runs a StreamAlgorithm over a stream of any model
// (adjacency-list, arbitrary, random-order, ε-perturbed) and measures its
// peak working space.
//
// The paper's model is one loop: replay the same order `passes()` times and
// carry only the algorithm's state across list boundaries. The driver is
// that loop, written once (`internal::RunLoop`), fed through one sink
// (`internal::RunSink`). Two entry points run it:
//   - `RunPasses` trusts the stream: the loop runs under
//     `internal::TrustingContract`, whose checks compile away, and a
//     malformed stream produces an arbitrary estimate or a CHECK abort
//     inside the algorithm.
//   - `RunPassesChecked` is the strict mode: the stream model's own
//     contract (`MakeContractForStream`: `AdjacencyListContract` for
//     adjacency streams, `EdgeStreamContract` for edge streams) sees every
//     event before the algorithm does, the algorithm stops receiving events
//     at the first violation, and the run returns an error `Status` with
//     the violation's stream position instead of a wrong answer.
//     `CheckedRunOptions` adds checkpointing and resume to the same loop.
//
// Model awareness: every stream declares a `ModelDescriptor`
// (stream/model.h; plain adjacency-list when it declares nothing) and every
// algorithm declares which models it accepts (`AcceptsModel`). `RunPasses`
// CHECK-aborts on a mismatch and `RunPassesChecked` returns a typed
// kFailedPrecondition, so an adjacency-list estimator can never silently
// consume an edge stream whose promises its analysis does not hold under.
//
// Both entry points are templates over the stream type, so
// `AdjacencyListStream`, `ArbitraryOrderStream`, `RandomOrderStream` and
// `FaultInjectingStream` (or any type with `graph()` / `ReplayPass` speaking
// the two-level event grammar) drive identically; edge streams package
// their elements as u-runs (stream/arbitrary_stream.h). They are also
// templates over the algorithm type: given a concrete (ideally `final`)
// algorithm pointer, the sink binds the callbacks statically — one
// devirtualized OnListBatch per adjacency list instead of 2m virtual OnPair
// calls per pass. Through a `StreamAlgorithm*` dispatch stays virtual; both
// produce bit-identical reports and estimates.
//
// Batched delivery: streams that expose whole adjacency lists hand each list
// to RunSink::OnList, which forwards it to the algorithm's OnListBatch (the
// algorithm-facing contract in stream/algorithm.h makes this
// indistinguishable from the per-pair loop). One exception delivers per
// pair: a list the contract rejects part-way, whose valid prefix is all the
// algorithm may see.
//
// Space audit: every space sample (`internal::SampleSpace`, also used by the
// service) reads the algorithm's self-reported `CurrentSpaceBytes()` and,
// when `memory_domain()` is non-null, the allocator-measured live bytes of
// its containers. The report carries both peaks plus the largest divergence
// at any sample, so self-reporting bugs show up as a number
// (tests/space_audit_test.cc pins the allowed slack per estimator).
//
// Checkpoint and resume: with `on_checkpoint` set, a checked run snapshots
// the whole run — list cursor, RunReport, contract and algorithm state —
// after every adjacency list while the contract holds, and hands the
// envelope to the callback. With `resume_from` set, the run is rebuilt from
// such an envelope alone on fresh objects and the loop starts inside the
// checkpointed pass, after the lists the envelope covers. The final estimate
// and RunReport are bit-identical to an uninterrupted run, and a resumed run
// checkpoints like any other (tests/chaos_recovery_test.cc crashes at every
// boundary, and twice in one run). Corrupt envelopes come back as a typed
// error Status before any state is trusted.
//
// Observability: both entry points take `TraceOptions`. A `MetricsRegistry`
// receives driver counters (and, for checked runs, contract counters) at
// the end of the run; a `TraceSession` receives pass/list spans (and, for
// checked runs, validate spans); a `Profiler` times each pass under a
// "driver.pass/pass=N" scope. Space over time rides on the spans: a pass
// span carries its PassReport's two peaks, and it closes after the
// pass-end sample, so the max over a run's pass spans equals the report's
// peaks; a list span carries the maxima of the list-end samples in its
// window. Tracing never touches the algorithm's inputs, so traced and
// untraced runs produce bit-identical estimates.

#ifndef CYCLESTREAM_STREAM_DRIVER_H_
#define CYCLESTREAM_STREAM_DRIVER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "stream/adjacency_stream.h"
#include "stream/algorithm.h"
#include "stream/model.h"
#include "stream/validator.h"
#include "util/check.h"
#include "util/status.h"

namespace cyclestream {
namespace stream {

/// Space/throughput of one pass (RunReport::per_pass).
struct PassReport {
  /// Peak of CurrentSpaceBytes() within this pass.
  std::size_t reported_peak_bytes = 0;
  /// Peak of allocator-measured live bytes within this pass (0 when the
  /// algorithm exposes no memory domain).
  std::size_t audited_peak_bytes = 0;
  /// Pairs delivered in this pass.
  std::size_t pairs_processed = 0;
};

/// Result of driving an algorithm over a stream.
struct RunReport {
  /// Peak of CurrentSpaceBytes() sampled at every list boundary and at pass
  /// boundaries, across all passes.
  std::size_t reported_peak_bytes = 0;
  /// Peak of allocator-measured live bytes at the same sample points
  /// (0 when the algorithm exposes no memory domain).
  std::size_t audited_peak_bytes = 0;
  /// Largest |audited - reported| over all samples (0 when unaudited).
  std::size_t max_divergence_bytes = 0;
  /// Total pairs delivered across all passes.
  std::size_t pairs_processed = 0;
  /// The algorithm's passes() at launch — the pass count the driver set out
  /// to run, NOT the number completed. A checked run that aborts on a
  /// violation completes fewer; `per_pass.size()` is always the count of
  /// passes actually started/completed.
  int passes_requested = 0;
  /// Per-pass breakdown; size() == passes completed (may be <
  /// passes_requested if a checked run aborted on a violation).
  std::vector<PassReport> per_pass;

  /// Checkpoint layout (snapshot/codec.h): the report travels inside the
  /// snapshot so a resumed run's peaks and counters continue from the exact
  /// values the interrupted run had accumulated.
  static void Fields(auto& self, auto& ar) {
    ar.U64(self.reported_peak_bytes);
    ar.U64(self.audited_peak_bytes);
    ar.U64(self.max_divergence_bytes);
    ar.U64(self.pairs_processed);
    ar.U64(self.passes_requested);
    ar.Size(self.per_pass, 3 * 8);
    for (auto& pass : self.per_pass) {
      ar.U64(pass.reported_peak_bytes);
      ar.U64(pass.audited_peak_bytes);
      ar.U64(pass.pairs_processed);
    }
  }
};

/// Optional instrumentation for a driver run. Default-constructed ==
/// untraced: the driver's behaviour and the algorithm's inputs are
/// identical either way.
struct TraceOptions {
  /// If set, receives "driver.*" counters (and, for checked runs,
  /// "validator.*") when the run finishes.
  obs::MetricsRegistry* metrics = nullptr;
  /// If set, receives execution spans: one "pass" span per pass (args:
  /// its PassReport's reported_peak_bytes and audited_peak_bytes), one
  /// strided "list" span per `kListSpanStride` adjacency lists (args: the
  /// max_reported_bytes and max_audited_bytes of the list-end samples in
  /// its window), and (in checked runs) a strided "validate" span timing
  /// the validator's work on one list per stride window.
  obs::TraceSession* spans = nullptr;
  /// If set, every pass runs under a ProfScope named "driver.pass/pass=N",
  /// whose hardware-counter delta lands in the profiler's aggregates. One
  /// branch per pass when null; nothing on the per-pair path either way.
  obs::Profiler* prof = nullptr;
};

/// Adjacency lists per strided "list" (and "validate") span.
inline constexpr std::size_t kListSpanStride = 1024;

/// Receives one checkpoint: the pass, the lists completed in it so far, and
/// the envelope bytes.
using CheckpointFn = std::function<void(
    int pass, std::size_t lists_done, std::vector<std::uint8_t> bytes)>;

/// What a checked run does besides validating. Default-constructed ==
/// a plain checked run from pass 0.
struct CheckedRunOptions {
  /// Instrumentation, exactly as for `RunPasses`.
  TraceOptions trace = {};
  /// If set, called after every completed adjacency list while the
  /// contract holds, with one snapshot envelope of the whole run (list
  /// cursor, RunReport so far, contract, algorithm). Checkpointing never
  /// perturbs the run: the estimate and RunReport equal a run without it.
  /// None is offered after a violation, so the last one always predates it.
  CheckpointFn on_checkpoint = nullptr;
  /// If set, the run resumes from these envelope bytes instead of starting
  /// at pass 0. The algorithm must be a FRESH instance with the same
  /// options as the checkpointed one, and the stream must replay the same
  /// stream; everything else is restored from the bytes. Corruption maps
  /// to a typed error before any state is trusted: truncated or bit-flipped
  /// envelopes → kDataLoss, wrong magic → kInvalidArgument, wrong version or
  /// an options/graph/pass-shape mismatch → kFailedPrecondition. On error
  /// the algorithm may be partially restored and must be discarded.
  /// Set but empty is a (corrupt) checkpoint, not "no resume".
  std::optional<std::span<const std::uint8_t>> resume_from = std::nullopt;
};

namespace internal {

// The contract `RunPasses` runs under: it trusts the stream, so every check
// in RunSink folds to a constant and the trusted path pays nothing for
// sharing the loop with the checked one. It exports no "validator.*"
// counters, and RunSink opens no "validate" spans for it.
struct TrustingContract {
  static constexpr bool ok() { return true; }
  void BeginPass(int) {}
  void BeginList(VertexId) {}
  void OnPair(VertexId, VertexId) {}
  std::size_t OnList(VertexId, std::span<const VertexId> list) {
    return list.size();
  }
  void EndList(VertexId) {}
  void EndPass(int) {}
  void ExportMetrics(obs::MetricsRegistry*) const {}
  Status ToStatus() const { return Status::Ok(); }
};

// One space sample: self-reported bytes and allocator-audited bytes (0
// without a memory domain).
struct SpaceSample {
  std::size_t reported = 0;
  std::size_t audited = 0;
};

// Takes one space sample, folds it into the pass's and the run's peaks and
// returns it: the one meter, used by RunSink at every list and pass end and
// by the service at the same points. Declared `inline` so GCC inlines it
// into the per-list loop, where a call costs ~0.1 ns/pair.
template <typename AlgoT>
inline SpaceSample SampleSpace(const AlgoT& algorithm,
                               const obs::MemoryDomain* domain,
                               RunReport* report) {
  const std::size_t reported = algorithm.CurrentSpaceBytes();
  PassReport& pass = report->per_pass.back();
  pass.reported_peak_bytes = std::max(pass.reported_peak_bytes, reported);
  report->reported_peak_bytes =
      std::max(report->reported_peak_bytes, reported);
  std::size_t audited = 0;
  if (domain != nullptr) {
    audited = domain->live_bytes();
    pass.audited_peak_bytes = std::max(pass.audited_peak_bytes, audited);
    report->audited_peak_bytes =
        std::max(report->audited_peak_bytes, audited);
    const std::size_t divergence =
        audited > reported ? audited - reported : reported - audited;
    report->max_divergence_bytes =
        std::max(report->max_divergence_bytes, divergence);
  }
  return {reported, audited};
}

// Writes `report` as a checkpoint section.
inline void SerializeReport(const RunReport& report,
                            snapshot::SnapshotWriter& w) {
  snapshot::Saver ar(w);
  RunReport::Fields(report, ar);
}

// The pass bookkeeping a restored report must satisfy before any algorithm
// state is trusted: the algorithm's pass count, a `pass` in range (checked
// first: it is read from the bytes), and one PassReport per begun pass.
inline bool PassShapeMatches(const RunReport& report, int passes, int pass,
                             bool finished) {
  return report.passes_requested == passes && pass >= 0 &&
         (finished ? pass == passes : pass < passes) &&
         report.per_pass.size() ==
             static_cast<std::size_t>(pass) + (finished ? 0 : 1);
}

// Where a run starts: pass 0, or inside a checkpointed pass after the
// `lists_done` lists the checkpoint covers.
struct RunCursor {
  int pass = 0;
  std::size_t lists_done = 0;
  bool resumed = false;

  // Checkpoint layout: the first section of every driver checkpoint.
  static void Fields(auto& self, auto& ar) {
    ar.U64(self.pass);
    ar.U64(self.lists_done);
  }
};

// The one sink every run goes through. Each event reaches the contract
// first and the algorithm only while the contract holds; the sink meters
// space at list and pass ends, emits trace spans, and, in checked runs,
// drops the lists a checkpoint covers and checkpoints after every list.
// Templating over the concrete algorithm devirtualizes the per-event
// calls; over TrustingContract every check compiles away.
template <typename AlgoT, typename ContractT>
class RunSink {
  static_assert(std::is_base_of_v<StreamAlgorithm, AlgoT>);
  static constexpr bool kChecked =
      !std::is_same_v<ContractT, TrustingContract>;

 public:
  RunSink(AlgoT* algorithm, ContractT* contract, RunReport* report,
          const TraceOptions& trace,
          const CheckpointFn* on_checkpoint = nullptr)
      : algorithm_(algorithm),
        contract_(contract),
        report_(report),
        on_checkpoint_(on_checkpoint),
        domain_(algorithm->memory_domain()),
        spans_(trace.spans),
        prof_(trace.prof) {}

  void BeginPass(int pass) {
    report_->per_pass.emplace_back();
    ResumePass(pass, 0);
  }

  // BeginPass for a pass restored from a checkpoint: the restored report
  // already holds the pass's PassReport, and the pass's first `lists_done`
  // lists are dropped on replay.
  void ResumePass(int pass, std::size_t lists_done) {
    pass_ = pass;
    lists_done_ = lists_done;
    skip_ = lists_done;
    if (spans_ != nullptr) {
      pass_span_ = obs::TraceSession::Begin(
          spans_, "pass " + std::to_string(pass), "pass");
      lists_in_window_ = 0;
      validate_window_ = 0;
      window_start_vertex_ = 0;
      window_max_ = {};
    }
    if (prof_ != nullptr) {
      pass_prof_ = obs::Profiler::Begin(
          prof_, "driver.pass/pass=" + std::to_string(pass));
    }
  }

  // Drops every list of the next replay: advances a stateful stream's pass
  // cursor past a pass the checkpoint already covers.
  void SkipPass() { skip_ = std::numeric_limits<std::size_t>::max(); }

  void BeginList(VertexId u) {
    if (kChecked && skip_ != 0) return;
    contract_->BeginList(u);
    if (!contract_->ok()) return;
    if (spans_ != nullptr && lists_in_window_ == 0) {
      window_start_vertex_ = u;
      list_span_ = obs::TraceSession::Begin(spans_, "lists", "list");
    }
    algorithm_->BeginList(u);
  }

  void OnPair(VertexId u, VertexId v) {
    if (kChecked && skip_ != 0) return;
    contract_->OnPair(u, v);
    if (contract_->ok()) DeliverPair(u, v);
  }

  void OnList(VertexId u, std::span<const VertexId> list) {
    if (kChecked && skip_ != 0) return;
    // The contract consumes the whole span regardless (its counters tally
    // every violation) and returns how many leading pairs it consumed while
    // still ok() — exactly the pairs per-pair delivery would have handed
    // to the algorithm.
    std::size_t ok_prefix = list.size();
    if constexpr (kChecked) {
      if (spans_ != nullptr && validate_window_ == 0) {
        auto span = obs::TraceSession::Begin(spans_, "validate", "validate");
        span.SetArg("vertex", obs::Json(u));
        span.SetArg("pairs", obs::Json(list.size()));
        ok_prefix = contract_->OnList(u, list);
      } else {
        ok_prefix = contract_->OnList(u, list);
      }
      if (spans_ != nullptr && ++validate_window_ >= kListSpanStride) {
        validate_window_ = 0;
      }
    }
    if (ok_prefix != list.size()) {
      // A rejected tail: only the valid prefix reaches the algorithm.
      for (std::size_t i = 0; i < ok_prefix; ++i) DeliverPair(u, list[i]);
      return;
    }
    algorithm_->OnListBatch(u, list);
    report_->pairs_processed += list.size();
    report_->per_pass.back().pairs_processed += list.size();
  }

  void EndList(VertexId u) {
    if (kChecked && skip_ != 0) {
      --skip_;
      return;
    }
    contract_->EndList(u);
    if (!contract_->ok()) return;
    algorithm_->EndList(u);
    const SpaceSample sample = SampleSpace(*algorithm_, domain_, report_);
    if (spans_ != nullptr) {
      window_max_.reported = std::max(window_max_.reported, sample.reported);
      window_max_.audited = std::max(window_max_.audited, sample.audited);
      if (++lists_in_window_ >= kListSpanStride) CloseListSpan(u);
    }
    if constexpr (kChecked) {
      ++lists_done_;
      if (on_checkpoint_ != nullptr) Checkpoint();
    }
  }

  void EndPass() {
    SampleSpace(*algorithm_, domain_, report_);
    if (spans_ != nullptr) {
      // Open with no list counted when a contract rejected the window's
      // first list after BeginList.
      if (list_span_.open()) CloseListSpan(window_start_vertex_);
      const PassReport& pass = report_->per_pass.back();
      pass_span_.SetArg("pairs_processed", obs::Json(pass.pairs_processed));
      pass_span_.SetArg("reported_peak_bytes",
                        obs::Json(pass.reported_peak_bytes));
      pass_span_.SetArg("audited_peak_bytes",
                        obs::Json(pass.audited_peak_bytes));
      pass_span_.End();
    }
    pass_prof_.End();
  }

 private:
  void DeliverPair(VertexId u, VertexId v) {
    algorithm_->OnPair(u, v);
    ++report_->pairs_processed;
    ++report_->per_pass.back().pairs_processed;
  }

  void Checkpoint() {
    snapshot::SnapshotWriter w;
    snapshot::Saver ar(w);
    const RunCursor cursor{.pass = pass_, .lists_done = lists_done_};
    RunCursor::Fields(cursor, ar);
    RunReport::Fields(*report_, ar);
    ar.Nested(*contract_);
    ar.Nested(*algorithm_);
    (*on_checkpoint_)(pass_, lists_done_, std::move(w).Finish());
  }

  void CloseListSpan(VertexId last_vertex) {
    list_span_.SetArg("first_vertex", obs::Json(window_start_vertex_));
    list_span_.SetArg("last_vertex", obs::Json(last_vertex));
    list_span_.SetArg("lists", obs::Json(lists_in_window_));
    list_span_.SetArg("max_reported_bytes", obs::Json(window_max_.reported));
    list_span_.SetArg("max_audited_bytes", obs::Json(window_max_.audited));
    list_span_.End();
    lists_in_window_ = 0;
    window_max_ = {};
  }

  AlgoT* algorithm_;
  ContractT* contract_;
  RunReport* report_;
  const CheckpointFn* on_checkpoint_;
  const obs::MemoryDomain* domain_;
  obs::TraceSession* spans_;
  obs::Profiler* prof_;
  obs::TraceSession::Span pass_span_;
  obs::TraceSession::Span list_span_;
  obs::ProfScope pass_prof_;
  std::size_t lists_in_window_ = 0;
  std::size_t validate_window_ = 0;
  VertexId window_start_vertex_ = 0;
  SpaceSample window_max_;  // list-end maxima of the open list span
  int pass_ = 0;
  std::size_t lists_done_ = 0;  // lists completed in the current pass
  std::size_t skip_ = 0;        // lists still to drop on replay
};

// Model-compatibility gate: OK iff the algorithm declares it accepts the
// stream's declared model.
template <typename StreamT, typename AlgoT>
Status CheckModelAccepted(const StreamT& stream, const AlgoT* algorithm) {
  const ModelDescriptor descriptor = DescriptorOf(stream);
  if (algorithm->AcceptsModel(descriptor.model)) return Status::Ok();
  return Status::FailedPrecondition(
      std::string("algorithm does not accept the ") +
      StreamModelName(descriptor.model) + " stream model");
}

// Rebuilds a run from checkpoint bytes: the list cursor and the report
// first, whose pass shape must match the algorithm before the contract's
// and the algorithm's own state are restored. The contract must be inside
// the cursor's pass, where every checkpoint is taken; a resealed one that
// is not would otherwise abort on the resumed pass's first event.
template <typename AlgoT, typename ContractT>
Status RestoreRun(std::span<const std::uint8_t> bytes, AlgoT* algorithm,
                  ContractT* contract, RunReport* report, RunCursor* cursor) {
  StatusOr<snapshot::SnapshotReader> reader =
      snapshot::SnapshotReader::Open(bytes);
  if (!reader.ok()) return reader.status();
  snapshot::Loader ar(*reader);
  RunCursor::Fields(*cursor, ar);
  cursor->resumed = true;
  RunReport::Fields(*report, ar);
  if (!ar.ok()) return ar.status();
  if (!PassShapeMatches(*report, algorithm->passes(), cursor->pass,
                        /*finished=*/false)) {
    return Status::FailedPrecondition(
        "checkpoint pass bookkeeping does not match the algorithm");
  }
  // Every pass field after the cursor (the contract's, the algorithm's)
  // must name the cursor's pass: one still in range but off it would
  // resume the algorithm in another pass than the stream.
  reader->set_cursor_pass(cursor->pass);
  ar.Nested(*contract);
  if (!ar.ok()) return ar.status();
  if (contract->open_pass() != cursor->pass) {
    return Status::FailedPrecondition(
        "checkpoint contract is not inside the checkpointed pass");
  }
  ar.Nested(*algorithm);
  if (!ar.ok()) return ar.status();
  return reader->Final();
}

inline void ExportDriverMetrics(const RunReport& report,
                                obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->GetCounter("driver.runs").Increment();
  metrics->GetCounter("driver.passes")
      .Increment(report.per_pass.size());
  metrics->GetCounter("driver.passes_requested")
      .Increment(static_cast<std::uint64_t>(report.passes_requested));
  metrics->GetCounter("driver.pairs_processed")
      .Increment(report.pairs_processed);
}

// The pass loop: replays `stream` once per remaining pass from `start`
// through one RunSink, stopping after the first pass that breaks the
// contract. Returns the contract's verdict.
template <typename StreamT, typename AlgoT, typename ContractT>
Status RunLoop(const StreamT& stream, AlgoT* algorithm, ContractT* contract,
               RunReport* report, const TraceOptions& trace,
               const CheckpointFn* on_checkpoint = nullptr,
               const RunCursor& start = {}) {
  RunSink<AlgoT, ContractT> sink(algorithm, contract, report, trace,
                                 on_checkpoint);
  if constexpr (requires { stream.ResetPasses(); }) {
    // A stateful stream keys its behaviour (e.g. a fault schedule) on its
    // own pass cursor: rewind it, then replay the passes a checkpoint
    // already covers so the cursor lines up.
    stream.ResetPasses();
    for (int pass = 0; pass < start.pass; ++pass) {
      sink.SkipPass();
      stream.ReplayPass(sink);
    }
  }
  for (int pass = start.pass; pass < report->passes_requested; ++pass) {
    if (start.resumed && pass == start.pass) {
      // Begun before the checkpoint: the contract and the algorithm are
      // restored mid-pass.
      sink.ResumePass(pass, start.lists_done);
    } else {
      sink.BeginPass(pass);
      contract->BeginPass(pass);
      algorithm->BeginPass(pass);
    }
    stream.ReplayPass(sink);
    contract->EndPass(pass);
    algorithm->EndPass(pass);
    // Sample once more after EndPass: pass-end state (e.g. a second-pass
    // accumulator) counts toward the peak, and the pass span, which closes
    // here, carries the peak it makes.
    sink.EndPass();
    if (!contract->ok()) break;
  }
  if (contract->ok()) ExportDriverMetrics(*report, trace.metrics);
  if (trace.metrics != nullptr) contract->ExportMetrics(trace.metrics);
  return contract->ToStatus();
}

}  // namespace internal

/// Runs all of `algorithm`'s passes over `stream` (replaying the identical
/// order each pass) and returns the space/throughput report. The algorithm's
/// estimate is read from the concrete algorithm object afterwards. The
/// stream is trusted; use `RunPassesChecked` for untrusted streams.
///
/// `AlgoT` is deduced: pass a concrete algorithm pointer for the
/// devirtualized fast path, or a `StreamAlgorithm*` for the type-erased
/// virtual path — results are bit-identical either way.
template <typename StreamT, typename AlgoT>
RunReport RunPasses(const StreamT& stream, AlgoT* algorithm,
                    const TraceOptions& trace = {}) {
  static_assert(std::is_base_of_v<StreamAlgorithm, AlgoT>);
  CYCLESTREAM_CHECK(algorithm != nullptr);
  CYCLESTREAM_CHECK(internal::CheckModelAccepted(stream, algorithm).ok());
  RunReport report;
  report.passes_requested = algorithm->passes();
  CYCLESTREAM_CHECK_GE(report.passes_requested, 1);
  internal::TrustingContract contract;
  internal::RunLoop(stream, algorithm, &contract, &report, trace);
  return report;
}

/// Strict-mode driver: validates the stream online with its model's
/// contract while running the algorithm. On the first violation the
/// algorithm stops receiving events, the remaining passes are skipped, and
/// the violation is returned as an error Status (position included). The
/// algorithm's estimate is only meaningful when the returned status is OK.
/// `options` adds checkpointing and resume (see CheckedRunOptions); a
/// resumed run finishes bit-identical to an uninterrupted one.
template <typename StreamT, typename AlgoT>
StatusOr<RunReport> RunPassesChecked(const StreamT& stream, AlgoT* algorithm,
                                     const CheckedRunOptions& options = {}) {
  static_assert(std::is_base_of_v<StreamAlgorithm, AlgoT>);
  CYCLESTREAM_CHECK(algorithm != nullptr);
  if (Status model_check = internal::CheckModelAccepted(stream, algorithm);
      !model_check.ok()) {
    return model_check;
  }
  RunReport report;
  report.passes_requested = algorithm->passes();
  CYCLESTREAM_CHECK_GE(report.passes_requested, 1);
  auto contract = MakeContractForStream(stream);
  internal::RunCursor start;
  if (options.resume_from.has_value()) {
    Status restored = internal::RestoreRun(*options.resume_from, algorithm,
                                           &contract, &report, &start);
    if (!restored.ok()) return restored;
  }
  Status status = internal::RunLoop(
      stream, algorithm, &contract, &report, options.trace,
      options.on_checkpoint ? &options.on_checkpoint : nullptr, start);
  if (!status.ok()) return status;
  return report;
}

}  // namespace stream
}  // namespace cyclestream

#endif  // CYCLESTREAM_STREAM_DRIVER_H_
