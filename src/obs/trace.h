// Chrome trace-event recording: scoped execution spans written as a
// trace-event JSON file loadable in Perfetto / chrome://tracing.
//
// A TraceSession collects "complete" events (ph:"X") — name, category,
// start, duration, per-thread lane — under a mutex, so spans can be opened
// from bench mainline, driver sinks, and ThreadPool workers concurrently.
// Timestamps come from one steady_clock origin captured at session
// construction; thread lanes are small dense ids handed out on first use
// per thread, so traces stay readable regardless of OS thread ids.
//
// Span taxonomy (categories):
//   pass     — one streaming pass of one algorithm (driver RunSink); args
//              carry the pass's reported_peak_bytes and audited_peak_bytes
//   list     — a strided window of adjacency lists within a pass; args
//              carry max_reported_bytes and max_audited_bytes, the maxima
//              of the space samples at the window's list ends
//   validate — contract work on one list batch (checked runs only)
//   trial    — one trial body on a ThreadPool worker (runtime)
//   bench    — a bench phase (a bench::RunBatch batch, micro_substrate's
//              stages)
//
// All recording is skipped when callers hold a null session pointer — the
// driver/runtime hooks cost one pointer test when tracing is off.

#ifndef CYCLESTREAM_OBS_TRACE_H_
#define CYCLESTREAM_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "util/status.h"

namespace cyclestream {
namespace obs {

/// Collects complete-span trace events and serializes them as Chrome
/// trace-event JSON. Thread-safe; spans may be recorded from any thread.
class TraceSession {
 public:
  TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Nanoseconds since session construction (monotonic).
  std::uint64_t NowNs() const;

  /// Records one complete event covering [start_ns, end_ns] on the calling
  /// thread's lane. `args` becomes the event's "args" object (pass a
  /// default-constructed Json for none).
  void EmitComplete(std::string name, std::string category,
                    std::uint64_t start_ns, std::uint64_t end_ns,
                    Json args = Json());

  /// Records one counter-track sample (ph:"C"): `values` is an object of
  /// series-name → number, rendered by Perfetto as a stacked counter
  /// track named `name`. Used for hardware-counter tracks (obs::Profiler).
  void EmitCounter(std::string name, std::uint64_t ts_ns, Json values);

  /// Phases of a flow (an arrow chain connecting slices across threads):
  /// one kStart, any number of kStep, one kEnd, all sharing `flow_id`.
  enum class FlowPhase { kStart, kStep, kEnd };

  /// Records one flow event at `ts_ns` on the calling thread's lane.
  /// Viewers bind it to the slice enclosing `ts_ns` on that lane, so emit
  /// it from inside the span it should attach to. The service stamps
  /// every mailbox envelope with a TraceContext and threads one flow per
  /// stream through enqueue → drain → estimator batch → query reply.
  void EmitFlow(FlowPhase phase, std::string name, std::string category,
                std::uint64_t flow_id, std::uint64_t ts_ns);

  /// Names the process in trace viewers (emitted as a metadata event).
  void SetProcessName(std::string name);

  /// Names the calling thread's lane in trace viewers (emitted as an
  /// M-phase `thread_name` metadata event). Last call per thread wins;
  /// runtime::TrialRunner names its ThreadPool workers through this so
  /// Perfetto shows "worker-0", "worker-1", ... instead of bare lane ids.
  void SetThreadName(std::string name);

  /// The calling thread's dense lane id (the `tid` its events carry).
  static std::uint32_t CurrentLane() { return ThreadLane(); }

  /// RAII span: records an EmitComplete from construction to End() (or
  /// destruction). Move-only; a moved-from span records nothing.
  class Span {
   public:
    Span() = default;
    Span(TraceSession* session, std::string name, std::string category)
        : session_(session),
          name_(std::move(name)),
          category_(std::move(category)),
          start_ns_(session != nullptr ? session->NowNs() : 0) {}
    Span(Span&& other) noexcept
        : session_(other.session_),
          name_(std::move(other.name_)),
          category_(std::move(other.category_)),
          start_ns_(other.start_ns_),
          args_(std::move(other.args_)) {
      other.session_ = nullptr;
    }
    Span& operator=(Span&& other) noexcept {
      if (this != &other) {
        End();
        session_ = other.session_;
        name_ = std::move(other.name_);
        category_ = std::move(other.category_);
        start_ns_ = other.start_ns_;
        args_ = std::move(other.args_);
        other.session_ = nullptr;
      }
      return *this;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { End(); }

    /// Attaches/overwrites one argument shown on the event in the viewer.
    void SetArg(std::string_view key, Json value);

    /// True until End(), for a span begun in a session.
    bool open() const { return session_ != nullptr; }

    /// Ends the span now; further End() calls are no-ops.
    void End() {
      if (session_ == nullptr) return;
      session_->EmitComplete(std::move(name_), std::move(category_),
                             start_ns_, session_->NowNs(), std::move(args_));
      session_ = nullptr;
    }

   private:
    TraceSession* session_ = nullptr;
    std::string name_;
    std::string category_;
    std::uint64_t start_ns_ = 0;
    Json args_;
  };

  /// Opens a span on `session`, which may be null (then the span is inert).
  static Span Begin(TraceSession* session, std::string name,
                    std::string category) {
    return Span(session, std::move(name), std::move(category));
  }

  std::size_t event_count() const;

  /// The full trace as a Chrome trace-event JSON object:
  /// {"traceEvents": [...], "displayTimeUnit": "ms"} with ph:"X" complete
  /// events (ts/dur in microseconds) plus a process_name metadata event.
  Json ToJson() const;

  /// Serializes ToJson() to `path`. NotFound-style Status when the file
  /// cannot be opened.
  Status WriteTo(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    std::string category;
    // 'X' complete, 'C' counter, 's'/'t'/'f' flow start/step/end.
    char phase = 'X';
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t flow_id = 0;  // flow events only
    std::uint32_t tid = 0;
    Json args;
  };

  static std::uint32_t ThreadLane();

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::string process_name_;
  std::vector<std::pair<std::uint32_t, std::string>> thread_names_;
  std::vector<Event> events_;
};

}  // namespace obs
}  // namespace cyclestream

#endif  // CYCLESTREAM_OBS_TRACE_H_
