// Shared infrastructure for the Table 1 / Figure 1 reproduction benches.
//
// Each bench binary prints a deterministic, paper-style table (fixed seeds)
// followed by a PASS/FAIL-style shape verdict where applicable. All binaries
// accept:
//   --full        enlarge the sweeps (default sizes keep every binary in the
//                 tens of seconds on a laptop core)
//   --threads N   fan trials out over N worker threads (default: all
//                 hardware threads). Results are bit-identical for every N:
//                 trial seeds are derived per trial index
//                 (runtime::TrialSeed), never from scheduling.
//   --csv         machine-readable output: tables become CSV (one header row
//                 + data rows), prose becomes '#'-prefixed comments.
//   --metrics-out FILE   write a JSONL run manifest: run header, per-batch
//                 per-trial estimate/space/time records (each trial's
//                 reported and audited peaks), curve points + slope
//                 verdicts, a MetricsRegistry snapshot, and a run_end
//                 trailer (schema: src/obs/manifest.h; consumer:
//                 scripts/bench_report.py).
//   --chrome-trace FILE  write a Chrome trace-event JSON file (loadable in
//                 Perfetto / chrome://tracing) with execution spans: bench
//                 batches, trials on their worker lanes, streaming passes
//                 (with their space peaks), strided list windows (with the
//                 space maxima at their list ends), and validator work.
//   --prof        open hardware counters (obs::Profiler): per-pass and
//                 per-trial cycles/instructions/cache/branch counts land in
//                 `prof` manifest records, Prometheus prof.* gauges, and
//                 Chrome-trace counter tracks. Falls back to a
//                 task-clock-only rusage backend when perf_event_open is
//                 denied (no PMU / perf_event_paranoid); the fallback is
//                 flagged in every surface, never fatal.
//
// Every value-carrying flag accepts both `--flag value` and `--flag=value`.
//
// None of the observability flags touch stdout: manifests and traces go to
// their files and wall time to stderr, so bench tables stay byte-identical
// traced or not.
//
// Trial batches run through the shared runtime::TrialRunner returned by
// bench::Runner(); call bench::ParseOptions first so --threads takes effect.
// Batches that should appear in manifests go through bench::RunBatch, which
// hands every trial the run's spans, metrics and profiler, collects
// per-trial timings outside the deterministic result slots, and emits the
// batch record. The run header, the `prof` records and the run_end trailer
// come from RunRecord, ProfRecords and RunEndRecord, which micro_substrate's
// own main shares.

#ifndef CYCLESTREAM_BENCH_BENCH_UTIL_H_
#define CYCLESTREAM_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/median.h"
#include "obs/accuracy.h"
#include "obs/build_info.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "runtime/trial_runner.h"
#include "stream/driver.h"

namespace cyclestream {
namespace bench {

inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

namespace internal {

// "--flag=value" support: if argv[i] is `flag` immediately followed by
// '=', returns the text after it; null otherwise. Both `--flag value` and
// `--flag=value` spellings work for every value-carrying flag.
inline const char* InlineFlagValue(const char* arg, const char* flag) {
  const std::size_t len = std::strlen(flag);
  if (std::strncmp(arg, flag, len) == 0 && arg[len] == '=') {
    return arg + len + 1;
  }
  return nullptr;
}

}  // namespace internal

/// Value of `--flag N` / `--flag=N`; `fallback` when absent or malformed.
inline int FlagValue(int argc, char** argv, const char* flag, int fallback) {
  for (int i = 1; i < argc; ++i) {
    const char* text = nullptr;
    if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
      text = argv[i + 1];
    } else {
      text = internal::InlineFlagValue(argv[i], flag);
    }
    if (text != nullptr) {
      int value = std::atoi(text);
      return value > 0 ? value : fallback;
    }
  }
  return fallback;
}

/// Value of `--flag STR` / `--flag=STR`; empty when absent.
inline std::string FlagString(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) return argv[i + 1];
    if (const char* text = internal::InlineFlagValue(argv[i], flag)) {
      return text;
    }
  }
  return "";
}

/// Flags shared by every bench binary.
struct BenchOptions {
  bool full = false;
  bool csv = false;
  int threads = 1;  // resolved worker count (>= 1)
  std::string metrics_out;   // --metrics-out FILE ("" = off)
  std::string chrome_trace;  // --chrome-trace FILE ("" = off)
  bool prof = false;         // --prof (hardware counters)
};

/// The binary's file name: argv[0] without its directory.
inline std::string BenchName(int argc, char** argv) {
  if (argc < 1 || argv[0] == nullptr) return "unknown";
  const std::string path = argv[0];
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// A manifest's first record: the binary, its build and its argv. Callers
/// add their own run parameters before writing it.
inline obs::Json RunRecord(int argc, char** argv) {
  obs::Json run = obs::MakeRecord("run");
  run.Set("bench", obs::Json(BenchName(argc, argv)));
  run.Set("git", obs::Json(obs::GitDescribe()));
  run.Set("build_info", obs::BuildInfoJson());
  obs::Json args = obs::Json::Array();
  for (int i = 1; i < argc; ++i) args.Push(obs::Json(argv[i]));
  run.Set("argv", std::move(args));
  return run;
}

/// One `prof` record per scope aggregate of `prof`: backend, fallback flag,
/// scope count, the six counter totals and IPC.
inline std::vector<obs::Json> ProfRecords(const obs::Profiler& prof) {
  std::vector<obs::Json> records;
  for (const auto& [scope, agg] : prof.Read()) {
    obs::Json record = obs::MakeRecord("prof");
    record.Set("scope", obs::Json(scope));
    record.Set("backend", obs::Json(obs::ProfBackendName(prof.backend())));
    record.Set("fallback", obs::Json(prof.fallback()));
    record.Set("count", obs::Json(agg.count));
    const obs::Json totals = agg.totals.ToJson();
    for (const auto& [key, value] : totals.items()) record.Set(key, value);
    record.Set("ipc", obs::Json(agg.totals.Ipc()));
    records.push_back(std::move(record));
  }
  return records;
}

/// A manifest's last record. Its count includes itself, so a truncated
/// manifest never matches it.
inline obs::Json RunEndRecord(const obs::ManifestWriter& writer,
                              double wall_seconds) {
  obs::Json end = obs::MakeRecord("run_end");
  end.Set("records", obs::Json(writer.records_written() + 1));
  end.Set("wall_seconds", obs::Json(wall_seconds));
  return end;
}

namespace internal {

inline std::unique_ptr<runtime::TrialRunner>& RunnerSlot() {
  static std::unique_ptr<runtime::TrialRunner> runner;
  return runner;
}

struct RunInfo {
  std::chrono::steady_clock::time_point start;
  int threads = 1;
};

inline RunInfo& GlobalRunInfo() {
  static RunInfo info;
  return info;
}

// Wall time goes to stderr so stdout (the table / CSV) stays bit-identical
// across thread counts.
inline void PrintElapsedAtExit() {
  const RunInfo& info = GlobalRunInfo();
  double secs = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - info.start)
                    .count();
  std::fprintf(stderr, "[bench] threads=%d wall=%.2fs\n", info.threads, secs);
}

// Manifest/metrics state behind --metrics-out, --chrome-trace and --prof.
// One instance per bench process (function-static); inert unless
// Configure() saw one of the flags, so untraced runs pay nothing but a
// null check.
class Observability {
 public:
  static Observability& Get() {
    static Observability instance;
    return instance;
  }

  void Configure(const BenchOptions& opts, int argc, char** argv) {
    if (!opts.chrome_trace.empty()) {
      chrome_trace_path_ = opts.chrome_trace;
      trace_session_ = std::make_unique<obs::TraceSession>();
      trace_session_->SetProcessName(BenchName(argc, argv));
      // Lane 0 is the bench main thread (Configure runs before any trial
      // workers exist); TrialRunner names worker lanes as they appear.
      trace_session_->SetThreadName("main");
    }
    if (!opts.metrics_out.empty()) {
      auto writer = obs::ManifestWriter::Open(opts.metrics_out);
      if (!writer.ok()) {
        std::fprintf(stderr, "[bench] %s\n",
                     writer.status().message().c_str());
      } else {
        writer_.emplace(std::move(writer).value());
        registry_ = std::make_unique<obs::MetricsRegistry>();
      }
    }
    if (opts.prof) {
      obs::Profiler::Options prof_options;
      prof_options.trace = trace_session_.get();
      profiler_ = std::make_unique<obs::Profiler>(prof_options);
      std::fprintf(stderr, "[bench] prof backend: %s%s\n",
                   obs::ProfBackendName(profiler_->backend()),
                   profiler_->fallback() ? " (perf_event denied, fell back)"
                                         : "");
    }
    if (registry_ != nullptr) {
      obs::SetBuildInfoGauge(registry_.get());
    }
    if (!enabled()) return;
    obs::Json run = RunRecord(argc, argv);
    run.Set("threads", obs::Json(opts.threads));
    run.Set("full", obs::Json(opts.full));
    run.Set("prof", obs::Json(opts.prof));
    writer_->Write(run);
  }

  /// True when --metrics-out opened a manifest.
  bool enabled() const { return writer_.has_value(); }

  /// The run's metrics registry, or null when --metrics-out is off.
  obs::MetricsRegistry* registry() { return registry_.get(); }

  /// The run's execution-span session, or null when --chrome-trace is off.
  obs::TraceSession* trace_session() { return trace_session_.get(); }

  /// The run's hardware-counter profiler, or null when --prof is off.
  obs::Profiler* profiler() { return profiler_.get(); }

  /// Appends one record to the manifest; no-op when --metrics-out is off.
  void WriteRecord(const obs::Json& record) {
    if (writer_.has_value()) writer_->Write(record);
  }

  /// Flushes the chrome trace, the registry snapshot and the run_end
  /// trailer.
  /// Registered atexit by ParseOptions; idempotent.
  void Finish() {
    if (finished_) return;
    finished_ = true;
    if (profiler_ != nullptr) {
      // Profiler aggregates fan out to every surface here, off the hot
      // path: one `prof` manifest record per scope, and prof.* gauges in
      // the registry (which the metrics record below then snapshots).
      if (registry_ != nullptr) profiler_->ExportMetrics(registry_.get());
      for (const obs::Json& record : ProfRecords(*profiler_)) {
        WriteRecord(record);
      }
    }
    if (trace_session_ != nullptr) {
      const Status status = trace_session_->WriteTo(chrome_trace_path_);
      if (!status.ok()) {
        std::fprintf(stderr, "[bench] %s\n", status.message().c_str());
      } else {
        std::fprintf(stderr, "[bench] chrome trace: %s (%zu events)\n",
                     chrome_trace_path_.c_str(),
                     trace_session_->event_count());
      }
    }
    if (!enabled()) return;
    obs::Json metrics = obs::MakeRecord("metrics");
    metrics.Set("metrics", registry_->Read().ToJson());
    writer_->Write(metrics);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() -
                            GlobalRunInfo().start)
                            .count();
    writer_->Write(RunEndRecord(*writer_, wall));
  }

 private:
  std::optional<obs::ManifestWriter> writer_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<obs::TraceSession> trace_session_;
  std::unique_ptr<obs::Profiler> profiler_;
  std::string chrome_trace_path_;
  bool finished_ = false;
};

inline void FinishObservabilityAtExit() { Observability::Get().Finish(); }

}  // namespace internal

/// Parses the shared flags, configures the shared trial runner, and opens
/// the run manifest when --metrics-out is given.
inline BenchOptions ParseOptions(int argc, char** argv) {
  BenchOptions opts;
  opts.full = HasFlag(argc, argv, "--full");
  opts.csv = HasFlag(argc, argv, "--csv");
  opts.threads =
      FlagValue(argc, argv, "--threads", runtime::HardwareThreads());
  opts.metrics_out = FlagString(argc, argv, "--metrics-out");
  opts.chrome_trace = FlagString(argc, argv, "--chrome-trace");
  opts.prof = HasFlag(argc, argv, "--prof");
  internal::RunnerSlot() =
      std::make_unique<runtime::TrialRunner>(opts.threads);
  internal::GlobalRunInfo() = {std::chrono::steady_clock::now(),
                               opts.threads};
  std::atexit(internal::PrintElapsedAtExit);
  internal::Observability::Get().Configure(opts, argc, argv);
  std::atexit(internal::FinishObservabilityAtExit);
  return opts;
}

/// The shared trial runner (created by ParseOptions; defaults to all
/// hardware threads if ParseOptions was never called).
inline runtime::TrialRunner& Runner() {
  if (internal::RunnerSlot() == nullptr) {
    internal::RunnerSlot() =
        std::make_unique<runtime::TrialRunner>(runtime::HardwareThreads());
  }
  return *internal::RunnerSlot();
}

/// Per-trial context handed to RunBatch's trial function. `Run` routes a
/// driver call through the run's spans, metrics registry and profiler (each
/// null when its flag is off), so a trial body reads identically traced or
/// untraced:
///
///   bench::RunBatch("label", trials, seed, [&](const bench::TrialCtx& ctx) {
///     core::SomeCounter algo(...);
///     auto report = ctx.Run(stream, &algo);
///     return runtime::TrialResult{algo.Estimate(), 0.0,
///                                 report.reported_peak_bytes,
///                                 report.audited_peak_bytes,
///                                 report.max_divergence_bytes};
///   });
struct TrialCtx {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  obs::TraceSession* spans = nullptr;

  /// AlgoT is deduced: every bench passes a concrete (final) estimator
  /// pointer, so the whole driver path devirtualizes (one OnListBatch call
  /// per adjacency list). Passing a StreamAlgorithm* still works and is
  /// bit-identical.
  template <typename StreamT, typename AlgoT>
  stream::RunReport Run(const StreamT& s, AlgoT* algo) const {
    stream::TraceOptions trace;
    trace.metrics = internal::Observability::Get().registry();
    trace.spans = spans;
    trace.prof = internal::Observability::Get().profiler();
    return stream::RunPasses(s, algo, trace);
  }

  /// Packs a driver report into the trial's result slots.
  runtime::TrialResult Result(double estimate, double aux,
                              const stream::RunReport& report) const {
    return runtime::TrialResult{estimate, aux, report.reported_peak_bytes,
                                report.audited_peak_bytes,
                                report.max_divergence_bytes};
  }
};

/// Runs `trials` trials through the shared Runner (same seeds/slots as
/// Runner().Run, so printed numbers are unchanged) and, when manifests are
/// open, records the batch: per-trial estimate/aux/space plus wall and
/// queue-wait timings (kept out of the returned deterministic results), and
/// wall/queue-wait histograms in the metrics registry. `config` is an
/// arbitrary JSON object identifying the batch's parameters (m, T, sample
/// size, ...).
inline std::vector<runtime::TrialResult> RunBatch(
    const std::string& label, std::size_t trials, std::uint64_t base_seed,
    const std::function<runtime::TrialResult(const TrialCtx&)>& fn,
    obs::Json config = obs::Json::Object()) {
  internal::Observability& ob = internal::Observability::Get();
  obs::TraceSession* spans = ob.trace_session();
  auto batch_span = obs::TraceSession::Begin(spans, "batch " + label, "bench");
  batch_span.SetArg("trials", obs::Json(trials));
  std::vector<runtime::TrialTiming> timings;
  std::vector<runtime::TrialResult> results = Runner().Run(
      trials, base_seed,
      [&fn, spans](std::size_t i, std::uint64_t seed) {
        return fn(TrialCtx{i, seed, spans});
      },
      &timings, spans, ob.profiler());
  batch_span.End();
  if (!ob.enabled()) return results;

  obs::Json batch = obs::MakeRecord("batch");
  batch.Set("label", obs::Json(label));
  batch.Set("trials", obs::Json(trials));
  batch.Set("base_seed", obs::Json(base_seed));
  batch.Set("config", std::move(config));
  obs::Json rows = obs::Json::Array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    obs::Json row = obs::Json::Object();
    row.Set("trial", obs::Json(i));
    row.Set("seed", obs::Json(runtime::TrialSeed(base_seed, i)));
    row.Set("estimate", obs::Json(results[i].estimate));
    row.Set("aux", obs::Json(results[i].aux));
    row.Set("reported_peak_bytes", obs::Json(results[i].reported_peak_bytes));
    row.Set("audited_peak_bytes", obs::Json(results[i].audited_peak_bytes));
    row.Set("max_divergence_bytes",
            obs::Json(results[i].max_divergence_bytes));
    row.Set("wall_seconds", obs::Json(timings[i].wall_seconds));
    row.Set("queue_wait_seconds", obs::Json(timings[i].queue_wait_seconds));
    rows.Push(std::move(row));
  }
  batch.Set("results", std::move(rows));
  ob.WriteRecord(batch);

  if (obs::MetricsRegistry* registry = ob.registry()) {
    static const std::vector<double> kSecondsBounds = {
        1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0};
    obs::Histogram wall =
        registry->GetHistogram("bench.trial_wall_seconds", kSecondsBounds);
    obs::Histogram wait = registry->GetHistogram(
        "bench.trial_queue_wait_seconds", kSecondsBounds);
    for (const runtime::TrialTiming& t : timings) {
      wall.Observe(t.wall_seconds);
      wait.Observe(t.queue_wait_seconds);
    }
    registry->GetCounter("bench.trials").Increment(trials);
    registry->GetCounter("bench.batches").Increment();
  }
  return results;
}

/// Records one (x, y) point of a named measured curve (e.g. minimal sample
/// size vs T) in the metrics manifest. No-op when manifests are off.
inline void CurvePoint(const std::string& curve, double x, double y) {
  obs::Json point = obs::MakeRecord("curve_point");
  point.Set("curve", obs::Json(curve));
  point.Set("x", obs::Json(x));
  point.Set("y", obs::Json(y));
  internal::Observability::Get().WriteRecord(point);
}

/// Records a curve's measured log-log slope against the paper's predicted
/// exponent, with the bench's own consistency verdict. No-op when
/// manifests are off.
inline void Slope(const std::string& curve, double measured, double predicted,
                  bool consistent) {
  obs::Json slope = obs::MakeRecord("slope");
  slope.Set("curve", obs::Json(curve));
  slope.Set("measured", obs::Json(measured));
  slope.Set("predicted", obs::Json(predicted));
  slope.Set("consistent", obs::Json(consistent));
  internal::Observability::Get().WriteRecord(slope);
}

/// Fits the slope of log(y) against log(x) (least squares) — used to verify
/// scaling exponents ("the shape") against the paper's predictions.
inline double LogLogSlope(const std::vector<double>& x,
                          const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    double lx = std::log(x[i]), ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  double denom = n * sxx - sx * sx;
  return denom == 0 ? 0.0 : (n * sxy - sx * sy) / denom;
}

/// The run's metrics registry (null when --metrics-out is off). Benches
/// bind accuracy observers and extra counters here so they land in the
/// metrics snapshot and any Prometheus scrape.
inline obs::MetricsRegistry* Metrics() {
  return internal::Observability::Get().registry();
}

/// Records an estimator's accuracy-vs-guarantee summary (obs/accuracy.h:
/// per-trial relative error against the predicted (epsilon, delta) band)
/// as an "accuracy" manifest record with the observer's ToJson fields
/// flattened in. The observer's histogram/gauges already live in the
/// metrics registry; this surfaces the verdict for
/// `bench_report.py validate`. No-op when manifests are off.
inline void RecordAccuracy(const obs::AccuracyObserver& observer) {
  obs::Json record = obs::MakeRecord("accuracy");
  // Named copy: items() returns a reference into the Json, so iterating a
  // temporary's items() would dangle.
  const obs::Json body = observer.ToJson();
  for (const auto& [key, value] : body.items()) {
    record.Set(key, value);
  }
  internal::Observability::Get().WriteRecord(record);
}

/// The run's Chrome-trace session (null when --chrome-trace is off).
inline obs::TraceSession* TraceSpans() {
  return internal::Observability::Get().trace_session();
}

/// The run's hardware-counter profiler (null when --prof is off). Benches
/// open extra scopes on it for phases they want attributed beyond the
/// driver's per-pass and the runtime's per-trial scopes.
inline obs::Profiler* Prof() {
  return internal::Observability::Get().profiler();
}

/// Records the least-squares log-log exponent fit of a measured space
/// curve (peak bytes vs T) next to the paper's predicted exponent, as a
/// "fit" manifest record. The points are also re-emitted as curve_point
/// records so `bench_report.py fit` can refit and cross-check. No-op when
/// manifests are off.
inline void FitCurve(const std::string& curve, const std::vector<double>& x,
                     const std::vector<double>& y, double predicted_exponent) {
  for (std::size_t i = 0; i < std::min(x.size(), y.size()); ++i) {
    CurvePoint(curve, x[i], y[i]);
  }
  const double fitted = LogLogSlope(x, y);
  obs::Json fit = obs::MakeRecord("fit");
  fit.Set("curve", obs::Json(curve));
  fit.Set("fitted_exponent", obs::Json(fitted));
  fit.Set("predicted_exponent", obs::Json(predicted_exponent));
  fit.Set("points", obs::Json(std::min(x.size(), y.size())));
  internal::Observability::Get().WriteRecord(fit);
}

struct TrialStats {
  double mean = 0.0;
  double median = 0.0;
  double stddev = 0.0;
  double median_rel_error = 0.0;  // vs a supplied truth
  double frac_within = 0.0;       // |est - truth| <= tol * truth
};

/// Summary statistics of a trial batch. Medians average the middle pair on
/// even sizes (matching core::Median); an empty batch yields all zeros.
inline TrialStats Summarize(std::vector<double> estimates, double truth,
                            double tolerance) {
  TrialStats s;
  if (estimates.empty()) return s;
  const double n = static_cast<double>(estimates.size());
  for (double e : estimates) s.mean += e;
  s.mean /= n;
  for (double e : estimates) s.stddev += (e - s.mean) * (e - s.mean);
  s.stddev = estimates.size() > 1 ? std::sqrt(s.stddev / (n - 1)) : 0.0;
  s.median = core::Median(estimates);
  if (truth > 0) {
    std::vector<double> rel;
    int within = 0;
    for (double e : estimates) {
      rel.push_back(std::abs(e - truth) / truth);
      within += std::abs(e - truth) <= tolerance * truth;
    }
    s.median_rel_error = core::Median(std::move(rel));
    s.frac_within = within / n;
  }
  return s;
}

/// Smallest sample size from a geometric grid for which `success_rate(m')`
/// reaches `target`. The grid is {base, base*step, ...} capped at max_value.
inline std::size_t MinimalSample(
    std::size_t base, double step, std::size_t max_value, double target,
    const std::function<double(std::size_t)>& success_rate) {
  std::size_t m_prime = base;
  while (true) {
    if (success_rate(m_prime) >= target) return m_prime;
    if (m_prime >= max_value) return max_value;
    m_prime = std::min<std::size_t>(
        max_value, static_cast<std::size_t>(std::ceil(m_prime * step)));
  }
}

/// Human-friendly bytes.
inline std::string FormatBytes(std::size_t bytes) {
  char buf[32];
  if (bytes >= 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB", bytes / (1024.0 * 1024.0));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB", bytes / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%zuB", bytes);
  }
  return buf;
}

/// printf-style prose line. In CSV mode every line is prefixed with "# " so
/// the output stays machine-readable.
inline void Note(const BenchOptions& opts, const char* fmt, ...) {
  char buf[2048];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (!opts.csv) {
    std::fputs(buf, stdout);
    return;
  }
  const char* line = buf;
  while (*line != '\0') {
    const char* newline = std::strchr(line, '\n');
    std::size_t len = newline ? static_cast<std::size_t>(newline - line)
                              : std::strlen(line);
    if (len > 0) std::printf("# %.*s", static_cast<int>(len), line);
    std::printf("\n");
    if (newline == nullptr) break;
    line = newline + 1;
  }
}

inline void PrintHeader(const BenchOptions& opts, const char* title,
                        const char* claim) {
  const char* prefix = opts.csv ? "# " : "";
  if (!opts.csv) {
    std::printf("==========================================================="
                "===================\n");
  }
  std::printf("%s%s\n", prefix, title);
  std::printf("%spaper claim: %s\n", prefix, claim);
  if (!opts.csv) {
    std::printf("==========================================================="
                "===================\n");
  }
}

/// RFC 4180 CSV quoting: a field containing a comma, double quote, or line
/// break is wrapped in double quotes with embedded quotes doubled; anything
/// else passes through untouched. Without this, a string cell like
/// "chung-lu, gamma=2.5" would silently add a column to its row.
inline std::string CsvEscape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Column kinds for Table: non-negative values are fixed-point precisions
/// for doubles; kColInt formats integers; kColStr strings.
constexpr int kColInt = -1;
constexpr int kColStr = -2;

struct Column {
  const char* name;
  int width;      // table-mode cell width (right-aligned)
  int precision;  // >= 0, kColInt, or kColStr
};

/// One table cell; implicit from the value types the benches use.
class Cell {
 public:
  Cell(double v) : num_(v), kind_(kNum) {}                       // NOLINT
  Cell(int v) : num_(v), int_(static_cast<unsigned long long>(v)),
                kind_(kInt) {}                                   // NOLINT
  Cell(std::size_t v) : num_(static_cast<double>(v)), int_(v),
                        kind_(kInt) {}                           // NOLINT
  Cell(unsigned long long v) : num_(static_cast<double>(v)), int_(v),
                               kind_(kInt) {}                    // NOLINT
  Cell(const char* s) : str_(s), kind_(kStr) {}                  // NOLINT
  Cell(const std::string& s) : str_(s), kind_(kStr) {}           // NOLINT

  std::string Format(const Column& column) const {
    char buf[64];
    if (column.precision == kColStr) return str_;
    if (column.precision == kColInt) {
      std::snprintf(buf, sizeof(buf), "%llu",
                    kind_ == kNum ? static_cast<unsigned long long>(num_)
                                  : int_);
    } else {
      std::snprintf(buf, sizeof(buf), "%.*f", column.precision, num_);
    }
    return buf;
  }

 private:
  double num_ = 0.0;
  unsigned long long int_ = 0;
  std::string str_;
  enum Kind { kNum, kInt, kStr } kind_;
};

/// A paper-style aligned table that degrades to CSV under --csv. The
/// printed values are identical in both modes (same precision), so CSV rows
/// are exactly the table rows, comma-separated.
class Table {
 public:
  Table(const BenchOptions& opts, std::vector<Column> columns)
      : csv_(opts.csv), columns_(std::move(columns)) {}

  std::string FormatHeader() const {
    std::string out;
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      if (csv_) {
        if (i > 0) out += ',';
        out += CsvEscape(columns_[i].name);
      } else {
        if (i > 0) out += ' ';
        out += Pad(columns_[i].name, columns_[i].width);
      }
    }
    return out;
  }

  std::string FormatRow(std::initializer_list<Cell> cells) const {
    std::string out;
    std::size_t i = 0;
    for (const Cell& cell : cells) {
      const Column& column = columns_[std::min(i, columns_.size() - 1)];
      std::string text = cell.Format(column);
      if (csv_) {
        if (i > 0) out += ',';
        out += CsvEscape(text);
      } else {
        if (i > 0) out += ' ';
        out += Pad(text, column.width);
      }
      ++i;
    }
    return out;
  }

  void PrintHeader() const { std::printf("%s\n", FormatHeader().c_str()); }

  void PrintRow(std::initializer_list<Cell> cells) const {
    std::printf("%s\n", FormatRow(cells).c_str());
  }

 private:
  static std::string Pad(std::string text, int width) {
    while (static_cast<int>(text.size()) < width) {
      text.insert(text.begin(), ' ');
    }
    return text;
  }

  bool csv_;
  std::vector<Column> columns_;
};

}  // namespace bench
}  // namespace cyclestream

#endif  // CYCLESTREAM_BENCH_BENCH_UTIL_H_
