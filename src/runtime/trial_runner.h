// Deterministic parallel execution of independent trials.
//
// Every Table 1 / Figure 1 bench and every median-amplified estimator run is
// a batch of (spec × seed) trials that are mutually independent — exactly
// the workload a thread pool absorbs. `TrialRunner` fans a batch out over a
// `ThreadPool` under a strict determinism contract:
//
//   * Trial i receives the seed `TrialSeed(base_seed, i)` — element i of the
//     SplitMix64 stream seeded by `base_seed`. Seeds depend only on
//     (base_seed, i), never on which worker runs the trial or when.
//   * Results are written to slot i of the output vector.
//   * The trial function must be a pure function of (trial_index, seed) and
//     of state it does not mutate (shared Graphs and streams are read-only).
//
// Under that contract the result vector is bit-identical for any thread
// count and any scheduling — verified by tests/runtime_test.cc — so benches
// may default to all hardware threads without changing a single printed
// digit. Only the per-trial wall times vary across runs.

#ifndef CYCLESTREAM_RUNTIME_TRIAL_RUNNER_H_
#define CYCLESTREAM_RUNTIME_TRIAL_RUNNER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <vector>

#include "obs/prof.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"

namespace cyclestream {
namespace runtime {

/// Seed for trial `trial_index` of a batch: the trial_index-th output of a
/// SplitMix64 generator seeded with `base_seed`. O(1), collision-resistant
/// across both arguments, and independent of scheduling by construction.
std::uint64_t TrialSeed(std::uint64_t base_seed, std::size_t trial_index);

/// What one trial reports back: `estimate` is the statistic under study,
/// `aux` an optional secondary statistic (e.g. the ablation estimator from
/// the same run). Every field is a deterministic function of
/// (trial_index, seed) — timing lives in `TrialTiming`, outside the
/// deterministic result slots, so results can be compared bit-for-bit
/// across thread counts.
struct TrialResult {
  double estimate = 0.0;
  double aux = 0.0;
  /// Peak self-reported CurrentSpaceBytes() of the trial's run.
  std::size_t reported_peak_bytes = 0;
  /// Peak allocator-measured live bytes (0 when the trial's algorithm
  /// exposes no memory domain, as a lockstep amplified group does — see
  /// core/median.h).
  std::size_t audited_peak_bytes = 0;
  /// Largest |audited - reported| over the trial's space samples.
  std::size_t max_divergence_bytes = 0;
};

/// Scheduling-dependent observations about one trial, collected by the
/// runner (not the trial function) and kept strictly apart from
/// `TrialResult`.
struct TrialTiming {
  /// Time inside the trial function.
  double wall_seconds = 0.0;
  /// Time between batch submission and the trial starting on a worker
  /// (0 when trials run inline on the calling thread).
  double queue_wait_seconds = 0.0;
};

/// Fans batches of independent trials out over a thread pool (or runs them
/// inline when constructed with one thread).
class TrialRunner {
 public:
  /// Runner with its own pool of `num_threads` workers; `num_threads <= 1`
  /// means no pool — trials run inline on the calling thread.
  explicit TrialRunner(int num_threads);

  /// Runner over a borrowed pool (not owned; may be null for inline runs).
  /// `pool` must outlive the runner.
  explicit TrialRunner(ThreadPool* pool);

  /// Worker count this runner fans out to (1 when running inline).
  int num_threads() const;

  /// The pool trials run on, or null when running inline.
  ThreadPool* pool() const { return pool_; }

  using TrialFn = std::function<TrialResult(std::size_t trial_index,
                                            std::uint64_t seed)>;

  /// Runs `fn(i, TrialSeed(base_seed, i))` for i in [0, num_trials) and
  /// returns the results in trial order. If `timings` is non-null it is
  /// resized to num_trials and timings[i] receives trial i's wall time and
  /// queue wait; if `spans` is non-null every trial body is wrapped in a
  /// "trial" execution span on its worker's lane; if `prof` is non-null
  /// every trial body runs under a "runtime.trial" ProfScope, so the
  /// pool workers' hardware-counter spend lands in the profiler's
  /// aggregates (per-thread counter sets open lazily per worker). The
  /// results themselves are identical either way.
  std::vector<TrialResult> Run(std::size_t num_trials, std::uint64_t base_seed,
                               const TrialFn& fn,
                               std::vector<TrialTiming>* timings = nullptr,
                               obs::TraceSession* spans = nullptr,
                               obs::Profiler* prof = nullptr) const;

  /// Generic deterministic map: out[i] = fn(i, TrialSeed(base_seed, i)).
  /// `R` must be default-constructible and move-assignable. On a pool, an
  /// exception from `fn` reaches the caller only after every trial has
  /// finished; the first one in trial order is rethrown.
  template <typename R, typename Fn>
  std::vector<R> Map(std::size_t n, std::uint64_t base_seed, Fn&& fn) const {
    std::vector<R> out(n);
    if (pool_ == nullptr || n <= 1) {
      for (std::size_t i = 0; i < n; ++i) out[i] = fn(i, TrialSeed(base_seed, i));
      return out;
    }
    std::vector<std::future<void>> pending;
    pending.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      pending.push_back(pool_->Submit([&out, &fn, base_seed, i] {
        out[i] = fn(i, TrialSeed(base_seed, i));
      }));
    }
    // Every task writes into `out` and reads `fn`: none may outlive this
    // frame, so wait for all of them before get() can rethrow.
    for (auto& future : pending) future.wait();
    for (auto& future : pending) future.get();
    return out;
  }

  /// Projections over a result batch.
  static std::vector<double> Estimates(const std::vector<TrialResult>& results);
  static std::vector<double> AuxEstimates(
      const std::vector<TrialResult>& results);
  static std::size_t MaxReportedPeak(const std::vector<TrialResult>& results);

 private:
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;  // null => run trials inline
};

}  // namespace runtime
}  // namespace cyclestream

#endif  // CYCLESTREAM_RUNTIME_TRIAL_RUNNER_H_
