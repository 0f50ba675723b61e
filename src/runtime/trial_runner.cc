#include "runtime/trial_runner.h"

#include <algorithm>

#include "util/random.h"

namespace cyclestream {
namespace runtime {

std::uint64_t TrialSeed(std::uint64_t base_seed, std::size_t trial_index) {
  // State of a SplitMix64 generator seeded with base_seed after trial_index
  // steps; one more step yields stream element trial_index in O(1).
  std::uint64_t state =
      base_seed + static_cast<std::uint64_t>(trial_index) *
                      0x9e3779b97f4a7c15ULL;
  return SplitMix64(&state);
}

TrialRunner::TrialRunner(int num_threads) {
  if (num_threads > 1) {
    owned_pool_ = std::make_unique<ThreadPool>(num_threads);
    pool_ = owned_pool_.get();
  }
}

TrialRunner::TrialRunner(ThreadPool* pool) : pool_(pool) {
  if (pool_ != nullptr && pool_->num_threads() <= 1) pool_ = nullptr;
}

int TrialRunner::num_threads() const {
  return pool_ == nullptr ? 1 : pool_->num_threads();
}

std::vector<TrialResult> TrialRunner::Run(
    std::size_t num_trials, std::uint64_t base_seed, const TrialFn& fn,
    std::vector<TrialTiming>* timings, obs::TraceSession* spans,
    obs::Profiler* prof) const {
  if (timings != nullptr) {
    timings->assign(num_trials, TrialTiming{});
  }
  // Submission time for queue-wait measurement: one timestamp for the
  // batch, taken just before the Map fans out. Queue wait for inline runs
  // stays 0 — there is no queue.
  const auto submit = std::chrono::steady_clock::now();
  const bool inline_run = pool_ == nullptr || num_trials <= 1;
  return Map<TrialResult>(
      num_trials, base_seed,
      [&fn, timings, submit, inline_run, spans, prof](std::size_t i,
                                                      std::uint64_t seed) {
        obs::TraceSession::Span span;
        if (spans != nullptr) {
          // Name the lane so Perfetto shows "trial-worker-N" instead of a
          // bare lane id (idempotent; "main" for inline runs).
          spans->SetThreadName(
              inline_run ? "main"
                         : "trial-worker-" +
                               std::to_string(
                                   obs::TraceSession::CurrentLane()));
          span = obs::TraceSession::Begin(
              spans, "trial " + std::to_string(i), "trial");
        }
        obs::ProfScope prof_scope =
            obs::Profiler::Begin(prof, "runtime.trial");
        const auto start = std::chrono::steady_clock::now();
        TrialResult result = fn(i, seed);
        prof_scope.End();
        span.End();
        if (timings != nullptr) {
          // Slot i is owned by trial i (pre-sized above), so no locking.
          TrialTiming& t = (*timings)[i];
          t.wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
          t.queue_wait_seconds =
              inline_run
                  ? 0.0
                  : std::chrono::duration<double>(start - submit).count();
        }
        return result;
      });
}

std::vector<double> TrialRunner::Estimates(
    const std::vector<TrialResult>& results) {
  std::vector<double> out;
  out.reserve(results.size());
  for (const TrialResult& r : results) out.push_back(r.estimate);
  return out;
}

std::vector<double> TrialRunner::AuxEstimates(
    const std::vector<TrialResult>& results) {
  std::vector<double> out;
  out.reserve(results.size());
  for (const TrialResult& r : results) out.push_back(r.aux);
  return out;
}

std::size_t TrialRunner::MaxReportedPeak(
    const std::vector<TrialResult>& results) {
  std::size_t peak = 0;
  for (const TrialResult& r : results)
    peak = std::max(peak, r.reported_peak_bytes);
  return peak;
}

}  // namespace runtime
}  // namespace cyclestream
