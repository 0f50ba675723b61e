// Median-of-independent-copies amplification (the log(1/δ) wrapper used by
// Theorems 3.7 and 4.6) plus convenience one-call estimators.
//
// `ParallelCopies` multiplexes one physical stream into R independent
// algorithm copies — the streaming-faithful way to amplify: the stream is
// still read passes() times, and total space is the sum over copies. On a
// thread pool each copy instead replays the stream on its own task; a copy's
// state depends only on the events it receives, which are the same either
// way.

#ifndef CYCLESTREAM_CORE_MEDIAN_H_
#define CYCLESTREAM_CORE_MEDIAN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/four_cycle.h"
#include "core/one_pass_triangle.h"
#include "core/two_pass_triangle.h"
#include "runtime/thread_pool.h"
#include "runtime/trial_runner.h"
#include "stream/adjacency_stream.h"
#include "stream/algorithm.h"
#include "stream/driver.h"

namespace cyclestream {
namespace core {

/// Runs R copies of an algorithm as one StreamAlgorithm. All copies must
/// take the same number of passes.
class ParallelCopies : public stream::StreamAlgorithm {
 public:
  explicit ParallelCopies(
      std::vector<std::unique_ptr<stream::StreamAlgorithm>> copies);

  int passes() const override;
  /// The group accepts a model iff every copy does — amplification never
  /// weakens a copy's model requirement.
  bool AcceptsModel(stream::StreamModel model) const override;

  void BeginPass(int pass) override;
  void BeginList(VertexId u) override;
  void OnPair(VertexId u, VertexId v) override;
  /// Forwards the batch to each copy's OnListBatch, so copies with real
  /// batch implementations keep their fast path under amplification.
  void OnListBatch(VertexId u, std::span<const VertexId> list) override;
  void EndList(VertexId u) override;
  void EndPass(int pass) override;
  std::size_t CurrentSpaceBytes() const override;

  std::size_t num_copies() const { return copies_.size(); }
  stream::StreamAlgorithm* copy(std::size_t i) { return copies_[i].get(); }

  /// Drives every copy over all of its passes, for any replayable stream
  /// type (adjacency-list, arbitrary, random-order — the model gate applies
  /// exactly as in the single-copy driver). With `pool ==
  /// nullptr` (or a one-thread pool, or one copy) this is exactly
  /// `stream::RunPasses(stream, this)`: the copies march in lockstep
  /// through one replay per pass, and the report samples the group, which
  /// exposes no memory domain, so `audited_peak_bytes` is 0. With a pool,
  /// each copy runs `stream::RunPasses` on its own task and audits its own
  /// memory. Copies never share mutable state, so each copy's final state
  /// (and estimate) is bit-identical between the two modes. The pooled
  /// report is the sum of the copies' own reports (every peak, per pass
  /// too, and the divergence), an upper bound on the lockstep peak, with
  /// the pairs counted once per pass as in lockstep; it depends only on the
  /// copies, never on the pool size.
  template <typename StreamT>
  stream::RunReport Run(const StreamT& stream,
                        runtime::ThreadPool* pool = nullptr) {
    if (pool == nullptr || pool->num_threads() <= 1 || copies_.size() <= 1) {
      return stream::RunPasses(stream, this);
    }
    return SumReports(runtime::TrialRunner(pool).Map<stream::RunReport>(
        copies_.size(), 0, [&](std::size_t i, std::uint64_t) {
          return stream::RunPasses(stream, copies_[i].get());
        }));
  }

 private:
  // The pooled report: copy 0's pair counts, every peak and divergence
  // added up over the copies.
  static stream::RunReport SumReports(
      const std::vector<stream::RunReport>& reports);

  std::vector<std::unique_ptr<stream::StreamAlgorithm>> copies_;
};

/// Median of a vector (by value; averages the middle pair for even sizes).
double Median(std::vector<double> values);

/// Aggregated outcome of a median-amplified run.
struct AmplifiedEstimate {
  double estimate = 0.0;               // median over copies
  std::vector<double> copy_estimates;  // raw per-copy estimates
  stream::RunReport report;            // space/pass report for all copies
};

/// Theorem 3.7 end-to-end: median of `copies` independent two-pass triangle
/// estimators with per-copy sample size `sample_size`.
///
/// All three `Estimate*` wrappers accept an optional thread pool, handed to
/// `ParallelCopies::Run`. With `pool == nullptr` (the default) the copies
/// run in lockstep through one replay per pass. With a pool, each copy
/// replays the shared, read-only stream on its own pool task. Copy c's seed
/// is `Mix128To64(seed, c)` in both paths, so `copy_estimates` and
/// `estimate` are bit-identical regardless of the pool or its size
/// (tested). Only the report differs: the pooled one is the sum of the
/// copies' own reports, so its peaks bound the lockstep peak from above and
/// its `audited_peak_bytes` is the sum of the copies' audited peaks (0 in
/// lockstep).
AmplifiedEstimate EstimateTriangles(const stream::AdjacencyListStream& stream,
                                    std::size_t sample_size, int copies,
                                    std::uint64_t seed,
                                    runtime::ThreadPool* pool = nullptr);

/// One-pass baseline end-to-end (MVV'16 style).
AmplifiedEstimate EstimateTrianglesOnePass(
    const stream::AdjacencyListStream& stream, std::size_t sample_size,
    int copies, std::uint64_t seed, runtime::ThreadPool* pool = nullptr);

/// Theorem 4.6 end-to-end: median of `copies` two-pass 4-cycle estimators.
AmplifiedEstimate EstimateFourCycles(const stream::AdjacencyListStream& stream,
                                     std::size_t sample_size, int copies,
                                     std::uint64_t seed,
                                     runtime::ThreadPool* pool = nullptr);

}  // namespace core
}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_MEDIAN_H_
