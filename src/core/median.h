// Median-of-independent-copies amplification (the log(1/δ) wrapper used by
// Theorems 3.7 and 4.6) plus convenience one-call estimators.
//
// `ParallelCopies` multiplexes one physical stream into R independent
// algorithm copies — the streaming-faithful way to amplify: the stream is
// still read passes() times, and total space is the sum over copies.

#ifndef CYCLESTREAM_CORE_MEDIAN_H_
#define CYCLESTREAM_CORE_MEDIAN_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <vector>

#include "core/four_cycle.h"
#include "core/one_pass_triangle.h"
#include "core/two_pass_triangle.h"
#include "runtime/thread_pool.h"
#include "stream/adjacency_stream.h"
#include "stream/algorithm.h"
#include "stream/driver.h"

namespace cyclestream {
namespace core {

namespace internal {

// Non-owning view over a contiguous range of copies, driven as one
// StreamAlgorithm by a single worker.
class CopySpan : public stream::StreamAlgorithm {
 public:
  CopySpan(std::unique_ptr<stream::StreamAlgorithm>* copies, std::size_t n)
      : copies_(copies), n_(n) {}

  int passes() const override { return copies_[0]->passes(); }
  bool requires_same_order() const override {
    for (std::size_t i = 0; i < n_; ++i) {
      if (copies_[i]->requires_same_order()) return true;
    }
    return false;
  }
  bool AcceptsModel(stream::StreamModel model) const override {
    for (std::size_t i = 0; i < n_; ++i) {
      if (!copies_[i]->AcceptsModel(model)) return false;
    }
    return true;
  }
  void BeginPass(int pass) override {
    for (std::size_t i = 0; i < n_; ++i) copies_[i]->BeginPass(pass);
  }
  void BeginList(VertexId u) override {
    for (std::size_t i = 0; i < n_; ++i) copies_[i]->BeginList(u);
  }
  void OnPair(VertexId u, VertexId v) override {
    for (std::size_t i = 0; i < n_; ++i) copies_[i]->OnPair(u, v);
  }
  void OnListBatch(VertexId u, std::span<const VertexId> list) override {
    for (std::size_t i = 0; i < n_; ++i) copies_[i]->OnListBatch(u, list);
  }
  void EndList(VertexId u) override {
    for (std::size_t i = 0; i < n_; ++i) copies_[i]->EndList(u);
  }
  void EndPass(int pass) override {
    for (std::size_t i = 0; i < n_; ++i) copies_[i]->EndPass(pass);
  }
  std::size_t CurrentSpaceBytes() const override {
    std::size_t total = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      total += copies_[i]->CurrentSpaceBytes();
    }
    return total;
  }

 private:
  std::unique_ptr<stream::StreamAlgorithm>* copies_;
  std::size_t n_;
};

}  // namespace internal

/// Runs R copies of an algorithm as one StreamAlgorithm. All copies must
/// take the same number of passes.
class ParallelCopies : public stream::StreamAlgorithm {
 public:
  explicit ParallelCopies(
      std::vector<std::unique_ptr<stream::StreamAlgorithm>> copies);

  int passes() const override;
  bool requires_same_order() const override;
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

  /// Snapshot contract: copies serialize in index order; restore requires
  /// the same copy count (and each copy's own options to match).
  void Serialize(snapshot::SnapshotWriter& w) const override;
  Status Restore(snapshot::SnapshotReader& r) override;

  /// Drives every copy over all of its passes, for any replayable stream
  /// type (adjacency-list, arbitrary, random-order — the model gate applies
  /// per chunk exactly as in the single-copy driver). With `pool == nullptr`
  /// this is exactly `stream::RunPasses(stream, this)` — the copies march in
  /// lockstep through one replay per pass. With a pool, the copies are
  /// partitioned into one contiguous chunk per worker; each worker replays
  /// the stream once per pass for its chunk. Copies never share mutable
  /// state, so each copy's final state (and estimate) is bit-identical
  /// between the two modes; only `reported_peak_bytes` differs (the
  /// parallel path reports the sum of per-chunk peaks, an upper bound on
  /// the lockstep peak). `audited_peak_bytes` stays 0 in both modes: the
  /// group wrapper exposes no unified memory domain (each copy audits
  /// itself only when driven directly).
  template <typename StreamT>
  stream::RunReport Run(const StreamT& stream,
                        runtime::ThreadPool* pool = nullptr) {
    if (pool == nullptr || pool->num_threads() <= 1 || copies_.size() <= 1) {
      return stream::RunPasses(stream, this);
    }
    const std::size_t chunks = std::min<std::size_t>(
        static_cast<std::size_t>(pool->num_threads()), copies_.size());
    std::vector<stream::RunReport> chunk_reports(chunks);
    std::vector<std::future<void>> pending;
    pending.reserve(chunks);
    std::size_t begin = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      // Even partition: remaining copies split over remaining chunks.
      const std::size_t end = begin + (copies_.size() - begin) / (chunks - c);
      pending.push_back(pool->Submit([this, &stream, &chunk_reports, c, begin,
                                      end] {
        internal::CopySpan span(&copies_[begin], end - begin);
        chunk_reports[c] = stream::RunPasses(stream, &span);
      }));
      begin = end;
    }
    for (auto& future : pending) future.get();

    stream::RunReport merged;
    merged.passes_requested = passes();
    // The stream is multiplexed to all copies: one logical read per pass,
    // matching the sequential report regardless of how many workers
    // replayed.
    merged.pairs_processed = stream.stream_length() *
                             static_cast<std::size_t>(merged.passes_requested);
    for (const stream::RunReport& r : chunk_reports) {
      merged.reported_peak_bytes += r.reported_peak_bytes;
      merged.audited_peak_bytes += r.audited_peak_bytes;
      merged.max_divergence_bytes =
          std::max(merged.max_divergence_bytes, r.max_divergence_bytes);
    }
    return merged;
  }

 private:
  // Checkpoint layout, run by Serialize and Restore (snapshot/codec.h).
  static void Fields(auto& self, auto& ar);

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
/// All three `Estimate*` wrappers accept an optional thread pool. With
/// `pool == nullptr` (the default) the copies run in lockstep through a
/// single `ParallelCopies` group, the historical sequential path. With a
/// pool, the copies are partitioned into one contiguous chunk per worker and
/// each chunk's pass-1/pass-2 state is built on the pool while the (shared,
/// read-only) stream is replayed once per pass per chunk. Copy c's seed is
/// `Mix128To64(seed, c)` in both paths, so `copy_estimates` and `estimate`
/// are bit-identical regardless of the pool or its size (tested). The
/// report differs only in `reported_peak_bytes`: the parallel path reports
/// the sum of per-chunk peaks, an upper bound on the lockstep peak.
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
