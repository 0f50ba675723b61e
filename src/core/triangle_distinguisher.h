// Two-pass 0-vs-T triangle distinguisher in O(m / T^{2/3}) space — the
// McGregor–Vorotnikova–Vu (PODS'16) algorithm that the paper's Section 2.1
// uses as its starting point.
//
// Pass 1: sample m' edges (bottom-k). Pass 2: mark sampled-edge endpoints
// per adjacency list; a list delivering both endpoints of a sampled edge
// witnesses a triangle. Since a graph with T triangles has >= T^{2/3} edges
// in triangles, m' = O(m / T^{2/3}) samples hit one with good probability.
// Also exposes the naive unbiased estimate (m/|S|) * Σ_{e∈S} T(e) / 3, whose
// heavy-edge variance motivates Theorem 3.7's lightest-edge rule.

#ifndef CYCLESTREAM_CORE_TRIANGLE_DISTINGUISHER_H_
#define CYCLESTREAM_CORE_TRIANGLE_DISTINGUISHER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/watch_index.h"
#include "graph/types.h"
#include "stream/algorithm.h"

namespace cyclestream {
namespace core {

struct TriangleDistinguisherOptions {
  std::size_t sample_size = 1;  // m' = Θ(m / T^{2/3}) per the paper
  std::uint64_t seed = 1;
};

struct TriangleDistinguisherResult {
  bool found_triangle = false;
  /// Naive estimate (m/|S|) * Σ_{e ∈ S} T(e) / 3 (unbiased, high variance).
  double naive_estimate = 0.0;
  std::uint64_t edge_count = 0;
  std::uint64_t incidences = 0;  // Σ_{e ∈ S} T(e)
  std::size_t edge_sample_size = 0;
};

/// Two-pass distinguisher (second pass may use any list order).
class TriangleDistinguisher final : public stream::PairDispatch<TriangleDistinguisher> {
 public:
  explicit TriangleDistinguisher(const TriangleDistinguisherOptions& options);

  int passes() const override { return 2; }

  void BeginPass(int pass) override;
  void EndList(VertexId u) override;
  std::size_t CurrentSpaceBytes() const override;

  TriangleDistinguisherResult result() const;

  /// Snapshot contract (stream/algorithm.h). Only valid at adjacency-list
  /// boundaries (per-list endpoint marks are stale there and not stored).
  /// The payload is the literal protocol message of Section 5.1: a player
  /// ships the snapshot, the next player Restore()s it on a fresh instance
  /// constructed with the SAME options (the hash seed makes sampling
  /// priorities reproducible) and resumes the stream.
  void Serialize(snapshot::SnapshotWriter& w) const override;
  Status Restore(snapshot::SnapshotReader& r) override;

 private:
  friend class stream::PairDispatch<TriangleDistinguisher>;

  // Per-element mutation, driven by PairDispatch for both deliveries.
  void HandlePair(VertexId u, VertexId v);

  // Checkpoint layout, run by Serialize and Restore (snapshot/codec.h).
  static void Fields(auto& self, auto& ar);

  struct EdgeState {
    VertexId lo = 0;
    VertexId hi = 0;
    std::uint32_t ends = 0;  // ListMarks word
  };
  static_assert(sizeof(EdgeState) == 12);  // the size the sampler meters

  TriangleDistinguisherOptions options_;
  int pass_ = -1;
  std::uint64_t pair_events_ = 0;
  std::uint64_t incidences_ = 0;
  SampledEdges<EdgeState> edges_;
};

}  // namespace core
}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_TRIANGLE_DISTINGUISHER_H_
