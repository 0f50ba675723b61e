// One-pass triangle estimation in O(m / sqrt(T)) space — the McGregor–
// Vorotnikova–Vu (PODS'16) style baseline the paper's Table 1 lists for the
// single-pass adjacency-list setting.
//
// Sampling rule: keep a bottom-m' hash sample S of edges (admitted at first
// appearance). For a triangle uvw whose vertex lists arrive in order
// u, v, w, the edge uv has fully appeared (both copies) before w's list, and
// it is the unique edge of the triangle with that property. So: when list w
// delivers the second endpoint of a sampled edge already seen twice, count
// one detection. Each triangle is detected iff its "earliest" edge is
// sampled — probability |S|/m — giving the unbiased estimate
// (m / |S|) * detections. Variance is driven by heavy edges (many triangles
// sharing the earliest edge), which is why the paper's two-pass algorithm
// exists; the Table 1 bench shows this directly.

#ifndef CYCLESTREAM_CORE_ONE_PASS_TRIANGLE_H_
#define CYCLESTREAM_CORE_ONE_PASS_TRIANGLE_H_

#include <cstdint>
#include <span>

#include "core/watch_index.h"
#include "graph/types.h"
#include "stream/algorithm.h"

namespace cyclestream {
namespace core {

struct OnePassTriangleOptions {
  /// Edge-sample size m'. Θ(m / sqrt(T)) suffices for a constant-factor
  /// estimate with constant probability.
  std::size_t sample_size = 1;
  std::uint64_t seed = 1;
};

struct OnePassTriangleResult {
  double estimate = 0.0;
  std::uint64_t edge_count = 0;
  std::uint64_t detections = 0;
  std::size_t edge_sample_size = 0;
  double k = 1.0;
};

/// Single-pass estimator; exact when sample_size >= m.
class OnePassTriangleCounter final : public stream::PairDispatch<OnePassTriangleCounter> {
 public:
  explicit OnePassTriangleCounter(const OnePassTriangleOptions& options);

  int passes() const override { return 1; }

  void BeginPass(int pass) override;
  void EndList(VertexId u) override;
  std::size_t CurrentSpaceBytes() const override;

  OnePassTriangleResult result() const;
  double Estimate() const { return result().estimate; }

  /// Snapshot contract (stream/algorithm.h). The restoring instance must be
  /// constructed with the same options; mismatches → kFailedPrecondition.
  void Serialize(snapshot::SnapshotWriter& w) const override;
  Status Restore(snapshot::SnapshotReader& r) override;

 private:
  struct EdgeState {
    VertexId lo = 0;
    VertexId hi = 0;
    std::uint32_t ends = 0;  // ListMarks word
    bool seen_twice = false;
    std::uint64_t detections = 0;
  };

  friend class stream::PairDispatch<OnePassTriangleCounter>;

  // Per-element mutation, driven by PairDispatch for both deliveries.
  void HandlePair(VertexId u, VertexId v);

  // Checkpoint layout, run by Serialize and Restore (snapshot/codec.h).
  static void Fields(auto& self, auto& ar);

  OnePassTriangleOptions options_;
  std::uint64_t pair_events_ = 0;
  std::uint64_t detections_ = 0;
  SampledEdges<EdgeState> edges_;
  bool finished_ = false;
};

}  // namespace core
}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_ONE_PASS_TRIANGLE_H_
