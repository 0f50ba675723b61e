// Triangle estimation exploiting the random-order edge model.
//
// In a uniformly random edge order, the first s elements are a uniform
// s-subset of the edges — a free sample the adversarial models never grant.
// The estimator stores that prefix as a graph and counts, for every later
// edge {u, v}, the common prefix-neighbors of u and v: each detection is a
// triangle with exactly two edges in the prefix and its third arriving
// after. For a uniform permutation each triangle is detected with
// probability p = 3·s(s−1)(m−s) / (m(m−1)(m−2)), so detections/p is
// unbiased. The algorithm itself is deterministic — all randomness lives in
// the stream's permutation seed, which is what makes the estimate unbiased
// over random orders and merely (1 ± O(ε))-biased under an ε-perturbed
// order, where at most ⌊εm⌋ elements sit outside their uniform positions.
//
// Degenerate regimes: s < 2 admits no wedge in the prefix (estimate 0);
// m ≤ s means the whole stream fit in the prefix and the result is the
// exact triangle count of the stored graph.

#ifndef CYCLESTREAM_CORE_RANDOM_ORDER_TRIANGLE_H_
#define CYCLESTREAM_CORE_RANDOM_ORDER_TRIANGLE_H_

#include <cstdint>

#include "core/watch_index.h"
#include "graph/types.h"
#include "obs/accounting.h"
#include "stream/algorithm.h"
#include "stream/model.h"

namespace cyclestream {
namespace core {

struct RandomOrderTriangleOptions {
  /// Prefix-sample size s: the number of leading stream edges stored.
  /// Θ(m / sqrt(T)) balances detection probability against space.
  std::size_t prefix_size = 1;
  /// Recorded in snapshots and hosted-estimator specs for option parity;
  /// the algorithm draws no randomness of its own (see file comment).
  std::uint64_t seed = 1;
};

struct RandomOrderTriangleResult {
  double estimate = 0.0;
  std::uint64_t edge_count = 0;
  std::uint64_t detections = 0;
  std::size_t prefix_edges = 0;
  /// 1/p, the per-detection weight (1.0 in the exact regime m ≤ s).
  double scale = 1.0;
};

/// One-pass prefix-wedge triangle estimator for declared-order edge
/// streams. Accepts only models whose order is promised uniform (or
/// ε-close to it): the analysis is *about* the order, so running it over
/// arbitrary or adjacency-list streams would silently drop the guarantee —
/// the driver's model gate turns that mistake into a typed error.
class RandomOrderTriangleCounter final
    : public stream::PairDispatch<RandomOrderTriangleCounter> {
 public:
  explicit RandomOrderTriangleCounter(
      const RandomOrderTriangleOptions& options);

  int passes() const override { return 1; }
  bool AcceptsModel(stream::StreamModel model) const override {
    return model == stream::StreamModel::kRandomOrder ||
           model == stream::StreamModel::kAdversarialPerturbed;
  }

  void BeginPass(int pass) override;
  std::size_t CurrentSpaceBytes() const override;

  RandomOrderTriangleResult result() const;
  double Estimate() const { return result().estimate; }

  /// Snapshot contract (stream/algorithm.h): the restoring instance must be
  /// constructed with the same options; mismatches → kFailedPrecondition.
  /// Restore replays the prefix insertions in arrival order, so container
  /// capacities and bucket counts land exactly where the uninterrupted
  /// instance's were — the bit-identity the chaos harness asserts.
  void Serialize(snapshot::SnapshotWriter& w) const override;
  Status Restore(snapshot::SnapshotReader& r) override;

 private:
  friend class stream::PairDispatch<RandomOrderTriangleCounter>;

  // One arriving edge {u, v}, driven by PairDispatch for both deliveries.
  void HandlePair(VertexId u, VertexId v);

  // Checkpoint layout, run by Serialize and Restore (snapshot/codec.h).
  static void Fields(auto& self, auto& ar);

  // Inserts `key` into the prefix adjacency index (set + per-endpoint
  // lists); shared by HandlePair and the Restore replay.
  void IndexPrefixEdge(EdgeKey key);

  // Common prefix-neighbors of u and v (smaller-list scan + O(1) probes).
  std::uint64_t CountCommonPrefixNeighbors(VertexId u, VertexId v) const;

  RandomOrderTriangleOptions options_;
  std::uint64_t edge_events_ = 0;
  std::uint64_t detections_ = 0;
  // The first s edges in arrival order — the canonical state; everything
  // below is an index over it, rebuilt by replay on restore.
  obs::AccountedVector<EdgeKey> prefix_edges_;
  obs::AccountedUnorderedSet<EdgeKey> prefix_set_;
  WatchIndex<VertexId, VertexId> prefix_adjacency_;
};

}  // namespace core
}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_RANDOM_ORDER_TRIANGLE_H_
