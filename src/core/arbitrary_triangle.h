// One-pass triangle estimation in the arbitrary-order model — the
// comparison point for the paper's adjacency-list results (Section 1.1).
//
// Estimator: keep a bottom-m' hash sample S of edges. An arriving edge
// {u, w} that closes a wedge u-v-w whose two edges are both in S witnesses
// a triangle; for a triangle whose edges arrive as e1, e2, e3 this happens
// iff {e1, e2} ⊆ S, with probability |S|(|S|-1)/(m(m-1)). Rescaling gives
// an unbiased estimate (exact at |S| >= m).
//
// The point of carrying this baseline: detection needs TWO sampled edges
// (probability ~ (m'/m)²) where the adjacency-list one-pass estimator needs
// one (~ m'/m) — the structural advantage the adjacency-list promise buys,
// before even reaching the Ω(m) one-pass lower bound for 0-vs-T
// distinguishing in this model [Braverman–Ostrovsky–Vilenchik].

#ifndef CYCLESTREAM_CORE_ARBITRARY_TRIANGLE_H_
#define CYCLESTREAM_CORE_ARBITRARY_TRIANGLE_H_

#include <cstdint>

#include "core/watch_index.h"
#include "graph/types.h"
#include "stream/algorithm.h"
#include "stream/model.h"

namespace cyclestream {
namespace core {

struct ArbitraryTriangleOptions {
  std::size_t sample_size = 1;
  std::uint64_t seed = 1;
};

struct ArbitraryTriangleResult {
  double estimate = 0.0;
  std::uint64_t edge_count = 0;
  std::uint64_t detections = 0;
  std::size_t edge_sample_size = 0;
  double k_squared = 1.0;
};

/// One-pass sampled-wedge triangle estimator for edge streams. Each stream
/// element is one edge (canonical u < v, delivered exactly once), so the
/// analysis holds in every edge model — arbitrary, random-order, perturbed —
/// and `AcceptsModel` admits them all while refusing adjacency-list streams,
/// whose elements are *pairs* (two per edge) and would be double-counted.
class ArbitraryOrderTriangleCounter final
    : public stream::PairDispatch<ArbitraryOrderTriangleCounter> {
 public:
  explicit ArbitraryOrderTriangleCounter(
      const ArbitraryTriangleOptions& options);

  int passes() const override { return 1; }
  bool AcceptsModel(stream::StreamModel model) const override {
    return stream::IsEdgeModel(model);
  }
  std::size_t CurrentSpaceBytes() const override;

  ArbitraryTriangleResult result() const;
  double Estimate() const { return result().estimate; }

 private:
  friend class stream::PairDispatch<ArbitraryOrderTriangleCounter>;

  struct EdgeState {
    VertexId lo = 0;
    VertexId hi = 0;
    // Each detection is attributed to one of its two wedge edges and
    // rolled back when that edge leaves the sample; see HandlePair.
    std::uint64_t detections = 0;
  };

  // One arriving edge {u, v}, driven by PairDispatch for both deliveries.
  void HandlePair(VertexId u, VertexId v);

  ArbitraryTriangleOptions options_;
  std::uint64_t edge_events_ = 0;
  std::uint64_t detections_ = 0;
  SampledEdges<EdgeState> edges_;
};

}  // namespace core
}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_ARBITRARY_TRIANGLE_H_
