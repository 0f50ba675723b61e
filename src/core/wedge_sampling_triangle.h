// One-pass wedge-sampling triangle estimation, Õ(P2 / T) space — Table 1's
// first row (Buriol et al., PODS'06 lineage; also the scheme behind
// Jha–Seshadhri–Pinar's random-order algorithm the paper cites).
//
// In adjacency-list order every wedge u-c-w is visible inside c's list, so
// a uniform wedge sample needs no edge storage: reservoir-sample m' wedges
// from the implicit wedge stream (Σ_c C(deg c, 2) = P2 items) and watch
// whether the closing edge {u, w} arrives in a later list. The closing edge
// appears in u's and w's lists, so a triangle's wedge at center c is
// closable iff c's list is not the last of the three — exactly 2 of each
// triangle's 3 wedges, under any order. Hence
//     T̂ = (closed fraction) * P2 / 2,
// a consistent estimator needing m' = Θ(P2 / (ε² T)) reservoir slots: cheap
// on wedge-light graphs, useless on wedge-heavy ones — which is why Table 1
// lists it separately from the m/sqrt(T) and m/T^{2/3} algorithms.
//
// The reservoir admits by skip-ahead (Li's Algorithm L, ACM TOMS 1994;
// Vitter's Algorithm Z is the older form). Give each wedge a uniform key:
// the reservoir holds the m' smallest, and W is the largest of those. Once
// it is full, each later wedge beats W independently with probability W,
// so the gap to the next admitted wedge is geometric, ⌊log U / log(1 − W)⌋;
// an admitted wedge takes a uniform slot, and W shrinks to W·U^{1/m'}. A
// pair with c earlier entries in its list just adds c to the wedge count
// unless the next admission falls among its c wedges, so a pass makes
// O(m' log(P2/m')) draws, not one per wedge, and the final reservoir is a
// uniform m'-subset of the P2 wedges. The draws go through std::log,
// std::exp, log1p and expm1, so bit-identical estimates across builds
// assume one libm.

#ifndef CYCLESTREAM_CORE_WEDGE_SAMPLING_TRIANGLE_H_
#define CYCLESTREAM_CORE_WEDGE_SAMPLING_TRIANGLE_H_

#include <cstdint>
#include <span>

#include "core/watch_index.h"
#include "graph/types.h"
#include "graph/wedge.h"
#include "obs/accounting.h"
#include "stream/algorithm.h"
#include "util/random.h"

namespace cyclestream {
namespace core {

struct WedgeSamplingOptions {
  /// Reservoir capacity m' = Θ(P2 / (ε² T)).
  std::size_t reservoir_size = 1;
  std::uint64_t seed = 1;
};

struct WedgeSamplingResult {
  double estimate = 0.0;
  std::uint64_t wedge_count = 0;    // P2, learned during the pass
  std::size_t sampled = 0;          // wedges in the final reservoir
  std::size_t closed = 0;           // sampled wedges whose closer arrived
  double transitivity_estimate = 0.0;  // 3T / P2 ~ 1.5 * closed fraction
};

/// Single-pass reservoir wedge sampler; exact when the reservoir holds all
/// P2 wedges.
class WedgeSamplingTriangleCounter final : public stream::PairDispatch<WedgeSamplingTriangleCounter> {
 public:
  explicit WedgeSamplingTriangleCounter(const WedgeSamplingOptions& options);

  int passes() const override { return 1; }

  void BeginList(VertexId u) override;
  std::size_t CurrentSpaceBytes() const override;

  WedgeSamplingResult result() const;
  double Estimate() const { return result().estimate; }

  /// Snapshot contract (stream/algorithm.h). The restoring instance must be
  /// constructed with the same options; mismatches → kFailedPrecondition.
  void Serialize(snapshot::SnapshotWriter& w) const override;
  Status Restore(snapshot::SnapshotReader& r) override;

 private:
  struct Slot {
    Wedge wedge;
    bool closed = false;
  };

  friend class stream::PairDispatch<WedgeSamplingTriangleCounter>;

  // Per-element mutation, driven by PairDispatch for both deliveries —
  // admissions (and thus rng_ draws) happen in the identical sequence.
  void HandlePair(VertexId u, VertexId v);

  // Checkpoint layout, run by Serialize and Restore (snapshot/codec.h).
  static void Fields(auto& self, auto& ar);

  // Puts wedge next_ into the reservoir and draws the one after it.
  void Admit(const Wedge& w);
  // Sets next_ to the first admitted wedge after wedge `index`.
  void DrawNext(std::uint64_t index);
  // The skip state a checkpoint older than version 4 leaves out.
  void DrawSkipState();

  WedgeSamplingOptions options_;
  Rng rng_;
  std::uint64_t wedge_count_ = 0;
  // W, the largest key in the reservoir: 1 while it fills, then strictly
  // inside (0, 1).
  double threshold_ = 1.0;
  // 1-based index of the next wedge to admit; wedge_count_ + 1 while the
  // reservoir fills, and saturating at 2^64 - 1.
  std::uint64_t next_ = 1;
  obs::AccountedVector<Slot> reservoir_;
  // Closure watch: endpoint-pair key -> reservoir slots waiting for it.
  WatchIndex<EdgeKey, std::uint32_t> closure_watch_;
  obs::AccountedVector<VertexId> current_list_;
  VertexId current_center_ = 0;
};

}  // namespace core
}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_WEDGE_SAMPLING_TRIANGLE_H_
