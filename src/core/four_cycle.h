// Two-pass O(1)-approximate 4-cycle counting in O(m / T^{3/8}) space —
// Theorem 4.6.
//
// Algorithm (Section 4.2), sample size m':
//   Pass 1: bottom-m' edge sample S (second pass may use any order).
//   Between passes: Q = all wedges whose two edges both lie in S.
//   Pass 2: per adjacency list z, mark wedge endpoints; the mark completing
//     wedge u-c-w in z's list, z != c, closes the 4-cycle c-u-z-w. Tally
//     T_w per wedge and the set of distinct cycles found (canonical key =
//     the two sorted diagonals {c,z}, {u,w}).
//   Output: with k² = m(m-1) / (|S|(|S|-1)), the paper's estimator is
//     k² * (number of distinct cycles with at least one wedge in Q) — the
//     f_G + f_B quantity of Lemma 4.3/4.4, an O(1)-factor approximation when
//     m' = Ω(m / T^{3/8}). The multiplicity estimator k² * Σ_{w∈Q} T_w / 4
//     (unbiased but heavy-tailed on overused wedges) is exposed for the
//     ablation bench.
//
// When m' >= m both estimators return the exact count.

#ifndef CYCLESTREAM_CORE_FOUR_CYCLE_H_
#define CYCLESTREAM_CORE_FOUR_CYCLE_H_

#include <cstdint>
#include <span>

#include "core/watch_index.h"
#include "graph/types.h"
#include "graph/wedge.h"
#include "obs/accounting.h"
#include "sampling/bottom_k.h"
#include "stream/algorithm.h"

namespace cyclestream {
namespace core {

struct FourCycleOptions {
  /// Edge-sample size m' = Θ(m / T^{3/8}) per Theorem 4.6.
  std::size_t sample_size = 1;
  std::uint64_t seed = 1;
  /// Safety cap on |Q| (wedges inside S can exceed |S| on skewed samples;
  /// the paper stores them all). 0 means "no cap". When the cap binds, the
  /// lowest-priority wedges are kept and `wedge_cap_hit` is reported so
  /// callers can flag the run; with the paper's sizing it never binds.
  std::size_t max_wedges = 0;
};

struct FourCycleResult {
  /// The paper's estimator: k² * distinct cycles detected.
  double estimate = 0.0;
  /// Ablation: k² * Σ_{w ∈ Q} T_w / 4.
  double multiplicity_estimate = 0.0;
  std::uint64_t edge_count = 0;
  std::size_t edge_sample_size = 0;
  std::size_t wedge_count = 0;        // |Q|
  std::uint64_t distinct_cycles = 0;  // cycles with >= 1 wedge in Q
  std::uint64_t wedge_incidences = 0; // Σ_{w ∈ Q} T_w
  bool wedge_cap_hit = false;
  double k_squared = 1.0;
};

/// Streaming implementation of Theorem 4.6.
class TwoPassFourCycleCounter final : public stream::PairDispatch<TwoPassFourCycleCounter> {
 public:
  explicit TwoPassFourCycleCounter(const FourCycleOptions& options);

  int passes() const override { return 2; }

  void BeginPass(int pass) override;
  void EndList(VertexId u) override;
  void EndPass(int pass) override;
  std::size_t CurrentSpaceBytes() const override;

  FourCycleResult result() const;
  double Estimate() const { return result().estimate; }

  /// Snapshot contract (stream/algorithm.h). The restoring instance must be
  /// constructed with the same options; mismatches → kFailedPrecondition.
  /// Note: Q's wedge order is reproduced verbatim, so restores are
  /// bit-identical even when `max_wedges` truncated BuildWedges.
  void Serialize(snapshot::SnapshotWriter& w) const override;
  Status Restore(snapshot::SnapshotReader& r) override;

 private:
  friend class stream::PairDispatch<TwoPassFourCycleCounter>;

  // Per-element mutation, driven by PairDispatch for both deliveries.
  void HandlePair(VertexId u, VertexId v);

  // Checkpoint layout, run by Serialize and Restore (snapshot/codec.h).
  static void Fields(auto& self, auto& ar);

  struct WedgeState {
    Wedge wedge;
    std::uint32_t ends = 0;   // ListMarks word, in what was padding
    std::uint64_t count = 0;  // T_w restricted to pass-2 detections
  };
  static_assert(sizeof(WedgeState) == 24);  // the size the meter counts

  struct EdgeEntry {
    VertexId lo = 0;
    VertexId hi = 0;
  };

  void BuildWedges();

  FourCycleOptions options_;
  int pass_ = -1;
  std::uint64_t pair_events_ = 0;

  sampling::BottomKSampler<EdgeEntry> edge_sample_;
  obs::AccountedVector<WedgeState> wedges_;
  WatchIndex<VertexId, std::uint32_t> wedge_watchers_;
  ListMarks marks_;
  obs::AccountedUnorderedSet<std::uint64_t> found_cycles_;
  std::uint64_t wedge_incidences_ = 0;
  bool wedge_cap_hit_ = false;
  bool finished_ = false;
};

}  // namespace core
}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_FOUR_CYCLE_H_
