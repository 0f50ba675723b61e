// One-pass 4-cycle estimation baseline (wedge-at-last-vertex sampling).
//
// Every 4-cycle has a unique last-arriving adjacency list z; at that moment
// the wedge opposite z has both of its edges fully delivered. Keeping a
// bottom-m' edge sample S and counting completions of fully-seen sampled
// wedges therefore counts each cycle at most once, with probability
// |S|(|S|-1) / (m(m-1)) — an unbiased estimator after rescaling.
//
// There is deliberately no space guarantee here: Theorem 5.3 proves that
// one-pass 4-cycle counting requires Ω(m) space to distinguish 0 from
// T <= m^{1/3} cycles, and the Figure 1c bench uses this estimator to show
// the failure empirically (on the INDEX gadget its variance swamps the
// signal until m' ~ m). On cycle-rich graphs it is a serviceable heuristic.

#ifndef CYCLESTREAM_CORE_ONE_PASS_FOUR_CYCLE_H_
#define CYCLESTREAM_CORE_ONE_PASS_FOUR_CYCLE_H_

#include <cstdint>
#include <span>

#include "core/watch_index.h"
#include "graph/types.h"
#include "graph/wedge.h"
#include "obs/accounting.h"
#include "stream/algorithm.h"

namespace cyclestream {
namespace core {

struct OnePassFourCycleOptions {
  std::size_t sample_size = 1;
  std::uint64_t seed = 1;
};

struct OnePassFourCycleResult {
  double estimate = 0.0;
  std::uint64_t edge_count = 0;
  std::uint64_t detections = 0;
  std::size_t edge_sample_size = 0;
  std::size_t wedge_count = 0;
  double k_squared = 1.0;
};

/// Single-pass 4-cycle estimator; exact when sample_size >= m.
class OnePassFourCycleCounter final : public stream::PairDispatch<OnePassFourCycleCounter> {
 public:
  explicit OnePassFourCycleCounter(const OnePassFourCycleOptions& options);

  int passes() const override { return 1; }

  void EndList(VertexId u) override;
  std::size_t CurrentSpaceBytes() const override;

  OnePassFourCycleResult result() const;
  double Estimate() const { return result().estimate; }

  /// Snapshot contract (stream/algorithm.h). The restoring instance must be
  /// constructed with the same options; mismatches → kFailedPrecondition.
  void Serialize(snapshot::SnapshotWriter& w) const override;
  Status Restore(snapshot::SnapshotReader& r) override;

 private:
  friend class stream::PairDispatch<OnePassFourCycleCounter>;

  // Per-element mutation, driven by PairDispatch for both deliveries.
  void HandlePair(VertexId u, VertexId v);

  // Checkpoint layout, run by Serialize and Restore (snapshot/codec.h).
  static void Fields(auto& self, auto& ar);

  // No default constructor: the nested wedge list must bind to the owning
  // space domain (the sampler moves payloads within its array and out on
  // eviction, so the vector keeps its allocator through those moves).
  struct EdgeState {
    explicit EdgeState(const obs::AccountedAllocator<std::uint32_t>& alloc)
        : wedges(alloc) {}
    VertexId lo = 0;
    VertexId hi = 0;
    bool seen_twice = false;
    obs::AccountedVector<std::uint32_t> wedges;  // wedge slots on this edge
  };

  struct WedgeState {
    Wedge wedge;
    std::uint32_t ends = 0;  // ListMarks word
    EdgeKey edge_a = 0;  // center-end_lo
    EdgeKey edge_b = 0;  // center-end_hi
    bool live = false;
    std::uint64_t detections = 0;
  };

  void AddWedgesForNewEdge(EdgeKey key);
  void RemoveWedge(std::uint32_t idx);

  OnePassFourCycleOptions options_;
  std::uint64_t pair_events_ = 0;
  std::uint64_t detections_ = 0;

  SampledEdges<EdgeState> edges_;
  obs::AccountedVector<WedgeState> wedges_;
  obs::AccountedVector<std::uint32_t> free_wedges_;
  std::size_t live_wedges_ = 0;
  WatchIndex<VertexId, std::uint32_t> wedge_watchers_;
  ListMarks marks_;
};

}  // namespace core
}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_ONE_PASS_FOUR_CYCLE_H_
