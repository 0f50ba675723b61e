// Two-pass (1 ± ε) triangle counting in O(m / T^{2/3}) space — Theorem 3.7,
// the paper's main upper bound.
//
// Algorithm (Section 3.2), for sample size m':
//   Pass 1: keep a bottom-m' hash-priority sample S of the edges, admitting
//     an edge the first time it appears (sampling/bottom_k.h guarantees that
//     final-sample edges are admitted at first sight). Detect triangles on
//     sampled edges with the per-list two-bit flagging trick; feed each
//     detected (edge, triangle) pair into a second bottom-k sample Q, and
//     maintain T' = |{(e, τ) : e ∈ S, τ ∈ L(e)}| (per-edge tallies are
//     rolled back when an edge is evicted from S).
//   Pass 2 (same stream order): finish detecting pairs whose third vertex
//     precedes the edge's first appearance, and compute, for every τ ∈ Q and
//     each of its three edges f, the rank statistic
//       H_{f,τ} = |{σ ∈ L(f) : σ^{-f}'s list arrives after τ^{-f}'s list}|.
//     Each candidate τ marks, per list, which endpoints of its three edges
//     the list has delivered. A list that delivers both endpoints of f is
//     σ^{-f}'s list for some σ ∈ L(f), and it adds one to H_{f,τ} when τ^{-f}
//     has already been seen this pass. That "already seen" flag implements
//     the strict order <_f exactly (Section 3.3.1's ordering argument
//     guarantees every qualifying σ arrives after τ joins Q, so nothing is
//     missed).
//   Output: with k = m / |S|, the lightest-edge rule ρ(τ) = argmin_f H_{f,τ}
//     (ties broken by edge key) gives
//       T̂ = k · (T' / |Q|) · |{(e, τ) ∈ Q : ρ(τ) = e}|.
//
// When m' >= m the algorithm degenerates to an exact count (S = E, Q = all
// pairs, k = 1) — used as a test oracle.
//
// Faithfulness note: Q is maintained as a bottom-k sample with a 2x internal
// slack so that (rare) interactions between Q overflow evictions and
// S-eviction rollbacks cannot practically bias the final sample; the final
// estimate uses the bottom-|Q∩final candidates| prefix. The paper idealizes
// this step as "sample a size-m' subset Q uniformly".

#ifndef CYCLESTREAM_CORE_TWO_PASS_TRIANGLE_H_
#define CYCLESTREAM_CORE_TWO_PASS_TRIANGLE_H_

#include <cstdint>
#include <span>

#include "core/watch_index.h"
#include "graph/types.h"
#include "obs/accounting.h"
#include "sampling/bottom_k.h"
#include "stream/algorithm.h"

namespace cyclestream {
namespace core {

/// Configuration for TwoPassTriangleCounter.
struct TwoPassTriangleOptions {
  /// Edge-sample size m' (also the capacity of the pair sample Q).
  /// Theorem 3.7: m' = Θ(m / (ε² T^{2/3})) suffices for a (1 ± ε) estimate
  /// with probability 2/3.
  std::size_t sample_size = 1;
  /// Seed for all sampling decisions; distinct seeds give independent copies.
  std::uint64_t seed = 1;
  /// Ablation switch: when false, skips the lightest-edge rule and estimates
  /// from raw pair counts, T̂ = k · T' / 3 (the high-variance estimator the
  /// paper's Section 2.1 motivates against).
  bool use_lightest_edge_rule = true;
};

/// Diagnostics accompanying the estimate.
struct TwoPassTriangleResult {
  double estimate = 0.0;
  std::uint64_t edge_count = 0;          // m, learned in pass 1
  std::uint64_t candidate_pairs = 0;     // T' for the final sample S
  std::size_t edge_sample_size = 0;      // |S| = min(m, m')
  std::size_t pair_sample_size = 0;      // |Q| used by the estimator
  std::size_t pairs_live = 0;            // candidate pairs alive at the end
  bool q_overflowed = false;             // Q ever rejected/evicted a pair
  std::uint64_t rho_hits = 0;            // |{(e,τ) ∈ Q : ρ(τ) = e}|
  double k = 1.0;                        // m / |S|
};

/// Streaming implementation of Theorem 3.7. Requires two passes in the same
/// order: pass 2 compares list positions against the first appearances pass 1
/// recorded. Construct, run via stream::RunPasses, then read result().
class TwoPassTriangleCounter final : public stream::PairDispatch<TwoPassTriangleCounter> {
 public:
  explicit TwoPassTriangleCounter(const TwoPassTriangleOptions& options);

  int passes() const override { return 2; }

  void BeginPass(int pass) override;
  void BeginList(VertexId u) override;
  void EndList(VertexId u) override;
  void EndPass(int pass) override;

  std::size_t CurrentSpaceBytes() const override;

  /// Estimate and diagnostics; valid after both passes.
  TwoPassTriangleResult result() const;

  /// Snapshot contract (stream/algorithm.h): the complete algorithm state
  /// (edge sample S with first-appearance positions and tally counters,
  /// candidate set Q with H statistics and seen flags, the slab and both
  /// watcher indices verbatim, pass bookkeeping). Valid only at
  /// adjacency-list boundaries (per-list flags and endpoint marks are
  /// transient and never stored). Restore also reads a version-1 payload,
  /// whose triangle-edge map it drops (snapshot/snapshot.h). The payload
  /// is the Section 5.1 message for the paper's main algorithm: a fresh
  /// instance with identical options resumes from these bytes alone and
  /// reproduces the monolithic run exactly (tests assert bitwise-equal
  /// results on the Figure 1b gadgets).
  void Serialize(snapshot::SnapshotWriter& w) const override;
  Status Restore(snapshot::SnapshotReader& r) override;

  double Estimate() const { return result().estimate; }

 private:
  struct EdgeState {
    VertexId lo = 0;
    VertexId hi = 0;
    std::uint32_t first_pos = 0;   // list index of first appearance (pass 1)
    std::uint64_t tri_count = 0;   // candidate pairs contributed to T'
    bool flag_lo = false;          // per-list endpoint flags
    bool flag_hi = false;
  };

  // A candidate (sampled edge, triangle) pair. Vertex slot convention:
  // vert[0] = sampled-edge lo, vert[1] = sampled-edge hi, vert[2] = apex w.
  // Edge slot j is the edge *opposite* vert[j] (so slot 2 is the sampled
  // edge), h[j] = H_{edge_j, τ}, and seen[j] tracks vert[j] in pass 2.
  // `ends` marks which endpoints of each edge pass 2's list number
  // `stamp - 1` has delivered: bit 2j for vert[(j+1)%3], bit 2j+1 for
  // vert[(j+2)%3]. The marks go stale when the list ends.
  struct TriEntry {
    VertexId vert[3] = {0, 0, 0};
    std::uint32_t stamp = 0;
    std::uint64_t h[3] = {0, 0, 0};
    bool seen[3] = {false, false, false};
    bool live = false;  // slab slot in use
    std::uint8_t ends = 0;
  };
  // The marks sit in padding: the meter counts the slab at this size.
  static_assert(sizeof(TriEntry) == 48);

  friend class stream::PairDispatch<TwoPassTriangleCounter>;

  // Per-element mutation, driven by PairDispatch for both deliveries.
  void HandlePair(VertexId u, VertexId v);

  // Checkpoint layout, run by Serialize and Restore (snapshot/codec.h).
  static void Fields(auto& self, auto& ar);

  EdgeKey EdgeKeyOfSlot(const TriEntry& entry, int slot) const;
  std::uint32_t AllocEntry();
  void FreeEntry(std::uint32_t idx);
  void SubscribeEntry(std::uint32_t idx);
  void UnsubscribeEntry(std::uint32_t idx);
  void OnEdgeEvicted(EdgeKey key, EdgeState&& state);
  void OnPairEvicted(std::uint64_t pair_key, std::uint32_t slab_idx);
  void HandleTriangleDetection(EdgeKey edge_key, EdgeState* edge,
                               VertexId apex);

  TwoPassTriangleOptions options_;
  int pass_ = -1;
  std::uint32_t list_pos_ = 0;          // index of current list in this pass
  std::uint64_t pair_events_ = 0;       // stream pairs seen in pass 1 (= 2m)

  // Edge sample S, listed at both ends of each edge.
  SampledEdges<EdgeState> edges_;
  // Swept at EndList, not counted as marks land (ListMarks): an inline
  // first-pass detection offers its candidate to Q, which can evict another
  // before a later pair of the list evicts the detecting edge; its
  // candidates are then erased, but that eviction stays. Inline, 2 of
  // 12,000 seeded runs (Chung-Lu, Erdos-Renyi, m' <= 8) changed estimate.
  obs::AccountedVector<EdgeKey> touched_edges_;

  // Pair sample Q: keys -> slab indices; slab holds TriEntry state.
  sampling::BottomKSampler<std::uint32_t> pair_sample_;
  obs::AccountedVector<TriEntry> slab_;
  obs::AccountedVector<std::uint32_t> free_slots_;
  WatchIndex<VertexId, std::uint32_t> tri_verts_;

  std::uint64_t t_prime_ = 0;  // running candidate-pair count for current S
  // True once any candidate pair has been rejected by or evicted from Q;
  // while false, Q holds the entire candidate set and the estimator can use
  // it wholesale ("or let Q be the entire set if it is smaller", step 3c).
  bool q_overflowed_ = false;
  bool finished_ = false;
};

}  // namespace core
}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_TWO_PASS_TRIANGLE_H_
