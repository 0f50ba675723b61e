// Trivial O(m)-space one-pass exact triangle counter — Table 1's "trivial
// O(m)" baseline. Stores every edge and counts each triangle at the last of
// its three adjacency lists. Used as the space/accuracy reference point the
// sublinear algorithms are compared against.

#ifndef CYCLESTREAM_CORE_EXACT_STREAM_H_
#define CYCLESTREAM_CORE_EXACT_STREAM_H_

#include <cstdint>
#include <span>

#include "graph/types.h"
#include "obs/accounting.h"
#include "stream/algorithm.h"

namespace cyclestream {
namespace core {

/// One-pass exact triangle counting with Θ(m) state.
class ExactStreamTriangleCounter final : public stream::PairDispatch<ExactStreamTriangleCounter> {
 public:
  ExactStreamTriangleCounter()
      : edge_state_(decltype(edge_state_)::allocator_type(&space_domain_)),
        current_list_(
            decltype(current_list_)::allocator_type(&space_domain_)) {}

  int passes() const override { return 1; }

  void BeginList(VertexId u) override;
  void EndList(VertexId u) override;
  std::size_t CurrentSpaceBytes() const override;

  std::uint64_t triangles() const { return triangles_; }
  std::uint64_t edge_count() const { return pair_events_ / 2; }

  /// Snapshot contract (stream/algorithm.h): complete state at an
  /// adjacency-list boundary, restore is bit-identical.
  void Serialize(snapshot::SnapshotWriter& w) const override;
  Status Restore(snapshot::SnapshotReader& r) override;

 private:
  friend class stream::PairDispatch<ExactStreamTriangleCounter>;

  // Per-element mutation, driven by PairDispatch for both deliveries.
  void HandlePair(VertexId u, VertexId v);

  // Checkpoint layout, run by Serialize and Restore (snapshot/codec.h).
  static void Fields(auto& self, auto& ar);

  // 0 = unseen, 1 = one copy seen, 2 = both copies seen.
  obs::AccountedUnorderedMap<EdgeKey, std::uint8_t> edge_state_;
  obs::AccountedVector<VertexId> current_list_;
  std::uint64_t pair_events_ = 0;
  std::uint64_t triangles_ = 0;
};

}  // namespace core
}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_EXACT_STREAM_H_
