#include "core/exact_stream.h"

#include "snapshot/codec.h"
#include "util/check.h"

namespace cyclestream {
namespace core {

void ExactStreamTriangleCounter::BeginList(VertexId /*u*/) {
  current_list_.clear();
}

void ExactStreamTriangleCounter::HandlePair(VertexId u, VertexId v) {
  ++pair_events_;
  current_list_.push_back(v);
  (void)u;
}

void ExactStreamTriangleCounter::EndList(VertexId u) {
  // A triangle {x, y, u} is counted at u's list iff edge {x, y} has fully
  // appeared in earlier lists — true exactly when u's list is the last of
  // the three, so each triangle is counted once. Edge states are updated
  // only after the scan so that pairs within this list don't self-trigger.
  for (std::size_t i = 0; i < current_list_.size(); ++i) {
    for (std::size_t j = i + 1; j < current_list_.size(); ++j) {
      auto it = edge_state_.find(MakeEdgeKey(current_list_[i], current_list_[j]));
      if (it != edge_state_.end() && it->second == 2) ++triangles_;
    }
  }
  for (VertexId v : current_list_) {
    ++edge_state_[MakeEdgeKey(u, v)];
  }
  current_list_.clear();
}

void ExactStreamTriangleCounter::Fields(auto& self, auto& ar) {
  ar.U64(self.pair_events_);
  ar.U64(self.triangles_);
  ar.Scratch(self.current_list_);
  ar.Buckets(self.edge_state_);
  ar.Map(
      self.edge_state_,
      [&](auto key) -> auto& { return self.edge_state_[key]; },
      [](auto& ar, auto& copies) { ar.U8(copies); });
}

void ExactStreamTriangleCounter::Serialize(snapshot::SnapshotWriter& w) const {
  snapshot::Saver ar(w);
  Fields(*this, ar);
}

Status ExactStreamTriangleCounter::Restore(snapshot::SnapshotReader& r) {
  snapshot::Loader ar(r);
  Fields(*this, ar);
  return ar.status();
}

std::size_t ExactStreamTriangleCounter::CurrentSpaceBytes() const {
  constexpr std::size_t kMapEntryOverhead = 16;
  return edge_state_.size() *
             (sizeof(EdgeKey) + sizeof(std::uint8_t) + kMapEntryOverhead) +
         current_list_.capacity() * sizeof(VertexId);
}

}  // namespace core
}  // namespace cyclestream
