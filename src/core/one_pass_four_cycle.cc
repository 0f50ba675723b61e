#include "core/one_pass_four_cycle.h"

#include <algorithm>

#include "snapshot/codec.h"
#include "util/hashing.h"

namespace cyclestream {
namespace core {

OnePassFourCycleCounter::OnePassFourCycleCounter(
    const OnePassFourCycleOptions& options)
    : options_(options),
      edges_(options.sample_size, Mix64(options.seed) ^ 0x6666666666666666ULL,
             &space_domain_),
      wedges_(decltype(wedges_)::allocator_type(&space_domain_)),
      free_wedges_(decltype(free_wedges_)::allocator_type(&space_domain_)),
      wedge_watchers_(&space_domain_) {}

void OnePassFourCycleCounter::AddWedgesForNewEdge(EdgeKey key) {
  // Pair the new edge with every sampled edge sharing an endpoint.
  EdgeState& added = *edges_.Find(key);
  for (VertexId center : {added.lo, added.hi}) {
    VertexId new_end = OtherEndpoint(key, center);
    edges_.ForEachAt(center, [&](EdgeKey other, EdgeState& other_state) {
      if (other == key) return;
      VertexId other_end = OtherEndpoint(other, center);
      if (other_end == new_end) return;
      std::uint32_t idx;
      if (!free_wedges_.empty()) {
        idx = free_wedges_.back();
        free_wedges_.pop_back();
        wedges_[idx] = WedgeState{};
      } else {
        idx = static_cast<std::uint32_t>(wedges_.size());
        wedges_.emplace_back();
      }
      WedgeState& w = wedges_[idx];
      w.wedge = MakeWedge(center, new_end, other_end);
      w.edge_a = MakeEdgeKey(center, w.wedge.end_lo);
      w.edge_b = MakeEdgeKey(center, w.wedge.end_hi);
      w.live = true;
      ++live_wedges_;
      wedge_watchers_.Add(w.wedge.end_lo, idx);
      wedge_watchers_.Add(w.wedge.end_hi, idx);
      added.wedges.push_back(idx);
      other_state.wedges.push_back(idx);
    });
  }
}

void OnePassFourCycleCounter::RemoveWedge(std::uint32_t idx) {
  WedgeState& w = wedges_[idx];
  if (!w.live) return;
  detections_ -= w.detections;
  wedge_watchers_.Remove(w.wedge.end_lo, idx);
  wedge_watchers_.Remove(w.wedge.end_hi, idx);
  // Detach from the surviving edge's wedge list (the evicted edge's state is
  // being destroyed by the sampler).
  for (EdgeKey ekey : {w.edge_a, w.edge_b}) {
    EdgeState* st = edges_.Find(ekey);
    if (st != nullptr) SwapRemove(st->wedges, idx);
  }
  w.live = false;
  --live_wedges_;
  free_wedges_.push_back(idx);
}

void OnePassFourCycleCounter::HandlePair(VertexId u, VertexId v) {
  ++pair_events_;
  EdgeKey key = MakeEdgeKey(u, v);
  auto result = edges_.Offer(
      key, EdgeState{obs::AccountedAllocator<std::uint32_t>(&space_domain_)},
      [this](EdgeKey, EdgeState&& evicted) {
        // The evicted edge's wedges leave with it.
        obs::AccountedVector<std::uint32_t> wedges = std::move(evicted.wedges);
        for (std::uint32_t idx : wedges) RemoveWedge(idx);
      });
  if (result == sampling::OfferResult::kInserted) {
    AddWedgesForNewEdge(key);
  } else if (result == sampling::OfferResult::kAlreadyPresent) {
    edges_.Find(key)->seen_twice = true;
  }

  // Mark v on the wedges it ends. A wedge completed outside its centre's
  // list closes a 4-cycle once both its edges were seen twice, which can
  // change only in the lists of its centre and ends.
  for (std::uint32_t idx : wedge_watchers_.Find(v)) {
    WedgeState& w = wedges_[idx];
    if (!marks_.Mark(w.ends, w.wedge.end_lo == v ? 0 : 1)) continue;
    if (u == w.wedge.center) continue;
    const EdgeState* a = edges_.Find(w.edge_a);
    const EdgeState* b = edges_.Find(w.edge_b);
    if (a != nullptr && b != nullptr && a->seen_twice && b->seen_twice) {
      ++w.detections;
      ++detections_;
    }
  }
}

void OnePassFourCycleCounter::EndList(VertexId /*u*/) {
  if (marks_.EndList()) {
    for (WedgeState& w : wedges_) w.ends = 0;
  }
}

void OnePassFourCycleCounter::Fields(auto& self, auto& ar) {
  ar.Option(self.options_.sample_size, "sample_size");
  ar.Option(self.options_.seed, "seed");
  ar.U64(self.pair_events_);
  ar.U64(self.detections_);
  ar.U64(self.live_wedges_);
  SampledEdges<EdgeState>::Fields(
      self.edges_, ar,
      [&](auto /*key*/) {
        return EdgeState{
            obs::AccountedAllocator<std::uint32_t>(&self.space_domain_)};
      },
      [](auto& ar, auto& state) {
        ar.Bool(state.seen_twice);
        ar.Vec(state.wedges);
      });
  // The wedge slab: live slots carry real state; dead (free-listed) slots
  // are never read before being re-initialized, so they restore as defaults.
  ar.Vec(self.wedges_, [](auto& ar, auto& ws) {
    ar.Bool(ws.live);
    if (!ws.live) return;
    ar.U32(ws.wedge.center);
    ar.U32(ws.wedge.end_lo);
    ar.U32(ws.wedge.end_hi);
    ar.U64(ws.detections);
    if constexpr (ar.kLoading) {
      if (ar.ok()) {
        ws.edge_a = MakeEdgeKey(ws.wedge.center, ws.wedge.end_lo);
        ws.edge_b = MakeEdgeKey(ws.wedge.center, ws.wedge.end_hi);
      }
    }
  });
  ar.Vec(self.free_wedges_);
  WatchIndex<VertexId, std::uint32_t>::Fields(self.wedge_watchers_, ar);
  ar.Dropped(5);  // the touched-wedge list's capacity
  if constexpr (ar.kLoading) {
    // Edges and watch lists name live wedges, the free list dead ones.
    const auto live = SlotIn(self.wedges_, true);
    bool edges_name_live = true;
    self.edges_.ForEach([&](EdgeKey, const EdgeState& state) {
      edges_name_live =
          edges_name_live && std::ranges::all_of(state.wedges, live);
    });
    ar.Require(edges_name_live && self.wedge_watchers_.AllOf(live) &&
                   std::ranges::all_of(self.free_wedges_,
                                       SlotIn(self.wedges_, false)),
               "wedge slot outside the slab, or live where it must be free");
  }
}

void OnePassFourCycleCounter::Serialize(snapshot::SnapshotWriter& w) const {
  snapshot::Saver ar(w);
  Fields(*this, ar);
}

Status OnePassFourCycleCounter::Restore(snapshot::SnapshotReader& r) {
  snapshot::Loader ar(r);
  Fields(*this, ar);
  return ar.status();
}

std::size_t OnePassFourCycleCounter::CurrentSpaceBytes() const {
  return edges_.MemoryBytes() + wedges_.capacity() * sizeof(WedgeState) +
         wedge_watchers_.MemoryBytes() +
         free_wedges_.capacity() * sizeof(std::uint32_t);
}

OnePassFourCycleResult OnePassFourCycleCounter::result() const {
  OnePassFourCycleResult res;
  res.edge_count = pair_events_ / 2;
  res.detections = detections_;
  res.edge_sample_size = edges_.size();
  res.wedge_count = live_wedges_;
  const double m = static_cast<double>(res.edge_count);
  const double s = static_cast<double>(res.edge_sample_size);
  res.k_squared = (s >= 2.0 && m > s) ? m * (m - 1.0) / (s * (s - 1.0)) : 1.0;
  res.estimate = res.k_squared * static_cast<double>(detections_);
  return res;
}

}  // namespace core
}  // namespace cyclestream
