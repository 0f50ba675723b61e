#include "core/one_pass_four_cycle.h"

#include <algorithm>
#include <limits>

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

void OnePassFourCycleCounter::AddWedgesForNewEdge(std::uint32_t slot) {
  // Pair the new edge with every sampled edge sharing an endpoint.
  EdgeState& added = edges_.At(slot);
  for (VertexId center : {added.lo, added.hi}) {
    const VertexId new_end = center == added.lo ? added.hi : added.lo;
    edges_.ForEachAt(center, [&](std::uint32_t other_slot, EdgeKey other,
                                 EdgeState& other_state) {
      if (other_slot == slot) return;
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
      const int new_side = w.wedge.end_lo == new_end ? 0 : 1;
      w.edge_slot[new_side] = slot;
      w.edge_slot[1 - new_side] = other_slot;
      w.live = true;
      ++live_wedges_;
      w.watch_pos[0] = wedge_watchers_.Add(w.wedge.end_lo, idx);
      w.watch_pos[1] = wedge_watchers_.Add(w.wedge.end_hi, idx);
      w.edge_pos[new_side] = static_cast<std::uint32_t>(added.wedges.size());
      added.wedges.push_back(idx);
      w.edge_pos[1 - new_side] =
          static_cast<std::uint32_t>(other_state.wedges.size());
      other_state.wedges.push_back(idx);
    });
  }
}

void OnePassFourCycleCounter::RemoveWedge(std::uint32_t idx,
                                          EdgeKey evicted) {
  WedgeState& w = wedges_[idx];
  if (!w.live) return;
  detections_ -= w.detections;
  for (int side = 0; side < 2; ++side) {
    const VertexId end = side == 0 ? w.wedge.end_lo : w.wedge.end_hi;
    wedge_watchers_.RemoveAt(end, w.watch_pos[side], [&](std::uint32_t moved) {
      WedgeState& m = wedges_[moved];
      m.watch_pos[m.wedge.end_lo == end ? 0 : 1] = w.watch_pos[side];
    });
    // Detach from the surviving edge's wedge list (the evicted edge's state
    // is being destroyed by the sampler), moving its last wedge into the
    // hole.
    if (MakeEdgeKey(w.wedge.center, end) == evicted) continue;
    const std::uint32_t edge = w.edge_slot[side];
    obs::AccountedVector<std::uint32_t>& list = edges_.At(edge).wedges;
    const std::uint32_t moved = list.back();
    list[w.edge_pos[side]] = moved;
    list.pop_back();
    if (moved != idx) {
      WedgeState& m = wedges_[moved];
      m.edge_pos[m.edge_slot[0] == edge ? 0 : 1] = w.edge_pos[side];
    }
  }
  w.live = false;
  --live_wedges_;
  free_wedges_.push_back(idx);
}

void OnePassFourCycleCounter::HandlePair(VertexId u, VertexId v) {
  ++pair_events_;
  std::uint32_t slot;
  auto result = edges_.Offer(
      MakeEdgeKey(u, v),
      EdgeState{obs::AccountedAllocator<std::uint32_t>(&space_domain_)},
      [this](EdgeKey evicted_key, EdgeState&& evicted) {
        // The evicted edge's wedges leave with it.
        obs::AccountedVector<std::uint32_t> wedges = std::move(evicted.wedges);
        for (std::uint32_t idx : wedges) RemoveWedge(idx, evicted_key);
      },
      &slot);
  if (result == sampling::OfferResult::kInserted) {
    AddWedgesForNewEdge(slot);
  } else if (result == sampling::OfferResult::kAlreadyPresent) {
    edges_.At(slot).seen_twice = true;
  }

  // Mark v on the wedges it ends. A wedge completed outside its centre's
  // list closes a 4-cycle once both its edges were seen twice, which can
  // change only in the lists of its centre and ends. A live wedge's edges
  // are both sampled: an eviction removes the wedges of its edge.
  for (std::uint32_t idx : wedge_watchers_.Find(v)) {
    WedgeState& w = wedges_[idx];
    if (!marks_.Mark(w.ends, w.wedge.end_lo == v ? 0 : 1)) continue;
    if (u == w.wedge.center) continue;
    if (edges_.At(w.edge_slot[0]).seen_twice &&
        edges_.At(w.edge_slot[1]).seen_twice) {
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

void OnePassFourCycleCounter::LocateWedges(auto& ar) {
  // Each live wedge's edges must both be sampled; their slots are found by
  // key.
  constexpr std::uint32_t kUnset = SampledEdges<EdgeState>::kNoSlot;
  bool sampled = true;
  std::size_t live = 0;
  for (WedgeState& w : wedges_) {
    if (!w.live) continue;
    ++live;
    const Wedge& wedge = w.wedge;
    const bool shaped = wedge.end_lo < wedge.end_hi &&
                        wedge.center != wedge.end_lo &&
                        wedge.center != wedge.end_hi;
    for (int side = 0; side < 2; ++side) {
      const VertexId end = side == 0 ? wedge.end_lo : wedge.end_hi;
      w.edge_slot[side] =
          shaped ? edges_.SlotOf(MakeEdgeKey(wedge.center, end)) : kUnset;
      sampled = sampled && w.edge_slot[side] != kUnset;
      w.edge_pos[side] = w.watch_pos[side] = kUnset;
    }
  }
  ar.Require(sampled && live == live_wedges_,
             "live wedge whose edges are not both sampled");
  if (!ar.ok()) return;
  // Each is listed once at each end and once on each edge; its positions
  // are read off those lists.
  bool once = true;
  const auto locate = [&](std::uint32_t& pos, std::uint32_t at) {
    once = once && pos == kUnset;
    pos = at;
  };
  wedge_watchers_.ForEachList(
      [&](VertexId v, std::span<const std::uint32_t> list) {
        for (std::uint32_t at = 0; at < list.size(); ++at) {
          WedgeState& w = wedges_[list[at]];
          if (v != w.wedge.end_lo && v != w.wedge.end_hi) once = false;
          locate(w.watch_pos[v == w.wedge.end_lo ? 0 : 1], at);
        }
      });
  edges_.ForEach([&](EdgeKey key, const EdgeState& state) {
    const std::uint32_t slot = edges_.SlotOf(key);
    for (std::uint32_t at = 0; at < state.wedges.size(); ++at) {
      WedgeState& w = wedges_[state.wedges[at]];
      if (slot != w.edge_slot[0] && slot != w.edge_slot[1]) once = false;
      locate(w.edge_pos[slot == w.edge_slot[0] ? 0 : 1], at);
    }
  });
  for (const WedgeState& w : wedges_) {
    if (!w.live) continue;
    for (int side = 0; side < 2; ++side) {
      once = once && w.edge_pos[side] != kUnset && w.watch_pos[side] != kUnset;
    }
  }
  ar.Require(once, "wedge not listed once at each end and on each edge");
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
    std::uint64_t detections = ws.detections;
    ar.U64(detections);
    if constexpr (ar.kLoading) {
      ar.Require(detections <= std::numeric_limits<std::uint32_t>::max(),
                 "wedge detected more often than a stream has lists");
      ws.detections = static_cast<std::uint32_t>(detections);
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
    if (ar.ok()) self.LocateWedges(ar);
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
