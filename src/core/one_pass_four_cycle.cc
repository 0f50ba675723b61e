#include "core/one_pass_four_cycle.h"

#include <algorithm>

#include "snapshot/codec.h"
#include "util/check.h"
#include "util/hashing.h"

namespace cyclestream {
namespace core {

OnePassFourCycleCounter::OnePassFourCycleCounter(
    const OnePassFourCycleOptions& options)
    : options_(options),
      edge_sample_(std::max<std::size_t>(options.sample_size, 1),
                   Mix64(options.seed) ^ 0x6666666666666666ULL,
                   &space_domain_),
      edges_by_vertex_(&space_domain_),
      wedges_(decltype(wedges_)::allocator_type(&space_domain_)),
      free_wedges_(decltype(free_wedges_)::allocator_type(&space_domain_)),
      wedge_watchers_(&space_domain_) {
  CYCLESTREAM_CHECK_GE(options.sample_size, 1u);
}

void OnePassFourCycleCounter::AddWedgesForNewEdge(EdgeKey key, VertexId lo,
                                                  VertexId hi) {
  // Pair the new edge with every sampled edge sharing an endpoint.
  for (VertexId center : {lo, hi}) {
    VertexId new_end = OtherEndpoint(key, center);
    for (EdgeKey other : edges_by_vertex_.Find(center)) {
      if (other == key) continue;
      VertexId other_end = OtherEndpoint(other, center);
      if (other_end == new_end) continue;
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
      edge_sample_.Find(key)->wedges.push_back(idx);
      edge_sample_.Find(other)->wedges.push_back(idx);
    }
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
    EdgeState* st = edge_sample_.Find(ekey);
    if (st != nullptr) SwapRemove(st->wedges, idx);
  }
  w.live = false;
  --live_wedges_;
  free_wedges_.push_back(idx);
}

void OnePassFourCycleCounter::OnEdgeEvicted(EdgeKey key, EdgeState&& state) {
  obs::AccountedVector<std::uint32_t> wedges = std::move(state.wedges);
  for (std::uint32_t idx : wedges) RemoveWedge(idx);
  edges_by_vertex_.Remove(state.lo, key);
  edges_by_vertex_.Remove(state.hi, key);
}

void OnePassFourCycleCounter::HandlePair(VertexId u, VertexId v) {
  ++pair_events_;
  EdgeKey key = MakeEdgeKey(u, v);
  EdgeState state{obs::AccountedAllocator<std::uint32_t>(&space_domain_)};
  state.lo = EdgeKeyLo(key);
  state.hi = EdgeKeyHi(key);
  auto result = edge_sample_.Offer(
      key, std::move(state),
      [this](EdgeKey k, EdgeState&& evicted) { OnEdgeEvicted(k, std::move(evicted)); });
  if (result == sampling::OfferResult::kInserted) {
    edges_by_vertex_.Add(EdgeKeyLo(key), key);
    edges_by_vertex_.Add(EdgeKeyHi(key), key);
    AddWedgesForNewEdge(key, EdgeKeyLo(key), EdgeKeyHi(key));
  } else if (result == sampling::OfferResult::kAlreadyPresent) {
    edge_sample_.Find(key)->seen_twice = true;
  }

  // Mark v on the wedges it ends. A wedge completed outside its centre's
  // list closes a 4-cycle once both its edges were seen twice, which can
  // change only in the lists of its centre and ends.
  for (std::uint32_t idx : wedge_watchers_.Find(v)) {
    WedgeState& w = wedges_[idx];
    if (!marks_.Mark(w.ends, w.wedge.end_lo == v ? 0 : 1)) continue;
    if (u == w.wedge.center) continue;
    const EdgeState* a = edge_sample_.Find(w.edge_a);
    const EdgeState* b = edge_sample_.Find(w.edge_b);
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
  sampling::BottomKSampler<EdgeState>::Fields(
      self.edge_sample_, ar,
      [&](auto key) {
        EdgeState state{
            obs::AccountedAllocator<std::uint32_t>(&self.space_domain_)};
        state.lo = EdgeKeyLo(key);
        state.hi = EdgeKeyHi(key);
        return state;
      },
      [](auto& ar, auto& state) {
        ar.Bool(state.seen_twice);
        ar.Vec(state.wedges);
      });
  WatchIndex<VertexId, EdgeKey>::Fields(self.edges_by_vertex_, ar);
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
  return edge_sample_.MemoryBytes() +
         wedges_.capacity() * sizeof(WedgeState) +
         wedge_watchers_.MemoryBytes() + edges_by_vertex_.MemoryBytes() +
         free_wedges_.capacity() * sizeof(std::uint32_t);
}

OnePassFourCycleResult OnePassFourCycleCounter::result() const {
  OnePassFourCycleResult res;
  res.edge_count = pair_events_ / 2;
  res.detections = detections_;
  res.edge_sample_size = edge_sample_.size();
  res.wedge_count = live_wedges_;
  const double m = static_cast<double>(res.edge_count);
  const double s = static_cast<double>(res.edge_sample_size);
  res.k_squared = (s >= 2.0 && m > s) ? m * (m - 1.0) / (s * (s - 1.0)) : 1.0;
  res.estimate = res.k_squared * static_cast<double>(detections_);
  return res;
}

}  // namespace core
}  // namespace cyclestream
