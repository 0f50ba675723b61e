#include "core/wedge_sampling_triangle.h"

#include <algorithm>

#include "snapshot/codec.h"
#include "util/check.h"

namespace cyclestream {
namespace core {

WedgeSamplingTriangleCounter::WedgeSamplingTriangleCounter(
    const WedgeSamplingOptions& options)
    : options_(options),
      rng_(Mix64(options.seed) ^ 0x9999999999999999ULL),
      reservoir_(decltype(reservoir_)::allocator_type(&space_domain_)),
      closure_watch_(decltype(closure_watch_)::allocator_type(&space_domain_)),
      current_list_(decltype(current_list_)::allocator_type(&space_domain_)) {
  CYCLESTREAM_CHECK_GE(options.reservoir_size, 1u);
  reservoir_.reserve(options.reservoir_size);
}

obs::AccountedVector<std::uint32_t>& WedgeSamplingTriangleCounter::WatchersFor(
    EdgeKey key) {
  return closure_watch_
      .try_emplace(key, obs::AccountedAllocator<std::uint32_t>(&space_domain_))
      .first->second;
}

void WedgeSamplingTriangleCounter::WatchSlot(std::uint32_t slot) {
  WatchersFor(WedgeEndpointsKey(reservoir_[slot].wedge)).push_back(slot);
}

void WedgeSamplingTriangleCounter::UnwatchSlot(std::uint32_t slot) {
  auto it = closure_watch_.find(WedgeEndpointsKey(reservoir_[slot].wedge));
  if (it == closure_watch_.end()) return;
  auto& vec = it->second;
  for (std::size_t i = 0; i < vec.size(); ++i) {
    if (vec[i] == slot) {
      vec[i] = vec.back();
      vec.pop_back();
      break;
    }
  }
  if (vec.empty()) closure_watch_.erase(it);
}

void WedgeSamplingTriangleCounter::OfferWedge(const Wedge& w) {
  ++wedge_count_;
  if (reservoir_.size() < options_.reservoir_size) {
    reservoir_.push_back(Slot{w, false});
    WatchSlot(static_cast<std::uint32_t>(reservoir_.size() - 1));
    return;
  }
  std::uint64_t j = rng_.NextBounded(wedge_count_);
  if (j < options_.reservoir_size) {
    std::uint32_t slot = static_cast<std::uint32_t>(j);
    UnwatchSlot(slot);
    reservoir_[slot] = Slot{w, false};
    WatchSlot(slot);
  }
}

void WedgeSamplingTriangleCounter::BeginList(VertexId u) {
  current_center_ = u;
  current_list_.clear();
}

void WedgeSamplingTriangleCounter::HandlePair(VertexId u, VertexId v) {
  // Closure check first: the arriving pair {u, v} closes watched wedges
  // with endpoint set {u, v}. (A wedge sampled in this same list has its
  // closing edge at the endpoints' own later lists, never here, since
  // endpoints differ from the center.)
  auto it = closure_watch_.find(MakeEdgeKey(u, v));
  if (it != closure_watch_.end()) {
    for (std::uint32_t slot : it->second) reservoir_[slot].closed = true;
  }

  // New wedges between v and every earlier entry of the current list.
  for (VertexId prev : current_list_) {
    OfferWedge(MakeWedge(current_center_, prev, v));
  }
  current_list_.push_back(v);
}

void WedgeSamplingTriangleCounter::Fields(auto& self, auto& ar) {
  ar.Option(self.options_.reservoir_size, "reservoir_size");
  ar.Option(self.options_.seed, "seed");
  ar.Rng(self.rng_);
  ar.U64(self.wedge_count_);
  ar.Vec(self.reservoir_, [](auto& ar, auto& slot) {
    ar.U32(slot.wedge.center);
    ar.U32(slot.wedge.end_lo);
    ar.U32(slot.wedge.end_hi);
    ar.Bool(slot.closed);
  });
  ar.Buckets(self.closure_watch_);
  // Slot content order matters (swap-remove on resample), so verbatim.
  ar.Map(
      self.closure_watch_,
      [&](auto key) -> auto& { return self.WatchersFor(key); },
      [](auto& ar, auto& slots) { ar.Vec(slots); });
  // current_list_'s contents are never read after a list boundary (BeginList
  // clears before any use); only its capacity is space-visible state.
  // current_center_ likewise is overwritten by the next BeginList.
  ar.Capacity(self.current_list_);
}

void WedgeSamplingTriangleCounter::Serialize(snapshot::SnapshotWriter& w) const {
  snapshot::Saver ar(w);
  Fields(*this, ar);
}

Status WedgeSamplingTriangleCounter::Restore(snapshot::SnapshotReader& r) {
  snapshot::Loader ar(r);
  Fields(*this, ar);
  return ar.status();
}

std::size_t WedgeSamplingTriangleCounter::CurrentSpaceBytes() const {
  constexpr std::size_t kMapEntryOverhead = 48;
  return reservoir_.capacity() * sizeof(Slot) +
         closure_watch_.size() * kMapEntryOverhead +
         reservoir_.size() * sizeof(std::uint32_t) +
         current_list_.capacity() * sizeof(VertexId);
}

WedgeSamplingResult WedgeSamplingTriangleCounter::result() const {
  WedgeSamplingResult res;
  res.wedge_count = wedge_count_;
  res.sampled = reservoir_.size();
  for (const Slot& slot : reservoir_) res.closed += slot.closed;
  if (res.sampled > 0) {
    double closed_frac =
        static_cast<double>(res.closed) / static_cast<double>(res.sampled);
    res.estimate = closed_frac * static_cast<double>(wedge_count_) / 2.0;
    res.transitivity_estimate = 1.5 * closed_frac;
  }
  return res;
}

}  // namespace core
}  // namespace cyclestream
