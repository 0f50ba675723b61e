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
      closure_watch_(&space_domain_),
      current_list_(decltype(current_list_)::allocator_type(&space_domain_)) {
  CYCLESTREAM_CHECK_GE(options.reservoir_size, 1u);
  reservoir_.reserve(options.reservoir_size);
}

void WedgeSamplingTriangleCounter::OfferWedge(const Wedge& w) {
  ++wedge_count_;
  if (reservoir_.size() < options_.reservoir_size) {
    reservoir_.push_back(Slot{w, false});
    closure_watch_.Add(WedgeEndpointsKey(w),
                       static_cast<std::uint32_t>(reservoir_.size() - 1));
    return;
  }
  std::uint64_t j = rng_.NextBounded(wedge_count_);
  if (j < options_.reservoir_size) {
    std::uint32_t slot = static_cast<std::uint32_t>(j);
    closure_watch_.Remove(WedgeEndpointsKey(reservoir_[slot].wedge), slot);
    reservoir_[slot] = Slot{w, false};
    closure_watch_.Add(WedgeEndpointsKey(w), slot);
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
  for (std::uint32_t slot : closure_watch_.Find(MakeEdgeKey(u, v))) {
    reservoir_[slot].closed = true;
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
  WatchIndex<EdgeKey, std::uint32_t>::Fields(self.closure_watch_, ar);
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
