#include "core/arbitrary_triangle.h"

#include <utility>

#include "util/hashing.h"

namespace cyclestream {
namespace core {

ArbitraryOrderTriangleCounter::ArbitraryOrderTriangleCounter(
    const ArbitraryTriangleOptions& options)
    : options_(options),
      edges_(options.sample_size, Mix64(options.seed) ^ 0x8888888888888888ULL,
             &space_domain_) {}

void ArbitraryOrderTriangleCounter::HandlePair(VertexId u, VertexId v) {
  ++edge_events_;
  EdgeKey closing = MakeEdgeKey(u, v);

  // Detect wedges u-x-v with both edges sampled: iterate the sparser
  // endpoint's sampled incident edges and probe for the partner.
  VertexId a = u, b = v;
  if (edges_.CountAt(b) < edges_.CountAt(a)) std::swap(a, b);
  edges_.ForEachAt(a, [&](EdgeKey first, EdgeState& first_state) {
    if (first == closing) return;
    VertexId x = OtherEndpoint(first, a);
    if (x == b) return;
    EdgeKey second = MakeEdgeKey(x, b);
    EdgeState* second_state = edges_.Find(second);
    if (second_state == nullptr) return;
    // Wedge a-x-b fully sampled; {u, v} closes the triangle. Attribute the
    // detection to exactly one wedge edge (the one with the larger priority
    // — the first to be evicted if either ever is), so rollback happens
    // exactly once.
    ++detections_;
    if (edges_.PriorityOf(first) > edges_.PriorityOf(second)) {
      first_state.detections += 1;
    } else {
      second_state->detections += 1;
    }
  });

  // Offer the closing edge to the sample. Detections through wedges
  // containing an evicted edge are no longer backed by the sample; roll
  // them back (the partner edge keeps no record, so each detection is
  // subtracted exactly once — whichever wedge edge dies first takes it
  // with it).
  edges_.Offer(closing, EdgeState{}, [this](EdgeKey, EdgeState&& evicted) {
    detections_ -= evicted.detections;
  });
}

std::size_t ArbitraryOrderTriangleCounter::CurrentSpaceBytes() const {
  return edges_.MemoryBytes();
}

ArbitraryTriangleResult ArbitraryOrderTriangleCounter::result() const {
  ArbitraryTriangleResult res;
  res.edge_count = edge_events_;
  res.detections = detections_;
  res.edge_sample_size = edges_.size();
  const double m = static_cast<double>(res.edge_count);
  const double s = static_cast<double>(res.edge_sample_size);
  res.k_squared = (s >= 2.0 && m > s) ? m * (m - 1.0) / (s * (s - 1.0)) : 1.0;
  res.estimate = res.k_squared * static_cast<double>(detections_);
  return res;
}

}  // namespace core
}  // namespace cyclestream
