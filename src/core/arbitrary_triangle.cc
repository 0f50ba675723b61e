#include "core/arbitrary_triangle.h"

#include <algorithm>
#include <span>
#include <utility>

#include "util/check.h"
#include "util/hashing.h"

namespace cyclestream {
namespace core {

ArbitraryOrderTriangleCounter::ArbitraryOrderTriangleCounter(
    const ArbitraryTriangleOptions& options)
    : options_(options),
      edge_sample_(std::max<std::size_t>(options.sample_size, 1),
                   Mix64(options.seed) ^ 0x8888888888888888ULL,
                   &space_domain_),
      edges_by_vertex_(&space_domain_) {
  CYCLESTREAM_CHECK_GE(options.sample_size, 1u);
}

void ArbitraryOrderTriangleCounter::OnEdgeEvicted(EdgeKey key,
                                                  EdgeState&& state) {
  // Detections through wedges containing this edge are no longer backed by
  // the sample; roll them back (the partner edge keeps no record, so each
  // detection is subtracted exactly once — whichever wedge edge dies first
  // takes it with it).
  detections_ -= state.detections;
  edges_by_vertex_.Remove(state.lo, key);
  edges_by_vertex_.Remove(state.hi, key);
}

void ArbitraryOrderTriangleCounter::HandlePair(VertexId u, VertexId v) {
  ++edge_events_;
  EdgeKey closing = MakeEdgeKey(u, v);

  // Detect wedges u-x-v with both edges sampled: iterate the sparser
  // endpoint's sampled incident edges and probe for the partner.
  VertexId a = u, b = v;
  std::span<const EdgeKey> at_a = edges_by_vertex_.Find(a);
  std::span<const EdgeKey> at_b = edges_by_vertex_.Find(b);
  if (at_b.size() < at_a.size()) {
    std::swap(a, b);
    std::swap(at_a, at_b);
  }
  for (EdgeKey first : at_a) {
    if (first == closing) continue;
    VertexId x = OtherEndpoint(first, a);
    if (x == b) continue;
    EdgeKey second = MakeEdgeKey(x, b);
    EdgeState* st2 = edge_sample_.Find(second);
    if (st2 == nullptr) continue;
    // Wedge a-x-b fully sampled; {u, v} closes the triangle. Attribute the
    // detection to exactly one wedge edge (the one with the larger priority
    // — the first to be evicted if either ever is), so rollback happens
    // exactly once.
    ++detections_;
    if (edge_sample_.PriorityOf(first) > edge_sample_.PriorityOf(second)) {
      edge_sample_.Find(first)->detections += 1;
    } else {
      st2->detections += 1;
    }
  }

  // Offer the closing edge to the sample.
  EdgeState state;
  state.lo = EdgeKeyLo(closing);
  state.hi = EdgeKeyHi(closing);
  auto result = edge_sample_.Offer(
      closing, std::move(state),
      [this](EdgeKey k, EdgeState&& evicted) { OnEdgeEvicted(k, std::move(evicted)); });
  if (result == sampling::OfferResult::kInserted) {
    edges_by_vertex_.Add(EdgeKeyLo(closing), closing);
    edges_by_vertex_.Add(EdgeKeyHi(closing), closing);
  }
}

std::size_t ArbitraryOrderTriangleCounter::CurrentSpaceBytes() const {
  return edge_sample_.MemoryBytes() + edges_by_vertex_.MemoryBytes();
}

ArbitraryTriangleResult ArbitraryOrderTriangleCounter::result() const {
  ArbitraryTriangleResult res;
  res.edge_count = edge_events_;
  res.detections = detections_;
  res.edge_sample_size = edge_sample_.size();
  const double m = static_cast<double>(res.edge_count);
  const double s = static_cast<double>(res.edge_sample_size);
  res.k_squared = (s >= 2.0 && m > s) ? m * (m - 1.0) / (s * (s - 1.0)) : 1.0;
  res.estimate = res.k_squared * static_cast<double>(detections_);
  return res;
}

}  // namespace core
}  // namespace cyclestream
