#include "core/random_order_triangle.h"

#include <algorithm>
#include <span>

#include "snapshot/codec.h"
#include "util/check.h"

namespace cyclestream {
namespace core {

RandomOrderTriangleCounter::RandomOrderTriangleCounter(
    const RandomOrderTriangleOptions& options)
    : options_(options),
      prefix_edges_(decltype(prefix_edges_)::allocator_type(&space_domain_)),
      prefix_set_(decltype(prefix_set_)::allocator_type(&space_domain_)),
      prefix_adjacency_(&space_domain_) {
  CYCLESTREAM_CHECK_GE(options.prefix_size, 1u);
}

void RandomOrderTriangleCounter::BeginPass(int pass) {
  CYCLESTREAM_CHECK_EQ(pass, 0);
}

void RandomOrderTriangleCounter::IndexPrefixEdge(EdgeKey key) {
  prefix_set_.insert(key);
  prefix_adjacency_.Add(EdgeKeyLo(key), EdgeKeyHi(key));
  prefix_adjacency_.Add(EdgeKeyHi(key), EdgeKeyLo(key));
}

std::uint64_t RandomOrderTriangleCounter::CountCommonPrefixNeighbors(
    VertexId u, VertexId v) const {
  std::span<const VertexId> scan = prefix_adjacency_.Find(u);
  std::span<const VertexId> at_v = prefix_adjacency_.Find(v);
  if (scan.empty() || at_v.empty()) return 0;
  // Scan the sparser endpoint, probe the other via the prefix set.
  VertexId other = v;
  if (at_v.size() < scan.size()) {
    scan = at_v;
    other = u;
  }
  std::uint64_t common = 0;
  for (VertexId w : scan) {
    if (w == other) continue;  // the closing edge itself is not a wedge apex
    if (prefix_set_.count(MakeEdgeKey(w, other)) != 0) ++common;
  }
  return common;
}

void RandomOrderTriangleCounter::HandlePair(VertexId u, VertexId v) {
  ++edge_events_;
  if (prefix_edges_.size() < options_.prefix_size) {
    EdgeKey key = MakeEdgeKey(u, v);
    prefix_edges_.push_back(key);
    IndexPrefixEdge(key);
    return;
  }
  detections_ += CountCommonPrefixNeighbors(u, v);
}

std::size_t RandomOrderTriangleCounter::CurrentSpaceBytes() const {
  constexpr std::size_t kSetEntryOverhead = 16;
  return prefix_edges_.capacity() * sizeof(EdgeKey) +
         prefix_set_.size() * kSetEntryOverhead +
         prefix_adjacency_.MemoryBytes();
}

void RandomOrderTriangleCounter::Fields(auto& self, auto& ar) {
  ar.Option(self.options_.prefix_size, "prefix_size");
  ar.Option(self.options_.seed, "seed");
  ar.U64(self.edge_events_);
  ar.U64(self.detections_);
  // Arrival order only: the set and adjacency index are replay-derived, and
  // because both the original and the replay insert the same sequence into
  // empty containers, capacities and bucket counts agree bit for bit.
  ar.Vec(self.prefix_edges_);
  if constexpr (ar.kLoading) {
    if (ar.ok()) {
      for (EdgeKey key : self.prefix_edges_) self.IndexPrefixEdge(key);
    }
  }
}

void RandomOrderTriangleCounter::Serialize(snapshot::SnapshotWriter& w) const {
  snapshot::Saver ar(w);
  Fields(*this, ar);
}

Status RandomOrderTriangleCounter::Restore(snapshot::SnapshotReader& r) {
  snapshot::Loader ar(r);
  Fields(*this, ar);
  return ar.status();
}

RandomOrderTriangleResult RandomOrderTriangleCounter::result() const {
  RandomOrderTriangleResult res;
  res.edge_count = edge_events_;
  res.detections = detections_;
  res.prefix_edges = prefix_edges_.size();

  const double m = static_cast<double>(edge_events_);
  const double s = static_cast<double>(prefix_edges_.size());
  if (edge_events_ <= options_.prefix_size) {
    // Whole stream fit in the prefix: the stored graph is the input graph,
    // so count its triangles exactly (each is found once per edge → /3).
    std::uint64_t closures = 0;
    for (EdgeKey key : prefix_edges_) {
      closures += CountCommonPrefixNeighbors(EdgeKeyLo(key), EdgeKeyHi(key));
    }
    res.detections = closures / 3;
    res.estimate = static_cast<double>(res.detections);
    return res;
  }
  if (prefix_edges_.size() < 2) return res;  // no wedge fits: estimate 0
  res.scale = m * (m - 1.0) * (m - 2.0) / (3.0 * s * (s - 1.0) * (m - s));
  res.estimate = res.scale * static_cast<double>(detections_);
  return res;
}

}  // namespace core
}  // namespace cyclestream
