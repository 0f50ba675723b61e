#include "core/triangle_distinguisher.h"

#include "snapshot/codec.h"
#include "util/hashing.h"

namespace cyclestream {
namespace core {

TriangleDistinguisher::TriangleDistinguisher(
    const TriangleDistinguisherOptions& options)
    : options_(options),
      edges_(options.sample_size, Mix64(options.seed) ^ 0x4444444444444444ULL,
             &space_domain_) {}

void TriangleDistinguisher::BeginPass(int pass) { pass_ = pass; }

void TriangleDistinguisher::HandlePair(VertexId u, VertexId v) {
  if (pass_ == 0) {
    ++pair_events_;
    edges_.Offer(MakeEdgeKey(u, v), EdgeState{}, [](EdgeKey, EdgeState&&) {});
    return;  // counting happens only in the second pass
  }

  // The sample is frozen: each completed sampled edge is one incidence.
  edges_.MarkEnds(v, [this](EdgeKey, EdgeState&) { ++incidences_; });
}

void TriangleDistinguisher::EndList(VertexId /*u*/) {
  if (pass_ == 1) edges_.EndList();
}

std::size_t TriangleDistinguisher::CurrentSpaceBytes() const {
  return edges_.MemoryBytes();
}

void TriangleDistinguisher::Fields(auto& self, auto& ar) {
  ar.Option(self.options_.sample_size, "sample_size");
  ar.Option(self.options_.seed, "seed");
  ar.Pass(self.pass_, self.passes());
  ar.U64(self.pair_events_);
  ar.U64(self.incidences_);
  SampledEdges<EdgeState>::Fields(self.edges_, ar,
                                  [](auto& /*ar*/, auto& /*state*/) {});
  ar.Dropped(5);  // the touched-edge list's capacity
}

void TriangleDistinguisher::Serialize(snapshot::SnapshotWriter& w) const {
  snapshot::Saver ar(w);
  Fields(*this, ar);
}

Status TriangleDistinguisher::Restore(snapshot::SnapshotReader& r) {
  snapshot::Loader ar(r);
  Fields(*this, ar);
  return ar.status();
}

TriangleDistinguisherResult TriangleDistinguisher::result() const {
  TriangleDistinguisherResult res;
  res.edge_count = pair_events_ / 2;
  res.incidences = incidences_;
  res.edge_sample_size = edges_.size();
  res.found_triangle = incidences_ > 0;
  double k = res.edge_sample_size == 0
                 ? 1.0
                 : static_cast<double>(res.edge_count) /
                       static_cast<double>(res.edge_sample_size);
  res.naive_estimate = k * static_cast<double>(incidences_) / 3.0;
  return res;
}

}  // namespace core
}  // namespace cyclestream
