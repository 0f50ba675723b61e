#include "core/triangle_distinguisher.h"

#include <algorithm>

#include "snapshot/codec.h"
#include "util/check.h"
#include "util/hashing.h"

namespace cyclestream {
namespace core {

TriangleDistinguisher::TriangleDistinguisher(
    const TriangleDistinguisherOptions& options)
    : options_(options),
      edge_sample_(std::max<std::size_t>(options.sample_size, 1),
                   Mix64(options.seed) ^ 0x4444444444444444ULL,
                   &space_domain_),
      edge_watchers_(&space_domain_) {
  CYCLESTREAM_CHECK_GE(options.sample_size, 1u);
}

void TriangleDistinguisher::BeginPass(int pass) { pass_ = pass; }

void TriangleDistinguisher::HandlePair(VertexId u, VertexId v) {
  if (pass_ == 0) {
    ++pair_events_;
    EdgeKey key = MakeEdgeKey(u, v);
    EdgeState state{EdgeKeyLo(key), EdgeKeyHi(key)};
    auto result = edge_sample_.Offer(
        key, std::move(state), [this](EdgeKey k, EdgeState&& evicted) {
          edge_watchers_.Remove(evicted.lo, k);
          edge_watchers_.Remove(evicted.hi, k);
        });
    if (result == sampling::OfferResult::kInserted) {
      edge_watchers_.Add(EdgeKeyLo(key), key);
      edge_watchers_.Add(EdgeKeyHi(key), key);
    }
    return;  // counting happens only in the second pass
  }

  // The sample is frozen: each completed sampled edge is one incidence.
  for (EdgeKey key : edge_watchers_.Find(v)) {
    EdgeState* st = edge_sample_.Find(key);
    if (st == nullptr) continue;
    if (marks_.Mark(st->ends, st->lo == v ? 0 : 1)) ++incidences_;
  }
}

void TriangleDistinguisher::EndList(VertexId /*u*/) {
  if (pass_ == 1 && marks_.EndList()) {
    edge_sample_.ForEach([](EdgeKey, EdgeState& st) { st.ends = 0; });
  }
}

std::size_t TriangleDistinguisher::CurrentSpaceBytes() const {
  return edge_sample_.MemoryBytes() + edge_watchers_.MemoryBytes();
}

void TriangleDistinguisher::Fields(auto& self, auto& ar) {
  ar.Option(self.options_.sample_size, "sample_size");
  ar.Option(self.options_.seed, "seed");
  ar.Pass(self.pass_, self.passes());
  ar.U64(self.pair_events_);
  ar.U64(self.incidences_);
  sampling::BottomKSampler<EdgeState>::Fields(
      self.edge_sample_, ar,
      [](auto key) { return EdgeState{EdgeKeyLo(key), EdgeKeyHi(key)}; },
      [](auto& /*ar*/, auto& /*state*/) {});  // lo/hi derive from the key
  WatchIndex<VertexId, EdgeKey>::Fields(self.edge_watchers_, ar);
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
  res.edge_sample_size = edge_sample_.size();
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
