#include "core/one_pass_triangle.h"

#include "snapshot/codec.h"
#include "util/check.h"
#include "util/hashing.h"

namespace cyclestream {
namespace core {

OnePassTriangleCounter::OnePassTriangleCounter(
    const OnePassTriangleOptions& options)
    : options_(options),
      edges_(options.sample_size, Mix64(options.seed) ^ 0x3333333333333333ULL,
             &space_domain_) {}

void OnePassTriangleCounter::BeginPass(int pass) {
  CYCLESTREAM_CHECK_EQ(pass, 0);
}

void OnePassTriangleCounter::HandlePair(VertexId u, VertexId v) {
  ++pair_events_;
  EdgeKey key = MakeEdgeKey(u, v);
  auto result = edges_.Offer(key, EdgeState{},
                             [this](EdgeKey, EdgeState&& evicted) {
                               detections_ -= evicted.detections;
                             });
  if (result == sampling::OfferResult::kAlreadyPresent) {
    // Second copy of a sampled edge: from the next list onward, completions
    // close a triangle whose earliest edge is this one.
    edges_.Find(key)->seen_twice = true;
  }

  // Mark v on the sampled edges it ends. Completing an edge seen twice
  // detects a triangle; seen_twice changes only in its ends' lists.
  edges_.MarkEnds(v, [this](EdgeKey, EdgeState& st) {
    if (st.seen_twice) {
      ++st.detections;
      ++detections_;
    }
  });
}

void OnePassTriangleCounter::EndList(VertexId /*u*/) {
  edges_.EndList();
  finished_ = true;  // result is defined whenever the stream has ended
}

void OnePassTriangleCounter::Fields(auto& self, auto& ar) {
  ar.Option(self.options_.sample_size, "sample_size");
  ar.Option(self.options_.seed, "seed");
  ar.U64(self.pair_events_);
  ar.U64(self.detections_);
  ar.Bool(self.finished_);
  SampledEdges<EdgeState>::Fields(self.edges_, ar, [](auto& ar, auto& state) {
    ar.Bool(state.seen_twice);
    ar.U64(state.detections);
  });
  ar.Dropped(5);  // the touched-edge list's capacity
}

void OnePassTriangleCounter::Serialize(snapshot::SnapshotWriter& w) const {
  snapshot::Saver ar(w);
  Fields(*this, ar);
}

Status OnePassTriangleCounter::Restore(snapshot::SnapshotReader& r) {
  snapshot::Loader ar(r);
  Fields(*this, ar);
  return ar.status();
}

std::size_t OnePassTriangleCounter::CurrentSpaceBytes() const {
  return edges_.MemoryBytes();
}

OnePassTriangleResult OnePassTriangleCounter::result() const {
  OnePassTriangleResult res;
  res.edge_count = pair_events_ / 2;
  res.detections = detections_;
  res.edge_sample_size = edges_.size();
  res.k = res.edge_sample_size == 0
              ? 1.0
              : static_cast<double>(res.edge_count) /
                    static_cast<double>(res.edge_sample_size);
  res.estimate = res.k * static_cast<double>(detections_);
  return res;
}

}  // namespace core
}  // namespace cyclestream
