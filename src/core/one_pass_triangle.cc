#include "core/one_pass_triangle.h"

#include <algorithm>

#include "snapshot/codec.h"
#include "util/check.h"
#include "util/hashing.h"

namespace cyclestream {
namespace core {

OnePassTriangleCounter::OnePassTriangleCounter(
    const OnePassTriangleOptions& options)
    : options_(options),
      edge_sample_(std::max<std::size_t>(options.sample_size, 1),
                   Mix64(options.seed) ^ 0x3333333333333333ULL,
                   &space_domain_),
      edge_watchers_(&space_domain_) {
  CYCLESTREAM_CHECK_GE(options.sample_size, 1u);
}

void OnePassTriangleCounter::OnEdgeEvicted(EdgeKey key, EdgeState&& state) {
  detections_ -= state.detections;
  edge_watchers_.Remove(state.lo, key);
  edge_watchers_.Remove(state.hi, key);
}

void OnePassTriangleCounter::BeginPass(int pass) {
  CYCLESTREAM_CHECK_EQ(pass, 0);
}

void OnePassTriangleCounter::HandlePair(VertexId u, VertexId v) {
  ++pair_events_;
  EdgeKey key = MakeEdgeKey(u, v);
  EdgeState state;
  state.lo = EdgeKeyLo(key);
  state.hi = EdgeKeyHi(key);
  auto result = edge_sample_.Offer(
      key, std::move(state),
      [this](EdgeKey k, EdgeState&& evicted) { OnEdgeEvicted(k, std::move(evicted)); });
  if (result == sampling::OfferResult::kInserted) {
    edge_watchers_.Add(EdgeKeyLo(key), key);
    edge_watchers_.Add(EdgeKeyHi(key), key);
  } else if (result == sampling::OfferResult::kAlreadyPresent) {
    // Second copy of a sampled edge: from the next list onward, completions
    // close a triangle whose earliest edge is this one.
    EdgeState* st = edge_sample_.Find(key);
    st->seen_twice = true;
  }

  // Mark v on the sampled edges it ends. Completing an edge seen twice
  // detects a triangle; seen_twice changes only in its ends' lists.
  for (EdgeKey wkey : edge_watchers_.Find(v)) {
    EdgeState* st = edge_sample_.Find(wkey);
    if (st == nullptr) continue;
    if (marks_.Mark(st->ends, st->lo == v ? 0 : 1) && st->seen_twice) {
      ++st->detections;
      ++detections_;
    }
  }
}

void OnePassTriangleCounter::EndList(VertexId /*u*/) {
  if (marks_.EndList()) {
    edge_sample_.ForEach([](EdgeKey, EdgeState& st) { st.ends = 0; });
  }
  finished_ = true;  // result is defined whenever the stream has ended
}

void OnePassTriangleCounter::Fields(auto& self, auto& ar) {
  ar.Option(self.options_.sample_size, "sample_size");
  ar.Option(self.options_.seed, "seed");
  ar.U64(self.pair_events_);
  ar.U64(self.detections_);
  ar.Bool(self.finished_);
  sampling::BottomKSampler<EdgeState>::Fields(
      self.edge_sample_, ar,
      [](auto key) { return EdgeState{EdgeKeyLo(key), EdgeKeyHi(key)}; },
      [](auto& ar, auto& state) {
        // lo/hi are derived from the key on restore.
        ar.Bool(state.seen_twice);
        ar.U64(state.detections);
      });
  WatchIndex<VertexId, EdgeKey>::Fields(self.edge_watchers_, ar);
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
  return edge_sample_.MemoryBytes() + edge_watchers_.MemoryBytes();
}

OnePassTriangleResult OnePassTriangleCounter::result() const {
  OnePassTriangleResult res;
  res.edge_count = pair_events_ / 2;
  res.detections = detections_;
  res.edge_sample_size = edge_sample_.size();
  res.k = res.edge_sample_size == 0
              ? 1.0
              : static_cast<double>(res.edge_count) /
                    static_cast<double>(res.edge_sample_size);
  res.estimate = res.k * static_cast<double>(detections_);
  return res;
}

}  // namespace core
}  // namespace cyclestream
