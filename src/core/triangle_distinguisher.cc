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
      edge_watchers_(decltype(edge_watchers_)::allocator_type(&space_domain_)),
      touched_edges_(decltype(touched_edges_)::allocator_type(&space_domain_)) {
  CYCLESTREAM_CHECK_GE(options.sample_size, 1u);
}

obs::AccountedVector<EdgeKey>& TriangleDistinguisher::Watchers(VertexId v) {
  return edge_watchers_
      .try_emplace(v, obs::AccountedAllocator<EdgeKey>(&space_domain_))
      .first->second;
}

void TriangleDistinguisher::BeginPass(int pass) { pass_ = pass; }

void TriangleDistinguisher::HandlePair(VertexId u, VertexId v) {
  if (pass_ == 0) {
    ++pair_events_;
    EdgeKey key = MakeEdgeKey(u, v);
    EdgeState state{EdgeKeyLo(key), EdgeKeyHi(key), false, false};
    auto result = edge_sample_.Offer(
        key, std::move(state), [this](EdgeKey k, EdgeState&& evicted) {
          for (VertexId endpoint : {evicted.lo, evicted.hi}) {
            auto it = edge_watchers_.find(endpoint);
            if (it == edge_watchers_.end()) continue;
            auto& vec = it->second;
            for (std::size_t i = 0; i < vec.size(); ++i) {
              if (vec[i] == k) {
                vec[i] = vec.back();
                vec.pop_back();
                break;
              }
            }
            if (vec.empty()) edge_watchers_.erase(it);
          }
        });
    if (result == sampling::OfferResult::kInserted) {
      Watchers(EdgeKeyLo(key)).push_back(key);
      Watchers(EdgeKeyHi(key)).push_back(key);
    }
    return;  // counting happens only in the second pass
  }

  auto wit = edge_watchers_.find(v);
  if (wit != edge_watchers_.end()) {
    for (EdgeKey key : wit->second) {
      EdgeState* st = edge_sample_.Find(key);
      if (st == nullptr) continue;
      if (!st->flag_lo && !st->flag_hi) touched_edges_.push_back(key);
      if (st->lo == v) {
        st->flag_lo = true;
      } else {
        st->flag_hi = true;
      }
    }
  }
}

void TriangleDistinguisher::EndList(VertexId /*u*/) {
  if (pass_ != 1) return;
  for (EdgeKey key : touched_edges_) {
    EdgeState* st = edge_sample_.Find(key);
    if (st == nullptr) continue;
    if (st->flag_lo && st->flag_hi) ++incidences_;
    st->flag_lo = st->flag_hi = false;
  }
  touched_edges_.clear();
}

std::size_t TriangleDistinguisher::CurrentSpaceBytes() const {
  constexpr std::size_t kMapEntryOverhead = 48;
  return edge_sample_.MemoryBytes() +
         edge_watchers_.size() * kMapEntryOverhead +
         2 * edge_sample_.size() * sizeof(EdgeKey) +
         touched_edges_.capacity() * sizeof(EdgeKey);
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
      [](auto& /*ar*/, auto& state) {
        // Flags are per-list transients; boundaries only. lo/hi derive
        // from the key.
        CYCLESTREAM_CHECK(!state.flag_lo && !state.flag_hi);
      });
  ar.Buckets(self.edge_watchers_);
  // Watcher content order matters (swap-remove eviction), so verbatim.
  ar.Map(
      self.edge_watchers_, [&](auto v) -> auto& { return self.Watchers(v); },
      [](auto& ar, auto& keys) { ar.Vec(keys); });
  ar.Scratch(self.touched_edges_);
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
