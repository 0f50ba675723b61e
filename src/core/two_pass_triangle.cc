#include "core/two_pass_triangle.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "snapshot/codec.h"
#include "util/check.h"
#include "util/hashing.h"

namespace cyclestream {
namespace core {

namespace {

// Stable identifier of a candidate (edge, apex) pair; the sampler applies its
// own seeded priority hash on top of this key.
std::uint64_t PairKey(EdgeKey edge_key, VertexId apex) {
  return Mix128To64(edge_key, apex);
}

constexpr std::size_t kQSlackFactor = 2;

// Version 1 stored, after free_slots_, a map from each triangle edge to the
// (slab index, edge slot) pairs watching it: a bucket count, then per edge
// key, ascending, a subscriber count, a capacity and the pairs. Version 2
// marks endpoints on the candidates instead, so a version-1 restore reads
// the map and drops it. The Loader checks the counts against the payload
// and the keys' order; no stored capacity sizes anything.
void DropVersion1TriEdges(snapshot::Loader& ar) {
  using Subscribers = std::vector<std::pair<std::uint32_t, std::uint8_t>>;
  std::unordered_map<EdgeKey, Subscribers> tri_edges;
  std::uint64_t unused = 0;
  ar.U64(unused);  // bucket count
  ar.Map(
      tri_edges, [&](EdgeKey key) -> auto& { return tri_edges[key]; },
      [&unused](auto& ar, Subscribers& subscribers) {
        ar.Size(subscribers, 5);
        ar.U64(unused);  // capacity
        for (auto& [idx, slot] : subscribers) {
          ar.U32(idx);
          ar.U8(slot);
        }
      });
}

}  // namespace

TwoPassTriangleCounter::TwoPassTriangleCounter(
    const TwoPassTriangleOptions& options)
    : options_(options),
      edges_(options.sample_size, Mix64(options.seed) ^ 0x1111111111111111ULL,
             &space_domain_),
      touched_edges_(decltype(touched_edges_)::allocator_type(&space_domain_)),
      pair_sample_(kQSlackFactor * options.sample_size,
                   Mix64(options.seed) ^ 0x2222222222222222ULL,
                   &space_domain_),
      slab_(decltype(slab_)::allocator_type(&space_domain_)),
      free_slots_(decltype(free_slots_)::allocator_type(&space_domain_)),
      tri_verts_(&space_domain_) {}

EdgeKey TwoPassTriangleCounter::EdgeKeyOfSlot(const TriEntry& entry,
                                              int slot) const {
  switch (slot) {
    case 0:
      return MakeEdgeKey(entry.vert[1], entry.vert[2]);
    case 1:
      return MakeEdgeKey(entry.vert[0], entry.vert[2]);
    default:
      return MakeEdgeKey(entry.vert[0], entry.vert[1]);
  }
}

std::uint32_t TwoPassTriangleCounter::AllocEntry() {
  if (!free_slots_.empty()) {
    std::uint32_t idx = free_slots_.back();
    free_slots_.pop_back();
    slab_[idx] = TriEntry{};
    return idx;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void TwoPassTriangleCounter::FreeEntry(std::uint32_t idx) {
  slab_[idx].live = false;
  free_slots_.push_back(idx);
}

void TwoPassTriangleCounter::SubscribeEntry(std::uint32_t idx) {
  for (VertexId vert : slab_[idx].vert) tri_verts_.Add(vert, idx);
}

void TwoPassTriangleCounter::UnsubscribeEntry(std::uint32_t idx) {
  for (VertexId vert : slab_[idx].vert) tri_verts_.Remove(vert, idx);
}

void TwoPassTriangleCounter::OnPairEvicted(std::uint64_t /*pair_key*/,
                                           std::uint32_t slab_idx) {
  UnsubscribeEntry(slab_idx);
  FreeEntry(slab_idx);
}

void TwoPassTriangleCounter::OnEdgeEvicted(EdgeKey key, EdgeState&& state) {
  t_prime_ -= state.tri_count;
  // Remove the candidate pairs whose sampled edge was this one. Each is
  // listed under both endpoints; scan the shorter list, and copy the
  // matches first: unsubscribing edits the list.
  std::span<const std::uint32_t> listed = tri_verts_.Find(state.lo);
  std::span<const std::uint32_t> hi_listed = tri_verts_.Find(state.hi);
  if (hi_listed.size() < listed.size()) listed = hi_listed;
  std::vector<std::uint32_t> doomed;
  for (std::uint32_t idx : listed) {
    const TriEntry& entry = slab_[idx];
    if (entry.vert[0] == state.lo && entry.vert[1] == state.hi) {
      doomed.push_back(idx);
    }
  }
  for (std::uint32_t idx : doomed) {
    pair_sample_.Erase(PairKey(key, slab_[idx].vert[2]));
    UnsubscribeEntry(idx);
    FreeEntry(idx);
  }
}

void TwoPassTriangleCounter::HandleTriangleDetection(EdgeKey edge_key,
                                                     EdgeState* edge,
                                                     VertexId apex) {
  ++edge->tri_count;
  ++t_prime_;
  std::uint64_t pair_key = PairKey(edge_key, apex);
  std::uint32_t idx = AllocEntry();
  TriEntry& entry = slab_[idx];
  entry.vert[0] = edge->lo;
  entry.vert[1] = edge->hi;
  entry.vert[2] = apex;
  entry.live = true;
  if (pass_ == 1) entry.seen[2] = true;  // apex's list is the current one

  auto result = pair_sample_.Offer(
      pair_key, idx, [this](std::uint64_t key, std::uint32_t&& evicted_idx) {
        (void)key;
        q_overflowed_ = true;
        OnPairEvicted(key, evicted_idx);
      });
  if (result == sampling::OfferResult::kInserted) {
    SubscribeEntry(idx);
  } else {
    // Rejected (kAlreadyPresent cannot occur: each pair is detected once).
    CYCLESTREAM_CHECK(result == sampling::OfferResult::kRejected);
    q_overflowed_ = true;
    FreeEntry(idx);
  }
}

void TwoPassTriangleCounter::BeginPass(int pass) {
  pass_ = pass;
  list_pos_ = 0;
  if (pass == 1) {
    for (TriEntry& entry : slab_) {
      if (entry.live) {
        entry.seen[0] = entry.seen[1] = entry.seen[2] = false;
      }
    }
  }
}

void TwoPassTriangleCounter::BeginList(VertexId /*u*/) {}

void TwoPassTriangleCounter::HandlePair(VertexId u, VertexId v) {
  if (pass_ == 0) {
    ++pair_events_;
    // Offer the edge to S; members of the final sample are admitted here, at
    // their first appearance (bottom-k thresholds only decrease).
    EdgeState state;
    state.first_pos = list_pos_;
    edges_.Offer(MakeEdgeKey(u, v), state,
                 [this](EdgeKey k, EdgeState&& evicted) {
                   OnEdgeEvicted(k, std::move(evicted));
                 });
  }

  // Flag sampled edges having endpoint v.
  edges_.ForEachAt(v, [&](EdgeKey key, EdgeState& st) {
    if (!st.flag_lo && !st.flag_hi) touched_edges_.push_back(key);
    if (st.lo == v) {
      st.flag_lo = true;
    } else {
      st.flag_hi = true;
    }
  });

  // In the second pass, mark v on the two edges of each candidate that end
  // at v. When a mark completes an edge, this list holds both endpoints of
  // the edge: it adds to H for that edge once the reference third vertex
  // has been seen strictly earlier this pass.
  if (pass_ == 1) {
    const std::uint32_t stamp = list_pos_ + 1;
    for (std::uint32_t idx : tri_verts_.Find(v)) {
      TriEntry& entry = slab_[idx];
      if (entry.stamp != stamp) {
        entry.stamp = stamp;
        entry.ends = 0;
      }
      for (int slot = 0; slot < 3; ++slot) {
        if (entry.vert[slot] == v) continue;  // edge opposite v excluded
        const int shift = 2 * slot + (entry.vert[(slot + 1) % 3] == v ? 0 : 1);
        const std::uint8_t mark = 1u << shift;
        const std::uint8_t other = (3u << (2 * slot)) ^ mark;
        // v completes the edge when its other endpoint came first.
        if ((entry.ends & (mark | other)) == other && entry.seen[slot]) {
          ++entry.h[slot];
        }
        entry.ends |= mark;
      }
    }
  }
}

void TwoPassTriangleCounter::EndList(VertexId u) {
  // Triangle detections on sampled edges.
  for (EdgeKey key : touched_edges_) {
    EdgeState* st = edges_.Find(key);
    if (st == nullptr) continue;  // evicted mid-list
    if (st->flag_lo && st->flag_hi) {
      bool is_new_detection =
          pass_ == 0 ? true : list_pos_ < st->first_pos;
      if (is_new_detection) HandleTriangleDetection(key, st, u);
    }
  }

  if (pass_ == 1) {
    // Mark this list's vertex as seen for subscribed entries.
    for (std::uint32_t idx : tri_verts_.Find(u)) {
      TriEntry& entry = slab_[idx];
      for (int slot = 0; slot < 3; ++slot) {
        if (entry.vert[slot] == u) entry.seen[slot] = true;
      }
    }
  }

  // Reset sampled-edge flags.
  for (EdgeKey key : touched_edges_) {
    EdgeState* st = edges_.Find(key);
    if (st != nullptr) st->flag_lo = st->flag_hi = false;
  }
  touched_edges_.clear();

  ++list_pos_;
}

void TwoPassTriangleCounter::EndPass(int pass) {
  if (pass == 1) finished_ = true;
}

std::size_t TwoPassTriangleCounter::CurrentSpaceBytes() const {
  std::size_t bytes = edges_.MemoryBytes() + pair_sample_.MemoryBytes();
  bytes += slab_.capacity() * sizeof(TriEntry);
  bytes += free_slots_.capacity() * sizeof(std::uint32_t);
  bytes += tri_verts_.MemoryBytes();
  bytes += touched_edges_.capacity() * sizeof(EdgeKey);
  return bytes;
}

void TwoPassTriangleCounter::Fields(auto& self, auto& ar) {
  ar.Option(self.options_.sample_size, "sample_size");
  ar.Option(self.options_.seed, "seed");
  ar.Option(self.options_.use_lightest_edge_rule, "use_lightest_edge_rule");
  ar.Pass(self.pass_, self.passes());
  ar.U32(self.list_pos_);
  ar.U64(self.pair_events_);
  ar.U64(self.t_prime_);
  ar.Bool(self.q_overflowed_);
  ar.Bool(self.finished_);

  SampledEdges<EdgeState>::Fields(self.edges_, ar, [](auto& ar, auto& state) {
    CYCLESTREAM_CHECK(!state.flag_lo && !state.flag_hi);
    ar.U32(state.first_pos);
    ar.U64(state.tri_count);
  });
  ar.Scratch(self.touched_edges_);

  sampling::BottomKSampler<std::uint32_t>::Fields(
      self.pair_sample_, ar, [](auto /*pair_key*/) { return std::uint32_t{0}; },
      [](auto& ar, auto& idx) { ar.U32(idx); });
  // The slab is serialized verbatim (live and dead slots): slab indices are
  // stored in the pair sample and the vertex subscriptions, so the slot
  // layout itself is state. The endpoint marks are not: they are stale at
  // every list boundary, and a restored entry's stamp 0 matches no list.
  ar.Vec(self.slab_, [](auto& ar, auto& entry) {
    ar.Bool(entry.live);
    if (!entry.live) return;  // freed: defaults on reuse
    for (auto& vert : entry.vert) ar.U32(vert);
    for (auto& h : entry.h) ar.U64(h);
    std::uint8_t seen = (entry.seen[0] ? 1 : 0) | (entry.seen[1] ? 2 : 0) |
                        (entry.seen[2] ? 4 : 0);
    ar.U8(seen);
    if constexpr (ar.kLoading) {
      for (int slot = 0; slot < 3; ++slot) {
        entry.seen[slot] = (seen >> slot) & 1;
      }
    }
  });
  ar.Vec(self.free_slots_);
  if constexpr (ar.kLoading) {
    if (ar.version() == 1) DropVersion1TriEdges(ar);
  }
  WatchIndex<VertexId, std::uint32_t>::Fields(self.tri_verts_, ar);
  ar.Dropped(2);  // the map's scratch capacity
  if constexpr (ar.kLoading) {
    // Q and the watch lists name live candidates, the free list dead ones.
    const auto live = SlotIn(self.slab_, true);
    bool q_names_live = true;
    self.pair_sample_.ForEach([&](std::uint64_t, std::uint32_t idx) {
      q_names_live = q_names_live && live(idx);
    });
    ar.Require(q_names_live && self.tri_verts_.AllOf(live) &&
                   std::ranges::all_of(self.free_slots_,
                                       SlotIn(self.slab_, false)),
               "candidate slot outside the slab, or live where it must be "
               "free");
  }
}

void TwoPassTriangleCounter::Serialize(snapshot::SnapshotWriter& w) const {
  snapshot::Saver ar(w);
  Fields(*this, ar);
}

Status TwoPassTriangleCounter::Restore(snapshot::SnapshotReader& r) {
  snapshot::Loader ar(r);
  Fields(*this, ar);
  return ar.status();
}

TwoPassTriangleResult TwoPassTriangleCounter::result() const {
  CYCLESTREAM_CHECK(finished_);
  TwoPassTriangleResult res;
  res.edge_count = pair_events_ / 2;
  res.candidate_pairs = t_prime_;
  res.edge_sample_size = edges_.size();
  res.k = res.edge_sample_size == 0
              ? 1.0
              : static_cast<double>(res.edge_count) /
                    static_cast<double>(res.edge_sample_size);

  if (!options_.use_lightest_edge_rule) {
    res.estimate = res.k * static_cast<double>(t_prime_) / 3.0;
    return res;
  }

  res.pairs_live = pair_sample_.size();
  res.q_overflowed = q_overflowed_;
  if (t_prime_ == 0 || pair_sample_.size() == 0) {
    res.estimate = 0.0;
    return res;
  }

  // Select the bottom-m' candidates by priority (the sampler holds up to
  // 2m' as slack; see header).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> live;
  live.reserve(pair_sample_.size());
  pair_sample_.ForEach([&](std::uint64_t key, const std::uint32_t& idx) {
    live.push_back({pair_sample_.PriorityOf(key), idx});
  });
  // If Q never overflowed it holds every candidate pair; use it wholesale
  // (the estimator is then exact given S). Otherwise take the bottom-m'
  // prefix by priority.
  std::size_t used = q_overflowed_
                         ? std::min(options_.sample_size, live.size())
                         : live.size();
  std::nth_element(live.begin(), live.begin() + used - 1, live.end());

  std::uint64_t rho_hits = 0;
  for (std::size_t i = 0; i < used; ++i) {
    const TriEntry& entry = slab_[live[i].second];
    int best_slot = 0;
    for (int slot = 1; slot < 3; ++slot) {
      if (entry.h[slot] < entry.h[best_slot] ||
          (entry.h[slot] == entry.h[best_slot] &&
           EdgeKeyOfSlot(entry, slot) < EdgeKeyOfSlot(entry, best_slot))) {
        best_slot = slot;
      }
    }
    if (best_slot == 2) ++rho_hits;  // slot 2 is the sampled edge
  }
  res.pair_sample_size = used;
  res.rho_hits = rho_hits;
  res.estimate = res.k * static_cast<double>(t_prime_) /
                 static_cast<double>(used) * static_cast<double>(rho_hits);
  return res;
}

}  // namespace core
}  // namespace cyclestream
