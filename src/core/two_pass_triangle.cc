#include "core/two_pass_triangle.h"

#include <algorithm>
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

}  // namespace

TwoPassTriangleCounter::TwoPassTriangleCounter(
    const TwoPassTriangleOptions& options)
    : options_(options),
      edge_sample_(std::max<std::size_t>(options.sample_size, 1),
                   Mix64(options.seed) ^ 0x1111111111111111ULL,
                   &space_domain_),
      edge_watchers_(&space_domain_),
      touched_edges_(decltype(touched_edges_)::allocator_type(&space_domain_)),
      pair_sample_(kQSlackFactor * std::max<std::size_t>(options.sample_size, 1),
                   Mix64(options.seed) ^ 0x2222222222222222ULL,
                   &space_domain_),
      slab_(decltype(slab_)::allocator_type(&space_domain_)),
      free_slots_(decltype(free_slots_)::allocator_type(&space_domain_)),
      tri_edges_(decltype(tri_edges_)::allocator_type(&space_domain_)),
      tri_verts_(&space_domain_),
      touched_tri_edges_(
          decltype(touched_tri_edges_)::allocator_type(&space_domain_)) {
  CYCLESTREAM_CHECK_GE(options.sample_size, 1u);
}

TwoPassTriangleCounter::TriEdgeWatch& TwoPassTriangleCounter::TriEdgeFor(
    EdgeKey key) {
  return tri_edges_
      .try_emplace(key, obs::AccountedAllocator<TriEdgeWatch::Subscriber>(
                            &space_domain_))
      .first->second;
}

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
  TriEntry& entry = slab_[idx];
  for (int slot = 0; slot < 3; ++slot) {
    EdgeKey key = EdgeKeyOfSlot(entry, slot);
    TriEdgeWatch& watch = TriEdgeFor(key);
    if (watch.subscribers.empty()) {
      watch.lo = EdgeKeyLo(key);
      watch.hi = EdgeKeyHi(key);
    }
    watch.subscribers.push_back({idx, static_cast<std::uint8_t>(slot)});
    tri_verts_.Add(entry.vert[slot], idx);
  }
}

void TwoPassTriangleCounter::UnsubscribeEntry(std::uint32_t idx) {
  TriEntry& entry = slab_[idx];
  for (int slot = 0; slot < 3; ++slot) {
    EdgeKey key = EdgeKeyOfSlot(entry, slot);
    auto it = tri_edges_.find(key);
    if (it != tri_edges_.end()) {
      auto& subs = it->second.subscribers;
      SwapRemove(subs,
                 TriEdgeWatch::Subscriber{idx, static_cast<std::uint8_t>(slot)});
      if (subs.empty()) tri_edges_.erase(it);
    }
    tri_verts_.Remove(entry.vert[slot], idx);
  }
}

void TwoPassTriangleCounter::OnPairEvicted(std::uint64_t /*pair_key*/,
                                           std::uint32_t slab_idx) {
  UnsubscribeEntry(slab_idx);
  FreeEntry(slab_idx);
}

void TwoPassTriangleCounter::OnEdgeEvicted(EdgeKey key, EdgeState&& state) {
  t_prime_ -= state.tri_count;
  edge_watchers_.Remove(state.lo, key);
  edge_watchers_.Remove(state.hi, key);
  // Remove candidate pairs whose sampled edge was this one (slot-2
  // subscribers of this physical edge). Copy first: unsubscription mutates
  // the subscriber list we are scanning.
  auto it = tri_edges_.find(key);
  if (it != tri_edges_.end()) {
    std::vector<TriEdgeWatch::Subscriber> subs(it->second.subscribers.begin(),
                                               it->second.subscribers.end());
    for (const auto& [idx, slot] : subs) {
      if (slot != 2) continue;
      TriEntry& entry = slab_[idx];
      std::uint64_t pair_key = PairKey(key, entry.vert[2]);
      pair_sample_.Erase(pair_key);
      UnsubscribeEntry(idx);
      FreeEntry(idx);
    }
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
    EdgeKey key = MakeEdgeKey(u, v);
    EdgeState state;
    state.lo = EdgeKeyLo(key);
    state.hi = EdgeKeyHi(key);
    state.first_pos = list_pos_;
    auto result = edge_sample_.Offer(
        key, std::move(state), [this](EdgeKey k, EdgeState&& evicted) {
          OnEdgeEvicted(k, std::move(evicted));
        });
    if (result == sampling::OfferResult::kInserted) {
      edge_watchers_.Add(EdgeKeyLo(key), key);
      edge_watchers_.Add(EdgeKeyHi(key), key);
    }
  }

  // Flag sampled edges having endpoint v.
  for (EdgeKey key : edge_watchers_.Find(v)) {
    EdgeState* st = edge_sample_.Find(key);
    if (st == nullptr) continue;
    if (!st->flag_lo && !st->flag_hi) touched_edges_.push_back(key);
    if (st->lo == v) {
      st->flag_lo = true;
    } else {
      st->flag_hi = true;
    }
  }

  // In the second pass, flag triangle edges having endpoint v (for H
  // accumulation). Derive the edges from the entries containing v.
  if (pass_ == 1) {
    for (std::uint32_t idx : tri_verts_.Find(v)) {
      const TriEntry& entry = slab_[idx];
      for (int slot = 0; slot < 3; ++slot) {
        if (entry.vert[slot] == v) continue;  // edge opposite v excluded
        EdgeKey key = EdgeKeyOfSlot(entry, slot);
        auto eit = tri_edges_.find(key);
        if (eit == tri_edges_.end()) continue;
        TriEdgeWatch& watch = eit->second;
        if (!watch.flag_lo && !watch.flag_hi) {
          touched_tri_edges_.push_back(key);
        }
        if (watch.lo == v) {
          watch.flag_lo = true;
        } else {
          watch.flag_hi = true;
        }
      }
    }
  }
}

void TwoPassTriangleCounter::EndList(VertexId u) {
  if (pass_ == 1) {
    // Step 1: H increments for completed triangle edges whose reference
    // third vertex has already been seen strictly earlier this pass.
    for (EdgeKey key : touched_tri_edges_) {
      auto it = tri_edges_.find(key);
      if (it == tri_edges_.end()) continue;
      TriEdgeWatch& watch = it->second;
      if (watch.flag_lo && watch.flag_hi) {
        for (const auto& [idx, slot] : watch.subscribers) {
          TriEntry& entry = slab_[idx];
          if (entry.seen[slot]) ++entry.h[slot];
        }
      }
    }
  }

  // Step 2: triangle detections on sampled edges.
  for (EdgeKey key : touched_edges_) {
    EdgeState* st = edge_sample_.Find(key);
    if (st == nullptr) continue;  // evicted mid-list
    if (st->flag_lo && st->flag_hi) {
      bool is_new_detection =
          pass_ == 0 ? true : list_pos_ < st->first_pos;
      if (is_new_detection) HandleTriangleDetection(key, st, u);
    }
  }

  if (pass_ == 1) {
    // Step 3: mark this list's vertex as seen for subscribed entries.
    for (std::uint32_t idx : tri_verts_.Find(u)) {
      TriEntry& entry = slab_[idx];
      for (int slot = 0; slot < 3; ++slot) {
        if (entry.vert[slot] == u) entry.seen[slot] = true;
      }
    }
    // Reset triangle-edge flags.
    for (EdgeKey key : touched_tri_edges_) {
      auto it = tri_edges_.find(key);
      if (it == tri_edges_.end()) continue;
      it->second.flag_lo = it->second.flag_hi = false;
    }
    touched_tri_edges_.clear();
  }

  // Reset sampled-edge flags.
  for (EdgeKey key : touched_edges_) {
    EdgeState* st = edge_sample_.Find(key);
    if (st != nullptr) st->flag_lo = st->flag_hi = false;
  }
  touched_edges_.clear();

  ++list_pos_;
}

void TwoPassTriangleCounter::EndPass(int pass) {
  if (pass == 1) finished_ = true;
}

std::size_t TwoPassTriangleCounter::CurrentSpaceBytes() const {
  constexpr std::size_t kMapEntryOverhead = 48;
  std::size_t bytes = edge_sample_.MemoryBytes() + pair_sample_.MemoryBytes();
  bytes += slab_.capacity() * sizeof(TriEntry);
  bytes += free_slots_.capacity() * sizeof(std::uint32_t);
  bytes += edge_watchers_.size() * kMapEntryOverhead;
  bytes += tri_verts_.size() * kMapEntryOverhead;
  bytes += tri_edges_.size() * (kMapEntryOverhead + sizeof(TriEdgeWatch));
  // Nested vectors: watcher entries ~ 2 per sampled edge, subscriber entries
  // ~ 3 per live pair, vertex subscriptions ~ 3 per live pair.
  bytes += 2 * edge_sample_.size() * sizeof(EdgeKey);
  bytes += 3 * pair_sample_.size() *
           (sizeof(std::pair<std::uint32_t, std::uint8_t>) +
            sizeof(std::uint32_t));
  bytes += (touched_edges_.capacity() + touched_tri_edges_.capacity()) *
           sizeof(EdgeKey);
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

  sampling::BottomKSampler<EdgeState>::Fields(
      self.edge_sample_, ar,
      [](auto key) { return EdgeState{EdgeKeyLo(key), EdgeKeyHi(key)}; },
      [](auto& ar, auto& state) {
        CYCLESTREAM_CHECK(!state.flag_lo && !state.flag_hi);
        ar.U32(state.first_pos);
        ar.U64(state.tri_count);
      });
  WatchIndex<VertexId, EdgeKey>::Fields(self.edge_watchers_, ar);
  ar.Scratch(self.touched_edges_);

  sampling::BottomKSampler<std::uint32_t>::Fields(
      self.pair_sample_, ar, [](auto /*pair_key*/) { return std::uint32_t{0}; },
      [](auto& ar, auto& idx) { ar.U32(idx); });
  // The slab is serialized verbatim (live and dead slots): slab indices are
  // stored in the pair sample, subscriber lists, and vertex subscriptions,
  // so the slot layout itself is state.
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
  ar.Buckets(self.tri_edges_);
  ar.Map(
      self.tri_edges_,
      [&](auto key) -> auto& {
        TriEdgeWatch& watch = self.TriEdgeFor(key);
        watch.lo = EdgeKeyLo(key);
        watch.hi = EdgeKeyHi(key);
        return watch;
      },
      [](auto& ar, auto& watch) {
        CYCLESTREAM_CHECK(!watch.flag_lo && !watch.flag_hi);
        ar.Vec(watch.subscribers, [](auto& ar, auto& sub) {
          ar.U32(sub.first);
          ar.U8(sub.second);
        });
      });
  WatchIndex<VertexId, std::uint32_t>::Fields(self.tri_verts_, ar);
  ar.Scratch(self.touched_tri_edges_);
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
  res.edge_sample_size = edge_sample_.size();
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
