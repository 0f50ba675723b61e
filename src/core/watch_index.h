// Watcher lists: the index every sampling estimator detects cycles through.
//
// A sampled edge or wedge watches its two endpoints (or, for wedge
// sampling, its endpoint pair) until one adjacency list holds both. Each
// estimator therefore keeps a map from a vertex or endpoint-pair key to the
// sampled items watching it, and mutates it in exactly two ways: append an
// item when it is sampled, and swap-remove it when it leaves the sample,
// dropping the key once its list is empty. `WatchIndex` is that map, once.
// How a watcher list is stored, shrunk, checkpointed and metered is decided
// in this file alone.
//
// Lists are bound to the estimator's memory domain, so the allocator audit
// sees every byte. The index meters itself: `MemoryBytes()` charges
// `kKeyBytes` per key and sizeof(V) per listed item, and keeps the item
// count (and the lists' summed capacity, `capacity_bytes()`) as running
// counts, so a space meter reads it in O(1) instead of walking the lists
// (stream/algorithm.h's rule for CurrentSpaceBytes()).
//
// Each item a lookup lists has that endpoint marked. `ListMarks` says when
// a mark is the item's second end in the open list, so the estimator counts
// the completion as it lands.
//
// Every estimator that samples edges (§2.1's bottom-k hash sample) keeps
// the sample, the lists of sampled edges at each vertex and their marks
// in one `SampledEdges`. How a sampled edge is listed, unlisted, looked up
// from a vertex, marked and checkpointed is decided here too; an estimator
// keeps only its per-edge payload, what an eviction rolls back and what a
// completion counts.

#ifndef CYCLESTREAM_CORE_WATCH_INDEX_H_
#define CYCLESTREAM_CORE_WATCH_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "obs/accounting.h"
#include "sampling/bottom_k.h"

namespace cyclestream {
namespace core {

/// Removes the first element of `vec` equal to `x` by moving the last
/// element over it; element order is not kept. Returns whether it removed
/// one: false, and a no-op, when `x` is absent.
template <typename Vec, typename T>
bool SwapRemove(Vec& vec, const T& x) {
  for (std::size_t i = 0; i < vec.size(); ++i) {
    if (vec[i] == x) {
      vec[i] = vec.back();
      vec.pop_back();
      return true;
    }
  }
  return false;
}

/// Which ends of an item the open list has delivered, in one word per item:
/// the stamp of the last list that marked it above two end bits. Another
/// list's word reads as unmarked, and stamps start at 1, so a new or
/// restored item's zero word is stale; nothing here is checkpointed.
class ListMarks {
 public:
  /// Marks end `end` (0 or 1) of the item whose word is `word`. True
  /// exactly when the open list thereby delivers the item's second end.
  bool Mark(std::uint32_t& word, int end) const {
    const std::uint32_t bit = 1u << end;
    if ((word >> kEndBits) != stamp_) {
      word = (stamp_ << kEndBits) | bit;
      return false;
    }
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }

  /// Closes the open list. After 2^30 - 1 lists the stamp returns to 1 and
  /// this returns true: the caller must then zero every word, or a word an
  /// old list stamped 1 would read as marked by the next list.
  bool EndList() {
    if (++stamp_ <= kMaxStamp) return false;
    stamp_ = 1;
    return true;
  }

 private:
  static constexpr int kEndBits = 2;
  static constexpr std::uint32_t kMaxStamp = (1u << (32 - kEndBits)) - 1;

  std::uint32_t stamp_ = 1;
};

/// A predicate for a restore's checks: whether a slot index names an entry
/// of `slab` whose `live` flag equals `live`. A slot past the slab would be
/// read or written wild.
template <typename Slab>
auto SlotIn(const Slab& slab, bool live) {
  return [&slab, live](std::uint32_t idx) {
    return idx < slab.size() && slab[idx].live == live;
  };
}

/// Maps a key (a vertex, or an endpoint-pair EdgeKey) to the list of
/// sampled items (edge keys, slot indices, neighbors) watching it. No list
/// in the index is empty.
template <typename K, typename V>
class WatchIndex {
 public:
  /// Bytes `MemoryBytes()` charges per key: a hash node and its list's
  /// header.
  static constexpr std::size_t kKeyBytes = 48;

  /// Every container the index allocates charges `domain`.
  explicit WatchIndex(obs::MemoryDomain* domain)
      : lists_(typename Map::allocator_type(domain)) {}

  /// Appends `value` to `key`'s list, creating the list if absent.
  void Add(K key, V value) {
    List& list = ListFor(key);
    const std::size_t before = list.capacity();
    list.push_back(value);
    capacity_bytes_ += (list.capacity() - before) * sizeof(V);
    ++items_;
  }

  /// Swap-removes the first `value` from `key`'s list, then drops the key
  /// if its list is empty. An absent key is a no-op.
  void Remove(K key, const V& value) {
    auto it = lists_.find(key);
    if (it == lists_.end()) return;
    if (SwapRemove(it->second, value)) --items_;
    if (it->second.empty()) {
      capacity_bytes_ -= it->second.capacity() * sizeof(V);
      lists_.erase(it);
    }
  }

  /// `key`'s list, empty when the key is absent. Do not hold it across an
  /// Add or Remove.
  std::span<const V> Find(K key) const {
    auto it = lists_.find(key);
    if (it == lists_.end()) return {};
    return it->second;
  }

  /// Number of keys.
  std::size_t size() const { return lists_.size(); }

  /// Σ list capacity × sizeof(V).
  std::size_t capacity_bytes() const { return capacity_bytes_; }

  /// The index's self-reported space: keys × kKeyBytes + listed items ×
  /// sizeof(V).
  std::size_t MemoryBytes() const {
    return lists_.size() * kKeyBytes + items_ * sizeof(V);
  }

  /// Calls fn(key, list) for every key, in unspecified order.
  template <typename Fn>
  void ForEachList(Fn&& fn) const {
    for (const auto& [key, list] : lists_) fn(key, std::span<const V>(list));
  }

  /// Whether `pred(value)` holds for every listed value: a restore checks
  /// that each names an entry that exists.
  template <typename Pred>
  bool AllOf(Pred&& pred) const {
    return std::ranges::all_of(lists_, [&](const auto& entry) {
      return std::ranges::all_of(entry.second, pred);
    });
  }

  /// Checkpoint layout (snapshot/codec.h): the bucket count, then every
  /// list verbatim in ascending key order. List order is state (Remove
  /// moves the last entry forward), so it is stored, not rebuilt.
  static void Fields(auto& self, auto& ar) {
    ar.Buckets(self.lists_);
    ar.Map(
        self.lists_, [&](auto key) -> auto& { return self.ListFor(key); },
        [](auto& ar, auto& list) { ar.Vec(list); });
    if constexpr (ar.kLoading) {
      self.capacity_bytes_ = 0;
      self.items_ = 0;
      for (const auto& entry : self.lists_) {
        self.capacity_bytes_ += entry.second.capacity() * sizeof(V);
        self.items_ += entry.second.size();
      }
    }
  }

 private:
  using List = obs::AccountedVector<V>;
  using Map = obs::AccountedUnorderedMap<K, List>;

  // The new list shares the map's domain.
  List& ListFor(K key) {
    return lists_
        .try_emplace(key, obs::AccountedAllocator<V>(lists_.get_allocator()))
        .first->second;
  }

  Map lists_;
  std::size_t capacity_bytes_ = 0;
  std::size_t items_ = 0;  // Σ list size
};

/// An edge sample (a bottom-k sampler keyed by EdgeKey, payload `State`)
/// with each member listed under both endpoints. `State` has VertexId
/// fields `lo` and `hi`, which this fills from the key; an estimator that
/// marks ends (MarkEnds, EndList) also gives it a std::uint32_t `ends`
/// word. Every listed key is a member, so a lookup from a vertex never
/// misses.
template <typename State>
class SampledEdges {
 public:
  /// A sample of `capacity` edges under `hash_seed`; the sampler and the
  /// lists charge `domain`.
  SampledEdges(std::size_t capacity, std::uint64_t hash_seed,
               obs::MemoryDomain* domain)
      : sample_(capacity, hash_seed, domain), lists_(domain) {}

  /// Offers edge `key` with `state`, whose `lo`/`hi` this fills, and lists
  /// an admitted edge under both ends. An edge the offer evicts is unlisted
  /// before `on_evict(key, state&&)` sees it.
  template <typename EvictFn>
  sampling::OfferResult Offer(EdgeKey key, State state, EvictFn&& on_evict) {
    state.lo = EdgeKeyLo(key);
    state.hi = EdgeKeyHi(key);
    const sampling::OfferResult result = sample_.Offer(
        key, std::move(state), [&](EdgeKey evicted_key, State&& evicted) {
          lists_.Remove(evicted.lo, evicted_key);
          lists_.Remove(evicted.hi, evicted_key);
          on_evict(evicted_key, std::move(evicted));
        });
    if (result == sampling::OfferResult::kInserted) {
      lists_.Add(EdgeKeyLo(key), key);
      lists_.Add(EdgeKeyHi(key), key);
    }
    return result;
  }

  /// The payload of member `key`, or nullptr. Valid until the next Offer.
  State* Find(EdgeKey key) { return sample_.Find(key); }

  /// Number of sampled edges with endpoint `v`.
  std::size_t CountAt(VertexId v) const { return lists_.Find(v).size(); }

  /// Calls fn(key, state&) for each sampled edge with endpoint `v`. `fn`
  /// must not offer edges.
  template <typename Fn>
  void ForEachAt(VertexId v, Fn&& fn) {
    for (EdgeKey key : lists_.Find(v)) fn(key, *sample_.Find(key));
  }

  /// Marks end `v` of each sampled edge with endpoint `v`, and calls
  /// fn(key, state&) for each edge the open list thereby completes.
  template <typename Fn>
  void MarkEnds(VertexId v, Fn&& fn) {
    ForEachAt(v, [&](EdgeKey key, State& state) {
      if (marks_.Mark(state.ends, state.lo == v ? 0 : 1)) fn(key, state);
    });
  }

  /// Closes the open list for MarkEnds; when the stamp wraps, zeroes every
  /// member's `ends` word.
  void EndList() {
    if (marks_.EndList()) {
      sample_.ForEach([](EdgeKey, State& state) { state.ends = 0; });
    }
  }

  /// Calls fn(key, state) for every sampled edge, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    sample_.ForEach(fn);
  }

  /// The edge's sampling priority; stable across offers.
  std::uint64_t PriorityOf(EdgeKey key) const {
    return sample_.PriorityOf(key);
  }

  /// Number of sampled edges.
  std::size_t size() const { return sample_.size(); }

  /// The sampler's and the lists' self-reported bytes.
  std::size_t MemoryBytes() const {
    return sample_.MemoryBytes() + lists_.MemoryBytes();
  }

  /// Checkpoint layout (snapshot/codec.h): the sampler's members, each
  /// payload through `value(ar, state)`, and its heap, then the lists. On
  /// load `make(key)` builds each payload (a default State when omitted)
  /// before its `lo`/`hi` are filled, and lists that do not hold exactly
  /// each member under both endpoints are kDataLoss: a lookup from a
  /// vertex would reach a missing member, or mark a vertex that is not the
  /// edge's end.
  static void Fields(auto& self, auto& ar, auto&& make, auto&& value) {
    sampling::BottomKSampler<State>::Fields(
        self.sample_, ar,
        [&](auto key) {
          State state = make(key);
          state.lo = EdgeKeyLo(key);
          state.hi = EdgeKeyHi(key);
          return state;
        },
        value);
    WatchIndex<VertexId, EdgeKey>::Fields(self.lists_, ar);
    if constexpr (ar.kLoading) {
      std::vector<std::pair<VertexId, EdgeKey>> listed, members;
      self.lists_.ForEachList([&](VertexId v, std::span<const EdgeKey> keys) {
        for (EdgeKey key : keys) listed.push_back({v, key});
      });
      self.sample_.ForEach([&](EdgeKey key, const State&) {
        members.push_back({EdgeKeyLo(key), key});
        members.push_back({EdgeKeyHi(key), key});
      });
      std::ranges::sort(listed);
      std::ranges::sort(members);
      ar.Require(listed == members,
                 "edge lists do not hold each sampled edge at both ends");
    }
  }
  static void Fields(auto& self, auto& ar, auto&& value) {
    Fields(self, ar, [](EdgeKey) { return State{}; }, value);
  }

 private:
  sampling::BottomKSampler<State> sample_;
  WatchIndex<VertexId, EdgeKey> lists_;
  ListMarks marks_;
};

}  // namespace core
}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_WATCH_INDEX_H_
