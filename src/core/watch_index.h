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
// Layout: one open-addressing table, probed linearly from a multiply-shift
// home position and erased by backward shift. The keys sit in a dense array
// of their own, with an empty-key sentinel, so a probe reads only keys; a
// parallel array of 4-byte indices names each key's list header (buffer,
// size, capacity), read only when the probe finds its key. The headers sit
// in a dense array of a quarter as many, the most keys the table holds,
// plus one for the all-ones key; free ones are chained. The table keeps
// its load between 1/8 and 1/4 (at least 8 positions), doubling and
// halving as keys come and go; each list's capacity stays within
// [size, 4·size], doubling when full and halving at a quarter. Growth,
// shrinking and erasure run out of line.
//
// Every allocation is bound to the estimator's memory domain, so the
// allocator audit sees every byte, and `MemoryBytes()` reports exactly what
// the index allocated, from running counts, in O(1) (stream/algorithm.h's
// rule for CurrentSpaceBytes()).
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
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "obs/accounting.h"
#include "sampling/bottom_k.h"

namespace cyclestream {
namespace core {

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
/// sampled items (sampler slots, slab slots, neighbors) watching it. No list
/// in the index is empty. The all-ones key is the table's empty sentinel, so
/// its list (vertex 2^32 - 1 is a valid id) keeps header 0, which every
/// empty position names: its probe ends at the first empty position and
/// finds that list there, with no test a lookup of another key pays. No
/// canonical edge key (its smaller end is in the high word) equals it.
template <typename K, typename V>
class WatchIndex {
  static_assert(std::is_unsigned_v<K> && std::is_trivially_copyable_v<V>);

 public:
  /// Every array and list the index allocates charges `domain`.
  explicit WatchIndex(obs::MemoryDomain* domain)
      : alloc_(domain),
        keys_(obs::AccountedAllocator<K>(domain)),
        heads_(obs::AccountedAllocator<std::uint32_t>(domain)),
        lists_(obs::AccountedAllocator<List>(domain)) {
    Rehash(kMinTable);
  }

  ~WatchIndex() {
    for (List& list : lists_) Free(list);
  }

  WatchIndex(const WatchIndex&) = delete;
  WatchIndex& operator=(const WatchIndex&) = delete;

  /// Appends `value` to `key`'s list, creating the list if absent, and
  /// returns its position in the list.
  std::uint32_t Add(K key, V value) {
    const std::size_t at = PositionOf(key);
    List& list = keys_[at] == kEmptyKey ? Claim(at, key) : lists_[heads_[at]];
    if (list.size == list.capacity) {
      Reallocate(list, list.capacity == 0 ? 1 : 2 * list.capacity);
    }
    list.data[list.size] = value;
    return list.size++;
  }

  /// Swap-removes the first `value` from `key`'s list, then drops the key
  /// if its list is empty. An absent key or value is a no-op.
  void Remove(K key, const V& value) {
    const std::size_t at = PositionOf(key);
    if (keys_[at] != key) return;
    List& list = lists_[heads_[at]];
    for (std::uint32_t pos = 0; pos < list.size; ++pos) {
      if (list.data[pos] == value) {
        RemoveFrom(at, list, pos, [](const V&) {});
        return;
      }
    }
  }

  /// Removes the entry at `pos` of `key`'s list, which must hold one, by
  /// moving the list's last entry into it (Remove's order), then drops the
  /// key if its list is empty. When an entry moves, `moved(value)` sees it,
  /// now at `pos`.
  template <typename Moved>
  void RemoveAt(K key, std::uint32_t pos, Moved&& moved) {
    const std::size_t at = PositionOf(key);
    RemoveFrom(at, lists_[heads_[at]], pos, moved);
  }

  /// `key`'s list, empty when the key is absent. Do not hold it across an
  /// Add or Remove.
  std::span<const V> Find(K key) const {
    for (std::size_t at = Home(key);; at = (at + 1) & mask_) {
      if (keys_[at] == key) return View(lists_[heads_[at]]);
      if (keys_[at] == kEmptyKey) return {};
    }
  }

  /// Number of keys.
  std::size_t size() const { return count_ + (lists_[kSpare].size > 0); }

  /// The bytes the index allocated: its table (a key and a header index per
  /// position), its headers and every list's buffer.
  std::size_t MemoryBytes() const {
    return keys_.size() * (sizeof(K) + sizeof(std::uint32_t)) +
           lists_.size() * sizeof(List) + list_bytes_;
  }

  /// Calls fn(key, list) for every key, in unspecified order.
  template <typename Fn>
  void ForEachList(Fn&& fn) const {
    for (std::size_t at = 0; at < keys_.size(); ++at) {
      if (keys_[at] != kEmptyKey) fn(keys_[at], View(lists_[heads_[at]]));
    }
    if (lists_[kSpare].size > 0) fn(kEmptyKey, View(lists_[kSpare]));
  }

  /// Whether `pred(value)` holds for every listed value: a restore checks
  /// that each names an entry that exists.
  template <typename Pred>
  bool AllOf(Pred&& pred) const {
    bool all = true;
    ForEachList([&](K, std::span<const V> list) {
      all = all && std::ranges::all_of(list, pred);
    });
    return all;
  }

  /// Checkpoint layout (snapshot/codec.h): the table size, then every list
  /// in ascending key order, as its key, size, capacity and entries, each
  /// entry through `elem(ar, value)` in at least `elem_bytes` of the
  /// payload. List order is state (a removal moves the last entry
  /// forward), so it is stored, not rebuilt. On load a capacity outside
  /// [size, 4·size] or not a power of two is kDataLoss before the list is
  /// allocated, and a table size outside [max(8, 4·keys), max(8, 8·keys)]
  /// (keys: those in the table) or not a power of two is kDataLoss before
  /// the table is resized to it: the index never holds either. Versions
  /// before 8 stored a node map of the same shape, whose bucket count and
  /// list capacities are read and dropped: each list gets the capacity
  /// appends alone give it, and the table the size its inserts grow it to.
  static void Fields(auto& self, auto& ar, std::size_t elem_bytes,
                     auto&& elem) {
    std::uint64_t table = self.keys_.size();
    ar.U64(table);
    ar.Table([&] { return self.SortedLists(); },
             [&](auto key) { return &self.Claim(self.PositionOf(key), key); },
             [&](auto& ar, auto& list) {
               ListFields(self, ar, list, elem_bytes, elem);
             });
    if constexpr (ar.kLoading) {
      if (ar.version() >= 8) {
        const std::uint64_t keys = self.count_;
        ar.Require(std::has_single_bit(table) &&
                       table >= std::max<std::uint64_t>(kMinTable, 4 * keys) &&
                       table <= std::max<std::uint64_t>(kMinTable, 8 * keys),
                   "watch table size is not a power of two in [4, 8] times "
                   "its keys, and at least 8");
        if (ar.ok() && table != self.keys_.size()) self.Rehash(table);
      }
    }
  }
  /// Entries stored at their own width.
  static void Fields(auto& self, auto& ar) {
    Fields(self, ar, sizeof(V), [](auto& ar, auto& value) {
      if constexpr (sizeof(V) == 4) {
        ar.U32(value);
      } else {
        ar.U64(value);
      }
    });
  }

 private:
  // A list's header. A free header has no buffer, and its `size` names the
  // next free header.
  struct List {
    V* data = nullptr;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  static constexpr K kEmptyKey = std::numeric_limits<K>::max();
  static constexpr std::uint32_t kSpare = 0;  // the all-ones key's header
  static constexpr std::size_t kMinTable = 8;

  static std::span<const V> View(const List& list) {
    return {list.data, list.size};
  }

  // Multiply-shift: the product's top bits, as many as the table has
  // position bits.
  std::size_t Home(K key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  // The position holding `key`, or the empty position that ends its probe.
  std::size_t PositionOf(K key) const {
    std::size_t at = Home(key);
    while (keys_[at] != key && keys_[at] != kEmptyKey) at = (at + 1) & mask_;
    return at;
  }

  // Installs `key` at the empty position `at` ends its probe at, with a
  // free header, doubling the table first when the key would take its load
  // past 1/4; returns the key's header (header 0 for the all-ones key). A
  // miss, the common lookup, then mostly ends at its home position: a probe
  // that runs on mispredicts where it stops.
  [[gnu::noinline]] List& Claim(std::size_t at, K key) {
    if (key == kEmptyKey) return lists_[kSpare];
    if (4 * (count_ + 1) > keys_.size()) {
      Rehash(2 * keys_.size());
      at = PositionOf(key);
    }
    keys_[at] = key;
    heads_[at] = free_;
    List& list = lists_[free_];
    free_ = list.size;
    list.size = 0;
    ++count_;
    return list;
  }

  template <typename Moved>
  void RemoveFrom(std::size_t at, List& list, std::uint32_t pos,
                  Moved&& moved) {
    const std::uint32_t last = --list.size;
    if (pos != last) {
      list.data[pos] = list.data[last];
      moved(std::as_const(list.data[pos]));
    }
    if (4 * list.size <= list.capacity) Shrink(at, list);
  }

  // A list at a quarter of its capacity halves it; an empty one is freed,
  // and unless it is the all-ones key's, its header is chained free and its
  // key erased by backward shift: each later key of the probe cluster whose
  // home is not cyclically after the hole moves into it. The table then
  // halves if its load fell below 1/8.
  [[gnu::noinline]] void Shrink(std::size_t at, List& list) {
    if (list.size > 0) {
      Reallocate(list, list.capacity / 2);
      return;
    }
    Free(list);
    if (keys_[at] == kEmptyKey) return;
    list.size = free_;
    free_ = heads_[at];
    std::size_t hole = at;
    for (std::size_t next = (hole + 1) & mask_; keys_[next] != kEmptyKey;
         next = (next + 1) & mask_) {
      if (((next - Home(keys_[next])) & mask_) >= ((next - hole) & mask_)) {
        keys_[hole] = keys_[next];
        heads_[hole] = heads_[next];
        hole = next;
      }
    }
    keys_[hole] = kEmptyKey;
    heads_[hole] = kSpare;
    --count_;
    if (keys_.size() > kMinTable && 8 * count_ < keys_.size()) {
      Rehash(keys_.size() / 2);
    }
  }

  // Moves `list` into a buffer of `capacity` entries.
  void Reallocate(List& list, std::uint32_t capacity) {
    V* data = alloc_.allocate(capacity);
    std::copy_n(list.data, list.size, data);
    if (list.data != nullptr) alloc_.deallocate(list.data, list.capacity);
    list_bytes_ += (std::size_t{capacity} - list.capacity) * sizeof(V);
    list.data = data;
    list.capacity = capacity;
  }

  // Frees `list`'s buffer, leaving it an empty header.
  void Free(List& list) {
    if (list.data != nullptr) alloc_.deallocate(list.data, list.capacity);
    list_bytes_ -= std::size_t{list.capacity} * sizeof(V);
    list = List{};
  }

  // Moves every key into a table of `size` positions with header 0 and
  // `size / 4` more (the most keys it holds): the keys' headers first, in
  // position order, then the free ones, chained in index order.
  void Rehash(std::size_t size) {
    obs::AccountedVector<K> keys(size, kEmptyKey, keys_.get_allocator());
    obs::AccountedVector<std::uint32_t> heads(size, kSpare,
                                              heads_.get_allocator());
    obs::AccountedVector<List> lists(size / 4 + 1, List{},
                                     lists_.get_allocator());
    if (!lists_.empty()) lists[kSpare] = lists_[kSpare];
    mask_ = size - 1;
    shift_ = 64 - std::countr_zero(size);
    std::uint32_t used = kSpare + 1;
    for (std::size_t from = 0; from < keys_.size(); ++from) {
      if (keys_[from] == kEmptyKey) continue;
      std::size_t at = Home(keys_[from]);
      while (keys[at] != kEmptyKey) at = (at + 1) & mask_;
      keys[at] = keys_[from];
      heads[at] = used;
      lists[used++] = lists_[heads_[from]];
    }
    free_ = used;
    for (std::uint32_t head = used; head < lists.size(); ++head) {
      lists[head].size = head + 1;
    }
    keys_ = std::move(keys);
    heads_ = std::move(heads);
    lists_ = std::move(lists);
  }

  // The keys and their lists in ascending key order.
  std::vector<std::pair<K, const List*>> SortedLists() const {
    std::vector<std::pair<K, const List*>> sorted;
    sorted.reserve(size());
    for (std::size_t at = 0; at < keys_.size(); ++at) {
      if (keys_[at] != kEmptyKey) {
        sorted.push_back({keys_[at], &lists_[heads_[at]]});
      }
    }
    if (lists_[kSpare].size > 0) {
      sorted.push_back({kEmptyKey, &lists_[kSpare]});
    }
    std::ranges::sort(sorted);
    return sorted;
  }

  // One list: a payload-bounded count, the capacity, the entries.
  static void ListFields(auto& self, auto& ar, auto& list,
                         std::size_t elem_bytes, auto& elem) {
    std::uint64_t size = list.size;
    ar.Count(size, elem_bytes);
    std::uint64_t capacity = list.capacity;
    ar.U64(capacity);
    if constexpr (ar.kLoading) {
      if (ar.version() < 8) capacity = std::bit_ceil(size);
      ar.Require(size >= 1 && size <= capacity && capacity <= 4 * size &&
                     std::has_single_bit(capacity) &&
                     capacity <= (std::uint64_t{1} << 31),
                 "watch list capacity is not a power of two in [1, 4] "
                 "times its size");
      if (!ar.ok()) return;
      self.Reallocate(list, static_cast<std::uint32_t>(capacity));
      for (std::uint64_t i = 0; i < size && ar.ok(); ++i) {
        elem(ar, list.data[list.size++]);
      }
    } else {
      for (std::uint64_t i = 0; i < size; ++i) elem(ar, list.data[i]);
    }
  }

  obs::AccountedAllocator<V> alloc_;
  obs::AccountedVector<K> keys_;
  obs::AccountedVector<std::uint32_t> heads_;  // per position: its header
  obs::AccountedVector<List> lists_;
  std::size_t mask_ = 0;
  int shift_ = 0;
  std::uint32_t free_ = 0;      // the first free header
  std::size_t count_ = 0;       // keys in the table
  std::size_t list_bytes_ = 0;  // Σ list capacity × sizeof(V)
};

/// An edge sample (a bottom-k sampler keyed by EdgeKey, payload `State`)
/// with each member listed under both endpoints by its sampler slot.
/// `State` has VertexId fields `lo` and `hi`, which this fills from the
/// key; an estimator that marks ends (MarkEnds, EndList) also gives it a
/// std::uint32_t `ends` word. Every listed slot holds a member, so a lookup
/// from a vertex reads each payload at its slot, with no sampler probe. A
/// slot stays its member's until the member leaves, so owners may keep it
/// (At, Holds).
template <typename State>
class SampledEdges {
 public:
  /// A slot naming no sampled edge.
  static constexpr std::uint32_t kNoSlot =
      sampling::BottomKSampler<State>::kNoSlot;

  /// A sample of `capacity` edges under `hash_seed`; the sampler and the
  /// lists charge `domain`.
  SampledEdges(std::size_t capacity, std::uint64_t hash_seed,
               obs::MemoryDomain* domain)
      : sample_(capacity, hash_seed, domain), lists_(domain) {}

  /// Offers edge `key` with `state`, whose `lo`/`hi` this fills, and lists
  /// an admitted edge under both ends. An edge the offer evicts is unlisted
  /// before `on_evict(key, state&&)` sees it. When `slot` is non-null and
  /// the edge is sampled afterwards, `*slot` is its slot.
  template <typename EvictFn>
  sampling::OfferResult Offer(EdgeKey key, State state, EvictFn&& on_evict,
                              std::uint32_t* slot = nullptr) {
    state.lo = EdgeKeyLo(key);
    state.hi = EdgeKeyHi(key);
    std::uint32_t at = kNoSlot;
    const sampling::OfferResult result = sample_.Offer(
        key, Member{std::move(state), {0, 0}},
        [&](EdgeKey evicted_key, Member&& evicted) {
          Evict(evicted_key, std::move(evicted), on_evict);
        },
        &at);
    if (result == sampling::OfferResult::kInserted) {
      Member& member = sample_.At(at);
      member.pos[0] = lists_.Add(member.state.lo, at);
      member.pos[1] = lists_.Add(member.state.hi, at);
    }
    if (slot != nullptr) *slot = at;
    return result;
  }

  /// The payload of member `key`, or nullptr. Valid until the edge leaves.
  State* Find(EdgeKey key) {
    Member* member = sample_.Find(key);
    return member == nullptr ? nullptr : &member->state;
  }

  /// The slot of member `key`, or kNoSlot.
  std::uint32_t SlotOf(EdgeKey key) const { return sample_.SlotOf(key); }

  /// The payload at `slot`, which must hold a sampled edge.
  State& At(std::uint32_t slot) { return sample_.At(slot).state; }

  /// Whether `slot`, one this sample gave out, still holds edge `key`.
  bool Holds(std::uint32_t slot, EdgeKey key) const {
    return sample_.Holds(slot, key);
  }

  /// Number of sampled edges with endpoint `v`.
  std::size_t CountAt(VertexId v) const { return lists_.Find(v).size(); }

  /// Calls fn(slot, key, state&) for each sampled edge with endpoint `v`.
  /// `fn` must not offer edges.
  template <typename Fn>
  void ForEachAt(VertexId v, Fn&& fn) {
    for (std::uint32_t slot : lists_.Find(v)) {
      State& state = sample_.At(slot).state;
      fn(slot, KeyOf(state), state);
    }
  }

  /// Marks end `v` of each sampled edge with endpoint `v`, and calls
  /// fn(key, state&) for each edge the open list thereby completes.
  template <typename Fn>
  void MarkEnds(VertexId v, Fn&& fn) {
    ForEachAt(v, [&](std::uint32_t, EdgeKey key, State& state) {
      if (marks_.Mark(state.ends, state.lo == v ? 0 : 1)) fn(key, state);
    });
  }

  /// Closes the open list for MarkEnds; when the stamp wraps, zeroes every
  /// member's `ends` word.
  void EndList() {
    if (marks_.EndList()) {
      sample_.ForEach([](EdgeKey, Member& member) { member.state.ends = 0; });
    }
  }

  /// Calls fn(key, state) for every sampled edge, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    sample_.ForEach(
        [&](EdgeKey key, const Member& member) { fn(key, member.state); });
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
  /// payload through `value(ar, state)`, and its heap, then the lists, each
  /// entry stored as its edge's key. On load `make(key)` builds each
  /// payload (a default State when omitted) before its `lo`/`hi` are
  /// filled; a listed key that is not a member, and lists that do not hold
  /// exactly each member under both endpoints, are kDataLoss: a lookup from
  /// a vertex would reach a missing member, or mark a vertex that is not
  /// the edge's end. Each member's positions in its two lists are then
  /// read off the lists.
  static void Fields(auto& self, auto& ar, auto&& make, auto&& value) {
    sampling::BottomKSampler<Member>::Fields(
        self.sample_, ar,
        [&](auto key) {
          Member member{make(key), {0, 0}};
          member.state.lo = EdgeKeyLo(key);
          member.state.hi = EdgeKeyHi(key);
          return member;
        },
        [&](auto& ar, auto& member) { value(ar, member.state); });
    WatchIndex<VertexId, std::uint32_t>::Fields(
        self.lists_, ar, sizeof(EdgeKey), [&](auto& ar, auto& slot) {
          if constexpr (ar.kLoading) {
            EdgeKey key = 0;
            ar.U64(key);
            slot = self.sample_.SlotOf(key);
            ar.Require(slot != kNoSlot, "edge list names an unsampled edge");
          } else {
            ar.U64(KeyOf(self.sample_.At(slot).state));
          }
        });
    if constexpr (ar.kLoading) {
      if (!ar.ok()) return;
      std::vector<std::pair<VertexId, std::uint32_t>> listed, members;
      self.lists_.ForEachList(
          [&](VertexId v, std::span<const std::uint32_t> slots) {
            for (std::uint32_t slot : slots) listed.push_back({v, slot});
          });
      self.sample_.ForEach([&](EdgeKey key, const Member&) {
        const std::uint32_t slot = self.sample_.SlotOf(key);
        members.push_back({EdgeKeyLo(key), slot});
        members.push_back({EdgeKeyHi(key), slot});
      });
      std::ranges::sort(listed);
      std::ranges::sort(members);
      ar.Require(listed == members,
                 "edge lists do not hold each sampled edge at both ends");
      if (!ar.ok()) return;
      self.lists_.ForEachList(
          [&](VertexId v, std::span<const std::uint32_t> slots) {
            for (std::uint32_t pos = 0; pos < slots.size(); ++pos) {
              Member& member = self.sample_.At(slots[pos]);
              member.pos[member.state.lo == v ? 0 : 1] = pos;
            }
          });
    }
  }
  static void Fields(auto& self, auto& ar, auto&& value) {
    Fields(self, ar, [](EdgeKey) { return State{}; }, value);
  }

 private:
  // A sampled edge: its payload, and its positions in its lo's and hi's
  // lists.
  struct Member {
    State state;
    std::uint32_t pos[2];
  };

  // A sampled edge's key, read off its payload: MakeEdgeKey without its
  // check, since lo < hi.
  static EdgeKey KeyOf(const State& state) {
    return (EdgeKey{state.lo} << 32) | state.hi;
  }

  // Unlists an evicted edge in O(1): at each end, the list's last entry
  // moves into its position, as a swap-remove would, and the moved member
  // records its new position. Out of line: evictions are rare next to the
  // lookups of the pair loop that offers.
  template <typename EvictFn>
  [[gnu::noinline]] void Evict(EdgeKey key, Member&& evicted,
                               EvictFn& on_evict) {
    for (int end = 0; end < 2; ++end) {
      const VertexId v = end == 0 ? evicted.state.lo : evicted.state.hi;
      lists_.RemoveAt(v, evicted.pos[end], [&](std::uint32_t moved) {
        Member& member = sample_.At(moved);
        member.pos[member.state.lo == v ? 0 : 1] = evicted.pos[end];
      });
    }
    on_evict(key, std::move(evicted.state));
  }

  sampling::BottomKSampler<Member> sample_;
  WatchIndex<VertexId, std::uint32_t> lists_;
  ListMarks marks_;
};

}  // namespace core
}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_WATCH_INDEX_H_
