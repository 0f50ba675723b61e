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

#ifndef CYCLESTREAM_CORE_WATCH_INDEX_H_
#define CYCLESTREAM_CORE_WATCH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "obs/accounting.h"

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

}  // namespace core
}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_WATCH_INDEX_H_
