// Fixed-size uniform sampling via hash priorities ("bottom-k sampling").
//
// This is the "hash-based sampling method" the paper relies on (Section 2.1):
// each item's priority is a fixed seeded hash of its key, and the sample is
// the set of items with the k smallest priorities seen so far. Two properties
// make it the right primitive for adjacency-list algorithms:
//
//   1. The final sample is a uniform random size-k subset of the distinct
//      keys offered (priorities are i.i.d.-like and fixed per key).
//   2. The admission threshold (k-th smallest priority) only decreases over
//      time, so any member of the *final* sample was admitted the first time
//      it was offered. The two-pass triangle algorithm needs exactly this:
//      a sampled edge starts collecting triangles at its first appearance.
//
// The sampler supports eviction callbacks (so owners can tear down per-item
// side state such as watcher lists) and explicit erasure (the triangle
// algorithm removes candidate (edge, triangle) pairs when the edge leaves the
// edge sample). The internal heap is compacted whenever stale entries would
// exceed a constant factor of the capacity, keeping live memory O(k).
//
// Member table. Keys and payloads sit in two dense arrays of at most
// capacity + 1 entries; an erase moves the last entry into the hole. A
// power-of-two index of 32-bit array positions, at load at most 1/2, finds
// them: probed linearly from Mix64(key), erased by backward shift. All three
// arrays are allocated once, at construction, for capacity + 1 members, so
// nothing grows or rehashes afterwards. The index hashes the key, not its
// priority: the members are the keys with the smallest priorities, whose
// high bits would crowd one end of the index.
//
// A pointer from Find is valid until the next Offer or Erase, either of
// which may move a payload. ForEach visits each member exactly once, in
// array order, which follows the history of offers and erases; a restored
// sampler holds its members in ascending key order, so no caller may depend
// on the order.

#ifndef CYCLESTREAM_SAMPLING_BOTTOM_K_H_
#define CYCLESTREAM_SAMPLING_BOTTOM_K_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "obs/accounting.h"
#include "util/check.h"
#include "util/hashing.h"

namespace cyclestream {
namespace sampling {

/// Outcome of offering a key to the sampler.
enum class OfferResult {
  kRejected,        // priority above threshold; not admitted
  kInserted,        // admitted (possibly evicting the current maximum)
  kAlreadyPresent,  // key already in the sample; offer is a no-op
};

/// Bottom-k sampler keyed by 64-bit keys with per-key payloads.
template <typename Payload>
class BottomKSampler {
 public:
  /// `capacity` is k (positive, below 2^30); `hash_seed` fixes the priority
  /// function, and therefore the sample, for a given key sequence. When
  /// `domain` is non-null the table and heap charge their heap bytes to it
  /// (accounting never changes sampling behaviour or iteration order).
  BottomKSampler(std::size_t capacity, std::uint64_t hash_seed,
                 obs::MemoryDomain* domain = nullptr)
      : capacity_(capacity),
        hash_(hash_seed),
        domain_(domain),
        keys_(obs::AccountedAllocator<std::uint64_t>(domain)),
        payloads_(obs::AccountedAllocator<Cell>(domain)),
        index_(IndexSize(capacity), kEmpty,
               obs::AccountedAllocator<std::uint32_t>(domain)),
        mask_(index_.size() - 1),
        heap_(HeapAlloc(domain)) {
    keys_.reserve(capacity + 1);
    payloads_.reserve(capacity + 1);
  }

  /// Priority of a key under this sampler's hash; stable across offers.
  std::uint64_t PriorityOf(std::uint64_t key) const { return hash_.Hash(key); }

  /// Offers `key`; on admission stores `payload`. `on_evict(key, payload&&)`
  /// is invoked for any member displaced to keep the size at capacity.
  template <typename EvictFn>
  OfferResult Offer(std::uint64_t key, Payload payload, EvictFn&& on_evict) {
    const std::uint64_t priority = PriorityOf(key);
    // Every member has a heap entry at or below the top, so a key above it
    // is absent, and a full sampler rejects it without a lookup. Either
    // rejection pops the stale entries off the top, so the heap, and with
    // it MemoryBytes() and the checkpoint, evolves alike on both paths.
    if (size() >= capacity_ && priority > heap_.front().first) {
      MaxLivePriority();
      return OfferResult::kRejected;
    }
    const std::size_t slot = SlotOf(key);
    if (index_[slot] != kEmpty) return OfferResult::kAlreadyPresent;
    if (size() >= capacity_ && priority >= MaxLivePriority()) {
      return OfferResult::kRejected;
    }
    Insert(slot, key, std::move(payload));
    HeapPush({priority, key});
    while (size() > capacity_) {
      const std::uint64_t top_key = heap_.front().second;
      HeapPop();
      const std::size_t top_slot = SlotOf(top_key);
      if (index_[top_slot] == kEmpty) continue;  // stale entry from Erase()
      Payload evicted = EraseAt(top_slot);
      on_evict(top_key, std::move(evicted));
    }
    MaybeCompact();
    return OfferResult::kInserted;
  }

  /// Offer without an eviction callback.
  OfferResult Offer(std::uint64_t key, Payload payload) {
    return Offer(key, std::move(payload),
                 [](std::uint64_t, Payload&&) {});
  }

  /// Removes `key` if present (no eviction callback). Returns true if erased.
  bool Erase(std::uint64_t key) {
    const std::size_t slot = SlotOf(key);
    if (index_[slot] == kEmpty) return false;
    EraseAt(slot);
    MaybeCompact();
    return true;
  }

  bool Contains(std::uint64_t key) const {
    return index_[SlotOf(key)] != kEmpty;
  }

  /// Pointer to the payload of `key`, or nullptr if absent. Valid until the
  /// next Offer/Erase.
  Payload* Find(std::uint64_t key) {
    const std::uint32_t at = index_[SlotOf(key)];
    return at == kEmpty ? nullptr : &payloads_[at].value;
  }

  const Payload* Find(std::uint64_t key) const {
    const std::uint32_t at = index_[SlotOf(key)];
    return at == kEmpty ? nullptr : &payloads_[at].value;
  }

  /// Iterates members as fn(key, payload&), each once. Order is unspecified.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      fn(std::as_const(keys_[i]), payloads_[i].value);
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      fn(keys_[i], payloads_[i].value);
    }
  }

  std::size_t size() const { return keys_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Footprint in bytes: the member table's allocation, made once for
  /// capacity + 1 members, plus the heap's entries.
  std::size_t MemoryBytes() const {
    return keys_.capacity() * sizeof(std::uint64_t) +
           payloads_.capacity() * sizeof(Cell) +
           index_.size() * sizeof(std::uint32_t) +
           heap_.size() * sizeof(HeapEntry);
  }

  /// Checkpoint layout (snapshot/codec.h): the members in ascending key
  /// order, each payload through `value(ar, payload)`, then the internal
  /// max-heap verbatim: its size, capacity and entry keys in array order.
  /// On load `make(key)` builds each payload before `value` fills it in;
  /// members are installed directly (no Offer), so no eviction can fire
  /// mid-restore, and a checkpoint naming more members than the capacity
  /// is kDataLoss. Replaying the heap exactly (stale entries from Erase()
  /// included) is what makes a restored sampler's admissions, evictions,
  /// compactions, and MemoryBytes() trajectory bit-identical to the
  /// original's; priorities are recomputed from the hash seed, never
  /// stored. The restoring sampler must be fresh, with the same capacity
  /// and hash seed.
  static void Fields(auto& self, auto& ar, auto&& make, auto&& value) {
    ar.Table([&] { return self.SortedMembers(); },
             [&](auto key) -> Payload* {
               if (self.size() == self.capacity_) return nullptr;
               return &self.Insert(self.SlotOf(key), key, make(key));
             },
             value);
    // Serialized in array order from a valid heap, so it is one already;
    // no make_heap (which could permute equal-length layouts differently).
    ar.Vec(self.heap_, [&](auto& ar, auto& entry) {
      ar.U64(entry.second);
      if constexpr (ar.kLoading) entry.first = self.PriorityOf(entry.second);
    });
    if constexpr (ar.kLoading) {
      // Offer bounds every member's priority by the heap top and evicts
      // only through the heap, so the heap must list every member.
      std::vector<std::uint64_t> listed;
      listed.reserve(self.heap_.size());
      for (const HeapEntry& entry : self.heap_) listed.push_back(entry.second);
      std::sort(listed.begin(), listed.end());
      const bool lists_members = std::all_of(
          self.keys_.begin(), self.keys_.end(), [&](std::uint64_t key) {
            return std::binary_search(listed.begin(), listed.end(), key);
          });
      ar.Require(lists_members &&
                     std::is_heap(self.heap_.begin(), self.heap_.end()),
                 "sampler heap is not a heap holding every member");
    }
  }

 private:
  using HeapEntry = std::pair<std::uint64_t, std::uint64_t>;  // priority, key
  using HeapAlloc = obs::AccountedAllocator<HeapEntry>;
  using HeapVec = std::vector<HeapEntry, HeapAlloc>;

  // A payload in its array; the wrapper keeps BottomKSampler<bool> off
  // std::vector<bool>.
  struct Cell {
    Payload value;
  };

  // An index entry naming no member.
  static constexpr std::uint32_t kEmpty =
      std::numeric_limits<std::uint32_t>::max();

  // The smallest power of two at least twice the member arrays' length.
  static std::size_t IndexSize(std::size_t capacity) {
    CYCLESTREAM_CHECK_GT(capacity, 0u);
    CYCLESTREAM_CHECK_LT(capacity, std::size_t{1} << 30);
    return std::bit_ceil(2 * (capacity + 1));
  }

  // The index slot holding `key`'s position, or the empty slot that ends
  // its probe.
  std::size_t SlotOf(std::uint64_t key) const {
    std::size_t slot = Mix64(key) & mask_;
    while (index_[slot] != kEmpty && keys_[index_[slot]] != key) {
      slot = (slot + 1) & mask_;
    }
    return slot;
  }

  // Appends a member absent from the table; `slot` is SlotOf(key).
  Payload& Insert(std::size_t slot, std::uint64_t key, Payload payload) {
    index_[slot] = static_cast<std::uint32_t>(keys_.size());
    keys_.push_back(key);
    payloads_.push_back(Cell{std::move(payload)});
    return payloads_.back().value;
  }

  // Removes the member whose position index slot `slot` holds and returns
  // its payload. The index closes the hole by backward shift: each later
  // entry of the probe cluster whose home slot is not cyclically after the
  // hole moves into it. The arrays' last entry then takes the member's
  // position.
  Payload EraseAt(std::size_t slot) {
    const std::uint32_t at = index_[slot];
    std::size_t hole = slot;
    for (std::size_t next = (hole + 1) & mask_; index_[next] != kEmpty;
         next = (next + 1) & mask_) {
      const std::size_t home = Mix64(keys_[index_[next]]) & mask_;
      if (((next - home) & mask_) >= ((next - hole) & mask_)) {
        index_[hole] = index_[next];
        hole = next;
      }
    }
    index_[hole] = kEmpty;
    Payload payload = std::move(payloads_[at].value);
    const std::size_t last = keys_.size() - 1;
    if (at != last) {
      index_[SlotOf(keys_[last])] = at;
      keys_[at] = keys_[last];
      payloads_[at] = std::move(payloads_[last]);
    }
    keys_.pop_back();
    payloads_.pop_back();
    return payload;
  }

  // The members as (key, payload) pairs in ascending key order.
  std::vector<std::pair<std::uint64_t, const Payload*>> SortedMembers() const {
    std::vector<std::pair<std::uint64_t, const Payload*>> sorted;
    sorted.reserve(size());
    for (std::size_t i = 0; i < size(); ++i) {
      sorted.push_back({keys_[i], &payloads_[i].value});
    }
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }

  // std::priority_queue semantics over an explicit vector (so Serialize can
  // copy the array verbatim): push_back + push_heap, front, pop_heap +
  // pop_back — exactly the operations priority_queue performs, so behaviour
  // and allocation trajectories are unchanged.
  void HeapPush(HeapEntry entry) {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end());
  }

  void HeapPop() {
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
  }

  std::uint64_t MaxLivePriority() {
    while (!heap_.empty() && !Contains(heap_.front().second)) HeapPop();
    CYCLESTREAM_CHECK(!heap_.empty());
    return heap_.front().first;
  }

  void MaybeCompact() {
    if (heap_.size() <= 2 * capacity_ + 16 || heap_.size() <= 2 * size()) {
      return;
    }
    HeapVec live{HeapAlloc(domain_)};
    live.reserve(size());
    for (std::uint64_t key : keys_) live.push_back({PriorityOf(key), key});
    // Canonical order before heapify: the compacted layout must be a pure
    // function of the member set, not of the member arrays' order, so that
    // a snapshot-restored sampler (whose arrays are ordered differently)
    // compacts to the exact same array — and therefore the same snapshot
    // bytes.
    std::sort(live.begin(), live.end());
    heap_ = std::move(live);
    std::make_heap(heap_.begin(), heap_.end());
  }

  std::size_t capacity_;
  SeededHash hash_;
  obs::MemoryDomain* domain_;
  obs::AccountedVector<std::uint64_t> keys_;
  obs::AccountedVector<Cell> payloads_;
  obs::AccountedVector<std::uint32_t> index_;
  std::size_t mask_;
  HeapVec heap_;
};

}  // namespace sampling
}  // namespace cyclestream

#endif  // CYCLESTREAM_SAMPLING_BOTTOM_K_H_
