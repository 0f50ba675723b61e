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
// Member table. Keys and payloads sit in two arrays of at most capacity + 1
// slots, reserved once, at construction. A member keeps its slot until it
// leaves: an erase or eviction puts the slot on a free list, which the next
// admission takes before it appends a slot, and writes the complement of
// the key into it, so the slot no longer holds that key. A power-of-two
// index of 32-bit slots, at load at most 1/2, finds the members: probed
// linearly from Mix64(key), erased by backward shift. The index hashes the
// key, not its priority: the members are the keys with the smallest
// priorities, whose high bits would crowd one end of the index.
//
// Owners may name members by slot (At, Holds): a slot stays valid, and its
// payload in place, until that member leaves; so does a pointer from Find.
// ForEach visits each member exactly once, in index order, which
// follows the history of offers and erases; a restored sampler holds its
// members in other slots, so no caller may depend on the order.

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
  /// A slot naming no member.
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

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
        free_(obs::AccountedAllocator<std::uint32_t>(domain)),
        index_(IndexSize(capacity), kNoSlot,
               obs::AccountedAllocator<std::uint32_t>(domain)),
        mask_(index_.size() - 1),
        heap_(HeapAlloc(domain)) {
    keys_.reserve(capacity + 1);
    payloads_.reserve(capacity + 1);
    free_.reserve(capacity + 1);
  }

  /// Priority of a key under this sampler's hash; stable across offers.
  std::uint64_t PriorityOf(std::uint64_t key) const { return hash_.Hash(key); }

  /// Offers `key`; on admission stores `payload`. `on_evict(key, payload&&)`
  /// is invoked for any member displaced to keep the size at capacity. When
  /// `slot` is non-null and the key is a member afterwards (admitted or
  /// already present), `*slot` is its slot.
  template <typename EvictFn>
  OfferResult Offer(std::uint64_t key, Payload payload, EvictFn&& on_evict,
                    std::uint32_t* slot = nullptr) {
    const std::uint64_t priority = PriorityOf(key);
    // Every member has a heap entry at or below the top, so a key above it
    // is absent, and a full sampler rejects it without a lookup. Either
    // rejection pops the stale entries off the top, so the heap, and with
    // it MemoryBytes() and the checkpoint, evolves alike on both paths.
    if (size() >= capacity_ && priority > heap_.front().first) {
      MaxLivePriority();
      return OfferResult::kRejected;
    }
    const std::size_t at = IndexOf(key);
    if (index_[at] != kNoSlot) {
      if (slot != nullptr) *slot = index_[at];
      return OfferResult::kAlreadyPresent;
    }
    if (size() >= capacity_ && priority >= MaxLivePriority()) {
      return OfferResult::kRejected;
    }
    const std::uint32_t added = Insert(at, key, std::move(payload));
    HeapPush({priority, key});
    while (size() > capacity_) {
      const std::uint64_t top_key = heap_.front().second;
      HeapPop();
      const std::size_t top_at = IndexOf(top_key);
      if (index_[top_at] == kNoSlot) continue;  // stale entry from Erase()
      Payload evicted = EraseAt(top_at);
      on_evict(top_key, std::move(evicted));
    }
    MaybeCompact();
    if (slot != nullptr) *slot = added;
    return OfferResult::kInserted;
  }

  /// Offer without an eviction callback.
  OfferResult Offer(std::uint64_t key, Payload payload) {
    return Offer(key, std::move(payload),
                 [](std::uint64_t, Payload&&) {});
  }

  /// Removes `key` if present (no eviction callback). Returns true if erased.
  bool Erase(std::uint64_t key) {
    const std::size_t at = IndexOf(key);
    if (index_[at] == kNoSlot) return false;
    EraseAt(at);
    MaybeCompact();
    return true;
  }

  bool Contains(std::uint64_t key) const {
    return index_[IndexOf(key)] != kNoSlot;
  }

  /// The slot of member `key`, or kNoSlot if absent.
  std::uint32_t SlotOf(std::uint64_t key) const { return index_[IndexOf(key)]; }

  /// Pointer to the payload of `key`, or nullptr if absent. Valid until the
  /// member leaves.
  Payload* Find(std::uint64_t key) {
    const std::uint32_t slot = SlotOf(key);
    return slot == kNoSlot ? nullptr : &payloads_[slot].value;
  }

  const Payload* Find(std::uint64_t key) const {
    const std::uint32_t slot = SlotOf(key);
    return slot == kNoSlot ? nullptr : &payloads_[slot].value;
  }

  /// The payload of the member at `slot`, which must hold one.
  Payload& At(std::uint32_t slot) { return payloads_[slot].value; }
  const Payload& At(std::uint32_t slot) const { return payloads_[slot].value; }

  /// Whether `slot`, one this sampler gave out, still holds member `key`.
  /// False once that member has left, even before the slot is reused.
  bool Holds(std::uint32_t slot, std::uint64_t key) const {
    return keys_[slot] == key;
  }

  /// Iterates members as fn(key, payload&), each once. Order is unspecified.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (std::uint32_t slot : index_) {
      if (slot != kNoSlot) fn(std::as_const(keys_[slot]), payloads_[slot].value);
    }
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::uint32_t slot : index_) {
      if (slot != kNoSlot) fn(keys_[slot], payloads_[slot].value);
    }
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  /// Footprint in bytes: the member table's allocation, made once for
  /// capacity + 1 members, plus the heap's entries.
  std::size_t MemoryBytes() const {
    return keys_.capacity() * sizeof(std::uint64_t) +
           payloads_.capacity() * sizeof(Cell) +
           free_.capacity() * sizeof(std::uint32_t) +
           index_.size() * sizeof(std::uint32_t) +
           heap_.size() * sizeof(HeapEntry);
  }

  /// Checkpoint layout (snapshot/codec.h): the members in ascending key
  /// order, each payload through `value(ar, payload)`, then the internal
  /// max-heap verbatim: its size, capacity and entry keys in array order.
  /// On load `make(key)` builds each payload before `value` fills it in;
  /// members are installed directly (no Offer), so no eviction can fire
  /// mid-restore, and a checkpoint naming more members than the capacity
  /// is kDataLoss. Slots are not stored: a restored sampler holds its
  /// members in slots 0 to size - 1, in key order. Replaying the heap
  /// exactly (stale entries from Erase() included) is what makes a restored
  /// sampler's admissions, evictions, compactions, and MemoryBytes()
  /// trajectory bit-identical to the original's; priorities are recomputed
  /// from the hash seed, never stored. The restoring sampler must be fresh,
  /// with the same capacity and hash seed.
  static void Fields(auto& self, auto& ar, auto&& make, auto&& value) {
    ar.Table([&] { return self.SortedMembers(); },
             [&](auto key) -> Payload* {
               if (self.size() == self.capacity_) return nullptr;
               return &self.At(self.Insert(self.IndexOf(key), key, make(key)));
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
      bool lists_members = true;
      self.ForEach([&](std::uint64_t key, const Payload&) {
        lists_members = lists_members &&
                        std::binary_search(listed.begin(), listed.end(), key);
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

  // The smallest power of two at least twice the member arrays' length.
  static std::size_t IndexSize(std::size_t capacity) {
    CYCLESTREAM_CHECK_GT(capacity, 0u);
    CYCLESTREAM_CHECK_LT(capacity, std::size_t{1} << 30);
    return std::bit_ceil(2 * (capacity + 1));
  }

  // The index position holding `key`'s slot, or the empty position that
  // ends its probe.
  std::size_t IndexOf(std::uint64_t key) const {
    std::size_t at = Mix64(key) & mask_;
    while (index_[at] != kNoSlot && keys_[index_[at]] != key) {
      at = (at + 1) & mask_;
    }
    return at;
  }

  // Installs a member absent from the table in a free slot, or a new one,
  // and returns the slot; `at` is IndexOf(key).
  std::uint32_t Insert(std::size_t at, std::uint64_t key, Payload payload) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(keys_.size());
      keys_.push_back(key);
      payloads_.push_back(Cell{std::move(payload)});
    } else {
      slot = free_.back();
      free_.pop_back();
      keys_[slot] = key;
      payloads_[slot].value = std::move(payload);
    }
    index_[at] = slot;
    ++size_;
    return slot;
  }

  // Removes the member whose slot index position `at` holds, frees the slot
  // and returns its payload. The index closes the hole by backward shift:
  // each later entry of the probe cluster whose home position is not
  // cyclically after the hole moves into it.
  Payload EraseAt(std::size_t at) {
    const std::uint32_t slot = index_[at];
    std::size_t hole = at;
    for (std::size_t next = (hole + 1) & mask_; index_[next] != kNoSlot;
         next = (next + 1) & mask_) {
      const std::size_t home = Mix64(keys_[index_[next]]) & mask_;
      if (((next - home) & mask_) >= ((next - hole) & mask_)) {
        index_[hole] = index_[next];
        hole = next;
      }
    }
    index_[hole] = kNoSlot;
    keys_[slot] = ~keys_[slot];
    free_.push_back(slot);
    --size_;
    return std::move(payloads_[slot].value);
  }

  // The members as (key, payload) pairs in ascending key order.
  std::vector<std::pair<std::uint64_t, const Payload*>> SortedMembers() const {
    std::vector<std::pair<std::uint64_t, const Payload*>> sorted;
    sorted.reserve(size());
    ForEach([&](std::uint64_t key, const Payload& payload) {
      sorted.push_back({key, &payload});
    });
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

  // The heap lists every member, so one with no more entries than members
  // holds no stale entry, and its top is live without a lookup. Only
  // Erase() leaves stale entries.
  std::uint64_t MaxLivePriority() {
    if (heap_.size() != size()) {
      while (!heap_.empty() && !Contains(heap_.front().second)) HeapPop();
    }
    CYCLESTREAM_CHECK(!heap_.empty());
    return heap_.front().first;
  }

  void MaybeCompact() {
    if (heap_.size() <= 2 * capacity_ + 16 || heap_.size() <= 2 * size()) {
      return;
    }
    HeapVec live{HeapAlloc(domain_)};
    live.reserve(size());
    ForEach([&](std::uint64_t key, const Payload&) {
      live.push_back({PriorityOf(key), key});
    });
    // Canonical order before heapify: the compacted layout must be a pure
    // function of the member set, not of the slots the members sit in, so
    // that a snapshot-restored sampler (whose members sit in other slots)
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
  obs::AccountedVector<std::uint32_t> free_;  // slots of departed members
  obs::AccountedVector<std::uint32_t> index_;
  std::size_t mask_;
  std::size_t size_ = 0;  // members
  HeapVec heap_;
};

}  // namespace sampling
}  // namespace cyclestream

#endif  // CYCLESTREAM_SAMPLING_BOTTOM_K_H_
