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

#ifndef CYCLESTREAM_SAMPLING_BOTTOM_K_H_
#define CYCLESTREAM_SAMPLING_BOTTOM_K_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
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
  /// `capacity` is k (must be positive); `hash_seed` fixes the priority
  /// function, and therefore the sample, for a given key sequence. When
  /// `domain` is non-null the map and heap charge their heap bytes to it
  /// (accounting never changes sampling behaviour or iteration order).
  BottomKSampler(std::size_t capacity, std::uint64_t hash_seed,
                 obs::MemoryDomain* domain = nullptr)
      : capacity_(capacity),
        hash_(hash_seed),
        domain_(domain),
        members_(0, std::hash<std::uint64_t>(), std::equal_to<std::uint64_t>(),
                 MapAlloc(domain)),
        heap_(HeapAlloc(domain)) {
    CYCLESTREAM_CHECK_GT(capacity, 0u);
    members_.reserve(capacity + 1);
  }

  /// Priority of a key under this sampler's hash; stable across offers.
  std::uint64_t PriorityOf(std::uint64_t key) const { return hash_.Hash(key); }

  /// Offers `key`; on admission stores `payload`. `on_evict(key, payload&&)`
  /// is invoked for any member displaced to keep the size at capacity.
  template <typename EvictFn>
  OfferResult Offer(std::uint64_t key, Payload payload, EvictFn&& on_evict) {
    if (members_.contains(key)) return OfferResult::kAlreadyPresent;
    const std::uint64_t priority = PriorityOf(key);
    if (members_.size() >= capacity_ && priority >= MaxLivePriority()) {
      return OfferResult::kRejected;
    }
    members_.emplace(key, std::move(payload));
    HeapPush({priority, key});
    while (members_.size() > capacity_) {
      auto [top_priority, top_key] = heap_.front();
      HeapPop();
      auto it = members_.find(top_key);
      if (it == members_.end()) continue;  // stale entry from Erase()
      Payload evicted = std::move(it->second);
      members_.erase(it);
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
    bool erased = members_.erase(key) > 0;
    if (erased) MaybeCompact();
    return erased;
  }

  bool Contains(std::uint64_t key) const { return members_.contains(key); }

  /// Pointer to the payload of `key`, or nullptr if absent. Stable until the
  /// next Offer/Erase.
  Payload* Find(std::uint64_t key) {
    auto it = members_.find(key);
    return it == members_.end() ? nullptr : &it->second;
  }

  const Payload* Find(std::uint64_t key) const {
    auto it = members_.find(key);
    return it == members_.end() ? nullptr : &it->second;
  }

  /// Iterates members as fn(key, payload&). Order is unspecified.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (auto& [key, payload] : members_) fn(key, payload);
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [key, payload] : members_) fn(key, payload);
  }

  std::size_t size() const { return members_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Approximate live footprint in bytes (hash map + heap).
  std::size_t MemoryBytes() const {
    constexpr std::size_t kMapOverheadPerEntry = 16;  // node/bucket overhead
    return members_.size() *
               (sizeof(std::uint64_t) + sizeof(Payload) +
                kMapOverheadPerEntry) +
           heap_.size() * sizeof(HeapEntry);
  }

  /// Checkpoint layout (snapshot/codec.h): the members in ascending key
  /// order, each payload through `value(ar, payload)`, then the internal
  /// max-heap verbatim: its size, capacity and entry keys in array order.
  /// On load `make(key)` builds each payload before `value` fills it in;
  /// members are installed directly (no Offer), so no eviction can fire
  /// mid-restore. Replaying the heap exactly (stale entries from Erase()
  /// included) is what makes a restored sampler's admissions, evictions,
  /// compactions, and MemoryBytes() trajectory bit-identical to the
  /// original's; priorities are recomputed from the hash seed, never
  /// stored. The restoring sampler must be fresh, with the same capacity
  /// and hash seed.
  static void Fields(auto& self, auto& ar, auto&& make, auto&& value) {
    ar.Map(
        self.members_,
        [&](auto key) -> auto& {
          return self.members_.emplace(key, make(key)).first->second;
        },
        value);
    // Serialized in array order from a valid heap, so it is one already;
    // no make_heap (which could permute equal-length layouts differently).
    ar.Vec(self.heap_, [&](auto& ar, auto& entry) {
      ar.U64(entry.second);
      if constexpr (ar.kLoading) entry.first = self.PriorityOf(entry.second);
    });
  }

 private:
  using HeapEntry = std::pair<std::uint64_t, std::uint64_t>;  // priority, key

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
    while (!heap_.empty() && !members_.contains(heap_.front().second)) {
      HeapPop();
    }
    CYCLESTREAM_CHECK(!heap_.empty());
    return heap_.front().first;
  }

  void MaybeCompact() {
    if (heap_.size() <= 2 * capacity_ + 16 ||
        heap_.size() <= 2 * members_.size()) {
      return;
    }
    HeapVec live{HeapAlloc(domain_)};
    live.reserve(members_.size());
    for (const auto& [key, payload] : members_) {
      live.push_back({PriorityOf(key), key});
    }
    // Canonical order before heapify: the compacted layout must be a pure
    // function of the member set, not of hash-map iteration order, so that
    // a snapshot-restored sampler (whose map layout differs) compacts to
    // the exact same array — and therefore the same snapshot bytes.
    std::sort(live.begin(), live.end());
    heap_ = std::move(live);
    std::make_heap(heap_.begin(), heap_.end());
  }

  using MapAlloc =
      obs::AccountedAllocator<std::pair<const std::uint64_t, Payload>>;
  using Map = std::unordered_map<std::uint64_t, Payload,
                                 std::hash<std::uint64_t>,
                                 std::equal_to<std::uint64_t>, MapAlloc>;
  using HeapAlloc = obs::AccountedAllocator<HeapEntry>;
  using HeapVec = std::vector<HeapEntry, HeapAlloc>;

  std::size_t capacity_;
  SeededHash hash_;
  obs::MemoryDomain* domain_;
  Map members_;
  HeapVec heap_;
};

}  // namespace sampling
}  // namespace cyclestream

#endif  // CYCLESTREAM_SAMPLING_BOTTOM_K_H_
