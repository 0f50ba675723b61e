// Ground-truth space accounting: a counting allocator threaded through the
// containers of every estimator.
//
// Each algorithm owns one `MemoryDomain` and binds its containers to it via
// `AccountedAllocator<T>`; for the estimators the owner is their
// `stream::PairDispatch` base (stream/algorithm.h), which is constructed
// before and destroyed after every container they hold. The domain then
// measures the *actual* live heap bytes requested by those containers,
// independently of the hand-computed `CurrentSpaceBytes()` estimates. The
// driver samples both at every list boundary, so a bookkeeping bug in a self-report shows up as divergence
// instead of silently falsifying Table 1 curves.
//
// The accounting is always on: allocators never change container behaviour,
// iteration order, or growth policy, so estimates stay bit-identical whether
// or not anyone reads the domain. A domain is deliberately not thread-safe —
// every trial owns its algorithm (and therefore its domain) on one thread.
//
// Audit slack policy: the two measurements cannot agree exactly. The audited
// number includes hash-table bucket arrays, node headers, and geometric
// vector growth; the self-reports use per-entry overhead constants and
// ignore pre-reserved buckets. `BottomKSampler` is the exception: it reports
// its member table's one allocation, sized by its capacity, as it is made.
// The contract checked by tests and `bench_report.py validate` is two-sided:
//
//   audited  <= kAuditSlackMultiplier * reported + AuditSlackBytes(slots)
//   reported <= kAuditSlackMultiplier * audited  + AuditSlackBytes(slots)
//
// where `slots` is the estimator's configured sample/reservoir capacity. The
// additive term covers pre-reserved buckets (~64 B per slot is generous for
// an 8-byte bucket pointer plus a heap entry) and a fixed floor for minimum
// bucket counts and initial vector capacities.

#ifndef CYCLESTREAM_OBS_ACCOUNTING_H_
#define CYCLESTREAM_OBS_ACCOUNTING_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace cyclestream {
namespace obs {

/// Byte counter shared by every container of one algorithm instance.
/// Counts exact requested bytes (n * sizeof(T)), not malloc-rounded sizes.
class MemoryDomain {
 public:
  void OnAlloc(std::size_t bytes) { live_bytes_ += bytes; }
  void OnFree(std::size_t bytes) { live_bytes_ -= bytes; }

  std::size_t live_bytes() const { return live_bytes_; }

 private:
  std::size_t live_bytes_ = 0;
};

/// Stateful allocator charging a MemoryDomain. A null domain makes it a
/// plain std::allocator. Propagates on copy/move/swap so containers never
/// mix bytes across domains; equality is domain identity.
template <typename T>
class AccountedAllocator {
 public:
  using value_type = T;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using propagate_on_container_copy_assignment = std::true_type;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  AccountedAllocator() noexcept = default;
  explicit AccountedAllocator(MemoryDomain* domain) noexcept
      : domain_(domain) {}
  template <typename U>
  AccountedAllocator(const AccountedAllocator<U>& other) noexcept
      : domain_(other.domain()) {}

  T* allocate(std::size_t n) {
    T* p = std::allocator<T>().allocate(n);
    if (domain_ != nullptr) domain_->OnAlloc(n * sizeof(T));
    return p;
  }

  void deallocate(T* p, std::size_t n) noexcept {
    std::allocator<T>().deallocate(p, n);
    if (domain_ != nullptr) domain_->OnFree(n * sizeof(T));
  }

  MemoryDomain* domain() const noexcept { return domain_; }

 private:
  MemoryDomain* domain_ = nullptr;
};

template <typename T, typename U>
bool operator==(const AccountedAllocator<T>& a,
                const AccountedAllocator<U>& b) noexcept {
  return a.domain() == b.domain();
}

template <typename T, typename U>
bool operator!=(const AccountedAllocator<T>& a,
                const AccountedAllocator<U>& b) noexcept {
  return a.domain() != b.domain();
}

/// Container aliases bound to an AccountedAllocator. Construct with an
/// explicit allocator (e.g. `AccountedVector<int>(Alloc(&domain))`); a
/// default-constructed instance is unaccounted.
template <typename T>
using AccountedVector = std::vector<T, AccountedAllocator<T>>;

template <typename K, typename V, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
using AccountedUnorderedMap =
    std::unordered_map<K, V, Hash, Eq,
                       AccountedAllocator<std::pair<const K, V>>>;

template <typename K, typename Hash = std::hash<K>,
          typename Eq = std::equal_to<K>>
using AccountedUnorderedSet =
    std::unordered_set<K, Hash, Eq, AccountedAllocator<K>>;

/// Audit slack (see file comment). `configured_slots` is the estimator's
/// sample/reservoir capacity; pass 0 when there is none.
inline constexpr double kAuditSlackMultiplier = 4.0;

inline std::size_t AuditSlackBytes(std::size_t configured_slots) {
  return (std::size_t{1} << 16) + 64 * configured_slots;
}

/// Two-sided audit check: each measurement must bound the other within the
/// documented multiplier-plus-additive slack.
inline bool WithinAuditSlack(std::size_t reported_bytes,
                             std::size_t audited_bytes,
                             std::size_t configured_slots) {
  const std::size_t add = AuditSlackBytes(configured_slots);
  const auto bound = [add](std::size_t x) {
    return static_cast<std::size_t>(kAuditSlackMultiplier *
                                    static_cast<double>(x)) +
           add;
  };
  return audited_bytes <= bound(reported_bytes) &&
         reported_bytes <= bound(audited_bytes);
}

}  // namespace obs
}  // namespace cyclestream

#endif  // CYCLESTREAM_OBS_ACCOUNTING_H_
