// Multi-producer single-consumer mailbox: the per-shard ingestion queue of
// the estimator service.
//
// A mutex around two reusable buffers: the pending ops, in push order, and
// an arena of list elements the ops point into. Producers (client threads
// calling EstimatorService::Append / Query / ...) append under the lock; a
// list is copied once, straight into the arena, and its op records where it
// landed. The single consumer (the shard's drain task on the worker pool)
// swaps both buffers out with TakeAll into buffers it owns and reuses
// across drains, so a steady stream of ops allocates nothing once the
// buffers have grown to the working batch size.
//
// The "drain scheduled" bit lives under the same lock. Push sets it and
// reports whether it was clear, so exactly one producer per idle period is
// told to submit a drain; TakeAll clears it only when it finds nothing
// pending. A push and the empty check that releases the shard are ordered
// by the lock, so a push either lands before the check (and the consumer
// takes it) or after it (and sees the bit clear, and submits a drain): an
// op can never be left in a mailbox that no drain will visit.
//
// The mailbox is unbounded; backpressure is the callers' concern (the
// service exposes Flush() as a drain barrier). Ordering guarantee, and the
// only one the service's determinism contract needs: two pushes from the
// SAME producer thread are consumed in push order. Pushes from different
// producers race, and their relative order is scheduling-dependent — which
// is why the service keys per-stream state to exactly one shard and lets
// callers own the per-stream submission order.

#ifndef CYCLESTREAM_SERVICE_MAILBOX_H_
#define CYCLESTREAM_SERVICE_MAILBOX_H_

#include <cstddef>
#include <mutex>
#include <span>
#include <vector>

namespace cyclestream {
namespace service {

/// `T` is the op type. It must have `std::size_t list_begin, list_size`
/// members, which Push sets to the op's slice of the arena. `V` is the
/// arena's element type.
template <typename T, typename V>
class Mailbox {
 public:
  Mailbox() = default;

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Appends `op`, copying `list` into the arena. Returns true when the
  /// shard was idle: the caller now owns submitting its drain task. False
  /// while a drain owns the shard (that drain will take this op).
  bool Push(T op, std::span<const V> list = {}) {
    std::lock_guard<std::mutex> lock(mu_);
    op.list_begin = arena_.size();
    op.list_size = list.size();
    arena_.insert(arena_.end(), list.begin(), list.end());
    ops_.push_back(std::move(op));
    const bool was_idle = !scheduled_;
    scheduled_ = true;
    return was_idle;
  }

  /// Single consumer: swaps every pending op into `*ops` and the arena into
  /// `*arena`, in push order, after clearing both (their capacity comes
  /// back as the producers' next buffers). With nothing pending it clears
  /// the scheduled bit, releasing the shard, and returns false.
  bool TakeAll(std::vector<T>* ops, std::vector<V>* arena) {
    ops->clear();  // outside the lock: the last batch's ops die here
    arena->clear();
    std::lock_guard<std::mutex> lock(mu_);
    if (ops_.empty()) {
      scheduled_ = false;
      return false;
    }
    ops_.swap(*ops);
    arena_.swap(*arena);
    return true;
  }

 private:
  std::mutex mu_;
  std::vector<T> ops_;      // guarded by mu_
  std::vector<V> arena_;    // guarded by mu_
  bool scheduled_ = false;  // guarded by mu_
};

}  // namespace service
}  // namespace cyclestream

#endif  // CYCLESTREAM_SERVICE_MAILBOX_H_
