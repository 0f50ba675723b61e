#include "core/wedge_sampling_triangle.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "snapshot/codec.h"
#include "util/check.h"

namespace cyclestream {
namespace core {

WedgeSamplingTriangleCounter::WedgeSamplingTriangleCounter(
    const WedgeSamplingOptions& options)
    : options_(options),
      rng_(Mix64(options.seed) ^ 0x9999999999999999ULL),
      reservoir_(decltype(reservoir_)::allocator_type(&space_domain_)),
      closure_watch_(&space_domain_),
      current_list_(decltype(current_list_)::allocator_type(&space_domain_)) {
  CYCLESTREAM_CHECK_GE(options.reservoir_size, 1u);
  reservoir_.reserve(options.reservoir_size);
}

namespace {

// W kept strictly inside (0, 1), where a restore expects it. exp rounds
// U^{1/k} to 1 when -log U < k·2^-54, a chance of about k·2^-54, and a
// product could underflow to 0 only after some 700·k admissions. The clamp
// moves W by 2^-53 at the top and to the least positive double at the
// bottom, where every gap saturates anyway.
double InsideUnitInterval(double w) {
  return std::clamp(w, std::numeric_limits<double>::denorm_min(),
                    1.0 - 0x1p-53);
}

}  // namespace

void WedgeSamplingTriangleCounter::BeginList(VertexId u) {
  current_center_ = u;
  current_list_.clear();
}

void WedgeSamplingTriangleCounter::HandlePair(VertexId u, VertexId v) {
  // Closure check first: the arriving pair {u, v} closes watched wedges
  // with endpoint set {u, v}. (A wedge sampled in this same list has its
  // closing edge at the endpoints' own later lists, never here, since
  // endpoints differ from the center.)
  for (std::uint32_t slot : closure_watch_.Find(MakeEdgeKey(u, v))) {
    reservoir_[slot].closed = true;
  }

  // New wedges between v and every earlier entry of the current list, in
  // list order: wedges first, ..., wedge_count_. They are counted, and only
  // those the skip state admits are built.
  const std::uint64_t first = wedge_count_ + 1;
  wedge_count_ += current_list_.size();
  while (next_ <= wedge_count_) {
    Admit(MakeWedge(current_center_, current_list_[next_ - first], v));
  }
  current_list_.push_back(v);
}

void WedgeSamplingTriangleCounter::Admit(const Wedge& w) {
  const std::size_t k = options_.reservoir_size;
  if (reservoir_.size() < k) {
    reservoir_.push_back(Slot{w, false});
    closure_watch_.Add(WedgeEndpointsKey(w),
                       static_cast<std::uint32_t>(reservoir_.size() - 1));
    if (reservoir_.size() < k) {
      ++next_;
      return;
    }
  } else {
    const auto slot = static_cast<std::uint32_t>(rng_.NextBounded(k));
    closure_watch_.Remove(WedgeEndpointsKey(reservoir_[slot].wedge), slot);
    reservoir_[slot] = Slot{w, false};
    closure_watch_.Add(WedgeEndpointsKey(w), slot);
  }
  // The k keys now in the reservoir are uniform below W, so the largest is
  // W·U^{1/k} (while filling W was 1: the largest of k uniforms).
  threshold_ = InsideUnitInterval(
      threshold_ *
      std::exp(std::log(rng_.NextOpenDouble()) / static_cast<double>(k)));
  DrawNext(next_);
}

void WedgeSamplingTriangleCounter::DrawNext(std::uint64_t index) {
  // Each later wedge's key falls below W with probability W, so the wedges
  // skipped are geometric. A gap past 2^64 (W near 0) saturates, as does
  // the sum; NaN cannot arise with W inside (0, 1), and would saturate too.
  constexpr std::uint64_t kLast = std::numeric_limits<std::uint64_t>::max();
  const double gap = std::floor(std::log(rng_.NextOpenDouble()) /
                                std::log1p(-threshold_));
  const std::uint64_t skip =
      gap < 0x1p64 ? static_cast<std::uint64_t>(gap) : kLast;
  next_ = skip < kLast - index ? index + skip + 1 : kLast;
}

void WedgeSamplingTriangleCounter::DrawSkipState() {
  const std::size_t k = options_.reservoir_size;
  if (reservoir_.size() < k) {
    threshold_ = 1.0;
    next_ = wedge_count_ + 1;
    return;
  }
  // Given N offered wedges, W is the k-th smallest of N uniform keys,
  // whichever wedges the reservoir holds. Build it from the bottom: 1 minus
  // the smallest is U^{1/N}, and each next gap above it scales what is left
  // by U^{1/(N-j)}. So W = 1 - exp(Σ_{j<k} log U_j / (N - j)), k draws,
  // then the next admission as in the stream.
  double log_rest = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    log_rest += std::log(rng_.NextOpenDouble()) /
                static_cast<double>(wedge_count_ - j);
  }
  threshold_ = InsideUnitInterval(-std::expm1(log_rest));
  DrawNext(wedge_count_);
}

// Version 4 added the skip state (W through its bits, then next_) after
// the wedge count. An older checkpoint draws it from its exact law with
// the restored generator, so it resumes with the same law but not the
// same draws as the run that wrote it. The checks on load keep a resealed
// state from reaching a gap computed from a W outside (0, 1).
void WedgeSamplingTriangleCounter::Fields(auto& self, auto& ar) {
  ar.Option(self.options_.reservoir_size, "reservoir_size");
  ar.Option(self.options_.seed, "seed");
  ar.Rng(self.rng_);
  ar.U64(self.wedge_count_);
  std::uint64_t threshold_bits = std::bit_cast<std::uint64_t>(self.threshold_);
  if (ar.version() >= 4) {
    ar.U64(threshold_bits);
    ar.U64(self.next_);
  }
  ar.Vec(self.reservoir_, [](auto& ar, auto& slot) {
    ar.U32(slot.wedge.center);
    ar.U32(slot.wedge.end_lo);
    ar.U32(slot.wedge.end_hi);
    ar.Bool(slot.closed);
  });
  WatchIndex<EdgeKey, std::uint32_t>::Fields(self.closure_watch_, ar);
  // current_list_'s contents are never read after a list boundary (BeginList
  // clears before any use); only its capacity is space-visible state.
  // current_center_ likewise is overwritten by the next BeginList.
  ar.Capacity(self.current_list_);
  if constexpr (ar.kLoading) {
    const std::uint64_t k = self.options_.reservoir_size;
    ar.Require(self.reservoir_.size() == std::min(self.wedge_count_, k),
               "wedge reservoir size does not match its wedge count");
    const auto in_reservoir = [&](std::uint32_t slot) {
      return slot < self.reservoir_.size();
    };
    ar.Require(self.closure_watch_.AllOf(in_reservoir),
               "closure watch names a slot outside the reservoir");
    if (ar.version() < 4) {
      if (ar.ok()) self.DrawSkipState();
    } else if (self.reservoir_.size() < k) {
      ar.Require(threshold_bits == std::bit_cast<std::uint64_t>(1.0) &&
                     self.next_ == self.wedge_count_ + 1,
                 "wedge skip state set while the reservoir fills");
    } else {
      self.threshold_ = std::bit_cast<double>(threshold_bits);
      ar.Require(self.threshold_ > 0.0 && self.threshold_ < 1.0,
                 "wedge reservoir threshold outside (0, 1)");
      ar.Require(self.next_ > self.wedge_count_,
                 "next admitted wedge not above the wedge count");
    }
  }
}

void WedgeSamplingTriangleCounter::Serialize(snapshot::SnapshotWriter& w) const {
  snapshot::Saver ar(w);
  Fields(*this, ar);
}

Status WedgeSamplingTriangleCounter::Restore(snapshot::SnapshotReader& r) {
  snapshot::Loader ar(r);
  Fields(*this, ar);
  return ar.status();
}

std::size_t WedgeSamplingTriangleCounter::CurrentSpaceBytes() const {
  return reservoir_.capacity() * sizeof(Slot) + closure_watch_.MemoryBytes() +
         current_list_.capacity() * sizeof(VertexId);
}

WedgeSamplingResult WedgeSamplingTriangleCounter::result() const {
  WedgeSamplingResult res;
  res.wedge_count = wedge_count_;
  res.sampled = reservoir_.size();
  for (const Slot& slot : reservoir_) res.closed += slot.closed;
  if (res.sampled > 0) {
    double closed_frac =
        static_cast<double>(res.closed) / static_cast<double>(res.sampled);
    res.estimate = closed_frac * static_cast<double>(wedge_count_) / 2.0;
    res.transitivity_estimate = 1.5 * closed_frac;
  }
  return res;
}

}  // namespace core
}  // namespace cyclestream
