#include "core/four_cycle.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "snapshot/codec.h"
#include "util/check.h"
#include "util/hashing.h"

namespace cyclestream {
namespace core {

namespace {

// Canonical key of the 4-cycle with diagonals {a, b} and {c, d}.
std::uint64_t CycleKey(EdgeKey diag1, EdgeKey diag2) {
  EdgeKey lo = std::min(diag1, diag2);
  EdgeKey hi = std::max(diag1, diag2);
  return Mix128To64(lo, hi);
}

}  // namespace

TwoPassFourCycleCounter::TwoPassFourCycleCounter(
    const FourCycleOptions& options)
    : options_(options),
      edge_sample_(std::max<std::size_t>(options.sample_size, 1),
                   Mix64(options.seed) ^ 0x5555555555555555ULL,
                   &space_domain_),
      wedges_(decltype(wedges_)::allocator_type(&space_domain_)),
      wedge_watchers_(&space_domain_),
      found_cycles_(decltype(found_cycles_)::allocator_type(&space_domain_)) {
  CYCLESTREAM_CHECK_GE(options.sample_size, 1u);
}

void TwoPassFourCycleCounter::BeginPass(int pass) { pass_ = pass; }

void TwoPassFourCycleCounter::BuildWedges() {
  // Group sampled edges by endpoint and form every wedge inside S. Centers
  // are visited in sorted order so the wedge slab (and with it watcher
  // lists, wedge indices, and any max_wedges truncation) is a pure function
  // of the sample's content — a snapshot-restored instance, whose sampler
  // holds its members in another order than the original's, must build the
  // identical slab.
  std::unordered_map<VertexId, std::vector<VertexId>> incident;
  edge_sample_.ForEach([&](EdgeKey /*key*/, const EdgeEntry& e) {
    incident[e.lo].push_back(e.hi);
    incident[e.hi].push_back(e.lo);
  });
  std::vector<VertexId> centers;
  centers.reserve(incident.size());
  for (const auto& [center, others] : incident) centers.push_back(center);
  std::sort(centers.begin(), centers.end());
  for (VertexId center : centers) {
    std::vector<VertexId>& others = incident[center];
    std::sort(others.begin(), others.end());
    for (std::size_t i = 0; i < others.size(); ++i) {
      for (std::size_t j = i + 1; j < others.size(); ++j) {
        if (options_.max_wedges != 0 &&
            wedges_.size() >= options_.max_wedges) {
          wedge_cap_hit_ = true;
          return;
        }
        WedgeState state;
        state.wedge = MakeWedge(center, others[i], others[j]);
        std::uint32_t idx = static_cast<std::uint32_t>(wedges_.size());
        wedges_.push_back(state);
        wedge_watchers_.Add(state.wedge.end_lo, idx);
        wedge_watchers_.Add(state.wedge.end_hi, idx);
      }
    }
  }
}

void TwoPassFourCycleCounter::HandlePair(VertexId u, VertexId v) {
  if (pass_ == 0) {
    ++pair_events_;
    EdgeKey key = MakeEdgeKey(u, v);
    edge_sample_.Offer(key, EdgeEntry{EdgeKeyLo(key), EdgeKeyHi(key)});
    return;
  }
  // Pass 2: mark v on the wedges it ends. A wedge completed in a list z = u
  // other than its centre's closes the 4-cycle center-end_lo-z-end_hi.
  for (std::uint32_t idx : wedge_watchers_.Find(v)) {
    WedgeState& ws = wedges_[idx];
    if (marks_.Mark(ws.ends, ws.wedge.end_lo == v ? 0 : 1) &&
        u != ws.wedge.center) {
      ++ws.count;
      ++wedge_incidences_;
      found_cycles_.insert(
          CycleKey(MakeEdgeKey(ws.wedge.center, u),
                   WedgeEndpointsKey(ws.wedge)));
    }
  }
}

void TwoPassFourCycleCounter::EndList(VertexId /*u*/) {
  if (pass_ == 1 && marks_.EndList()) {
    for (WedgeState& ws : wedges_) ws.ends = 0;
  }
}

void TwoPassFourCycleCounter::EndPass(int pass) {
  if (pass == 0) {
    BuildWedges();
  } else {
    finished_ = true;
  }
}

void TwoPassFourCycleCounter::Fields(auto& self, auto& ar) {
  ar.Option(self.options_.sample_size, "sample_size");
  ar.Option(self.options_.seed, "seed");
  ar.Option(self.options_.max_wedges, "max_wedges");
  ar.Pass(self.pass_, self.passes());
  ar.U64(self.pair_events_);
  ar.U64(self.wedge_incidences_);
  ar.Bool(self.wedge_cap_hit_);
  ar.Bool(self.finished_);
  // lo/hi derive from the key on restore; nothing else to record.
  sampling::BottomKSampler<EdgeEntry>::Fields(
      self.edge_sample_, ar,
      [](auto key) { return EdgeEntry{EdgeKeyLo(key), EdgeKeyHi(key)}; },
      [](auto& /*ar*/, auto& /*entry*/) {});
  // Q is serialized verbatim (slot order = watcher indices), not rebuilt via
  // BuildWedges: that keeps restores bit-identical regardless of the
  // sampler's member order, including runs where max_wedges truncated the
  // build.
  ar.Vec(self.wedges_, [](auto& ar, auto& ws) {
    ar.U32(ws.wedge.center);
    ar.U32(ws.wedge.end_lo);
    ar.U32(ws.wedge.end_hi);
    ar.U64(ws.count);
  });
  WatchIndex<VertexId, std::uint32_t>::Fields(self.wedge_watchers_, ar);
  ar.Dropped(5);  // the touched-wedge list's capacity
  ar.Buckets(self.found_cycles_);
  ar.Set(self.found_cycles_);
  if constexpr (ar.kLoading) {
    const auto in_q = [&](std::uint32_t idx) {
      return idx < self.wedges_.size();
    };
    ar.Require(self.wedge_watchers_.AllOf(in_q),
               "wedge watch names a slot outside Q");
  }
}

void TwoPassFourCycleCounter::Serialize(snapshot::SnapshotWriter& w) const {
  snapshot::Saver ar(w);
  Fields(*this, ar);
}

Status TwoPassFourCycleCounter::Restore(snapshot::SnapshotReader& r) {
  snapshot::Loader ar(r);
  Fields(*this, ar);
  return ar.status();
}

std::size_t TwoPassFourCycleCounter::CurrentSpaceBytes() const {
  constexpr std::size_t kSetEntryOverhead = 24;
  return edge_sample_.MemoryBytes() +
         wedges_.capacity() * sizeof(WedgeState) +
         wedge_watchers_.MemoryBytes() +
         found_cycles_.size() * kSetEntryOverhead;
}

FourCycleResult TwoPassFourCycleCounter::result() const {
  CYCLESTREAM_CHECK(finished_);
  FourCycleResult res;
  res.edge_count = pair_events_ / 2;
  res.edge_sample_size = edge_sample_.size();
  res.wedge_count = wedges_.size();
  res.distinct_cycles = found_cycles_.size();
  res.wedge_incidences = wedge_incidences_;
  res.wedge_cap_hit = wedge_cap_hit_;
  const double m = static_cast<double>(res.edge_count);
  const double s = static_cast<double>(res.edge_sample_size);
  res.k_squared = (s >= 2.0 && m > s) ? m * (m - 1.0) / (s * (s - 1.0)) : 1.0;
  res.estimate = res.k_squared * static_cast<double>(res.distinct_cycles);
  res.multiplicity_estimate =
      res.k_squared * static_cast<double>(wedge_incidences_) / 4.0;
  return res;
}

}  // namespace core
}  // namespace cyclestream
