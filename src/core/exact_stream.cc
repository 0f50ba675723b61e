#include "core/exact_stream.h"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "snapshot/codec.h"
#include "util/check.h"
#include "util/hashing.h"

namespace cyclestream {
namespace core {
namespace {

// Grows `v` to hold `size` elements at a power-of-two capacity, so its
// capacity is a function of the largest size it has had to hold.
template <typename V>
void Fit(V& v, std::size_t size) {
  if (size > v.capacity()) v.reserve(std::bit_ceil(size));
}

// |a ∩ b| for two strictly increasing lists. When the shorter list's
// entries cost fewer binary searches than a merge would take steps, they
// are searched for in the longer one, each from where the last stopped.
std::uint64_t IntersectionSize(std::span<const VertexId> a,
                               std::span<const VertexId> b) {
  if (a.size() > b.size()) std::swap(a, b);
  std::uint64_t common = 0;
  if (a.size() * std::bit_width(b.size()) < b.size()) {
    auto from = b.begin();
    for (VertexId x : a) {
      from = std::lower_bound(from, b.end(), x);
      if (from == b.end()) break;
      common += *from == x;
    }
    return common;
  }
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const VertexId x = a[i];
    const VertexId y = b[j];
    common += x == y;
    i += x <= y;
    j += y <= x;
  }
  return common;
}

}  // namespace

void ExactStreamTriangleCounter::BeginList(VertexId /*u*/) {
  list_.clear();
}

void ExactStreamTriangleCounter::HandlePair(VertexId /*u*/, VertexId v) {
  ++pair_events_;
  Fit(list_, list_.size() + 1);
  list_.push_back(v);
}

void ExactStreamTriangleCounter::EndList(VertexId u) {
  std::sort(list_.begin(), list_.end());
  list_.erase(std::unique(list_.begin(), list_.end()), list_.end());
  const std::uint32_t own = PositionOf(u);
  if (list_.empty() && own == kNone) return;
  if (own != kNone) {  // pending, or a repeated list
    dead_ += entries_[own].size;
    entries_[own].size = 0;
  }
  const std::uint64_t offset = Append(list_);
  const auto size = static_cast<std::uint32_t>(list_.size());

  // list_[0, ended) holds u's ended neighbours below the one at hand.
  std::size_t ended = 0;
  for (std::size_t i = 0; i < list_.size(); ++i) {
    const VertexId x = list_[i];
    const std::uint32_t at = PositionOf(x);
    if (at == kNone) continue;
    const Entry& entry = entries_[at];
    const std::span<const VertexId> neighbours = ListOf(entry);
    if (entry.pending &&
        !std::binary_search(neighbours.begin(), neighbours.end(), u)) {
      continue;
    }
    triangles_ += IntersectionSize(neighbours, {list_.data(), ended});
    list_[ended++] = x;
  }
  list_.clear();

  if (own == kNone) {
    Insert({.offset = offset, .pending = 0, .vertex = u, .size = size});
  } else {
    entries_[own] = {.offset = offset, .pending = 0, .vertex = u, .size = size};
  }
}

std::uint32_t ExactStreamTriangleCounter::PositionOf(VertexId v) const {
  if (index_.empty()) return kNone;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t slot = Mix64(v) & mask;; slot = (slot + 1) & mask) {
    const std::uint32_t at = index_[slot];
    if (at == kNone || entries_[at].vertex == v) return at;
  }
}

void ExactStreamTriangleCounter::Insert(const Entry& entry) {
  CYCLESTREAM_CHECK_LT(entries_.size(), kNone);
  Fit(entries_, entries_.size() + 1);
  entries_.push_back(entry);
  if (2 * entries_.size() <= index_.size()) {
    Place(static_cast<std::uint32_t>(entries_.size() - 1));
    return;
  }
  // At most half full: the index doubles, and every entry is placed again.
  decltype(index_) grown(std::max<std::size_t>(4, 2 * index_.size()), kNone,
                         index_.get_allocator());
  index_.swap(grown);
  for (std::uint32_t at = 0; at < entries_.size(); ++at) Place(at);
}

void ExactStreamTriangleCounter::Place(std::uint32_t at) {
  const std::size_t mask = index_.size() - 1;
  std::size_t slot = Mix64(entries_[at].vertex) & mask;
  while (index_[slot] != kNone) slot = (slot + 1) & mask;
  index_[slot] = at;
}

std::uint64_t ExactStreamTriangleCounter::Append(
    std::span<const VertexId> list) {
  const std::size_t need = arena_.size() + list.size();
  if (need > arena_.capacity()) {
    // Sized by the words entries name, so the capacity at a list boundary
    // is a function of them: dead words (lists a later one replaced) are
    // dropped before the arena grows.
    const std::size_t capacity = std::bit_ceil(need - dead_);
    if (dead_ == 0) {
      arena_.reserve(capacity);
    } else {
      decltype(arena_) packed(arena_.get_allocator());
      packed.reserve(capacity);
      for (Entry& entry : entries_) {
        const std::span<const VertexId> kept = ListOf(entry);
        entry.offset = packed.size();
        packed.insert(packed.end(), kept.begin(), kept.end());
      }
      arena_.swap(packed);
      dead_ = 0;
    }
  }
  const std::uint64_t offset = arena_.size();
  arena_.insert(arena_.end(), list.begin(), list.end());
  return offset;
}

void ExactStreamTriangleCounter::Fields(auto& self, auto& ar) {
  ar.U64(self.pair_events_);
  ar.U64(self.triangles_);
  if constexpr (ar.kLoading) {
    if (ar.version() < 7) {
      self.LoadEdgeMap(ar);
      return;
    }
  } else {
    CYCLESTREAM_CHECK(self.list_.empty());  // at a list boundary
  }
  // Each entry: a vertex, a bit and a neighbour count.
  constexpr std::size_t kEntryBytes = 4 + 1 + 8;
  std::uint64_t entries = self.entries_.size();
  ar.Count(entries, kEntryBytes);
  for (std::uint64_t i = 0; i < entries; ++i) {
    Entry entry{};
    if constexpr (!ar.kLoading) entry = self.entries_[i];
    VertexId vertex = entry.vertex;
    bool pending = entry.pending;
    std::uint64_t size = entry.size;
    ar.U32(vertex);
    ar.Bool(pending);
    ar.Count(size, sizeof(VertexId));
    if constexpr (ar.kLoading) {
      self.LoadEntry(ar, vertex, pending, size);
    } else {
      for (VertexId v : self.ListOf(entry)) ar.U32(v);
    }
  }
  if constexpr (ar.kLoading) {
    // The current list's capacity: that of the longest list stored.
    std::size_t longest = 0;
    for (const Entry& entry : self.entries_) {
      if (!entry.pending) longest = std::max<std::size_t>(longest, entry.size);
    }
    Fit(self.list_, longest);
  }
}

void ExactStreamTriangleCounter::LoadEntry(auto& ar, VertexId vertex,
                                           bool pending, std::uint64_t size) {
  ar.Require(PositionOf(vertex) == kNone, "exact-stream vertex listed twice");
  ar.Require(size <= std::numeric_limits<std::uint32_t>::max(),
             "exact-stream list longer than any list of 32-bit ids");
  if (!ar.ok()) return;
  const std::uint64_t offset = arena_.size();
  Fit(arena_, offset + size);  // the count is bounded by the payload
  for (std::uint64_t j = 0; j < size && ar.ok(); ++j) {
    VertexId v = 0;
    ar.U32(v);
    ar.Require(j == 0 || arena_.back() < v,
               "exact-stream list is not strictly increasing");
    arena_.push_back(v);
  }
  if (!ar.ok()) return;
  Insert({.offset = offset,
          .pending = pending,
          .vertex = vertex,
          .size = static_cast<std::uint32_t>(size)});
}

void ExactStreamTriangleCounter::LoadEdgeMap(auto& ar) {
  ar.Dropped(7);  // the current list's capacity
  ar.Dropped(7);  // the map's bucket count
  // Both directions of each seen edge, as (vertex, neighbour).
  std::vector<std::pair<VertexId, VertexId>> ends;
  std::uint8_t copies = 0;
  ar.Table(
      [] { return std::vector<std::pair<EdgeKey, const std::uint8_t*>>(); },
      [&](EdgeKey key) {
        const VertexId lo = EdgeKeyLo(key);
        const VertexId hi = EdgeKeyHi(key);
        ar.Require(lo < hi, "exact-stream edge key names no edge");
        ends.push_back({lo, hi});
        ends.push_back({hi, lo});
        return &copies;
      },
      [](auto& ar, std::uint8_t& seen) {
        ar.U8(seen);
        ar.Require(seen == 1 || seen == 2,
                   "exact-stream edge seen neither once nor twice");
      });
  if (!ar.ok()) return;
  std::sort(ends.begin(), ends.end());
  for (std::size_t first = 0; first < ends.size();) {
    const VertexId z = ends[first].first;
    const std::uint64_t offset = arena_.size();
    std::size_t last = first;
    while (last < ends.size() && ends[last].first == z) ++last;
    Fit(arena_, offset + (last - first));
    for (std::size_t k = first; k < last; ++k) {
      arena_.push_back(ends[k].second);
    }
    Insert({.offset = offset,
            .pending = 1,
            .vertex = z,
            .size = static_cast<std::uint32_t>(last - first)});
    first = last;
  }
}

void ExactStreamTriangleCounter::Serialize(snapshot::SnapshotWriter& w) const {
  snapshot::Saver ar(w);
  Fields(*this, ar);
}

Status ExactStreamTriangleCounter::Restore(snapshot::SnapshotReader& r) {
  snapshot::Loader ar(r);
  Fields(*this, ar);
  return ar.status();
}

std::size_t ExactStreamTriangleCounter::CurrentSpaceBytes() const {
  return (arena_.capacity() + list_.capacity()) * sizeof(VertexId) +
         entries_.capacity() * sizeof(Entry) +
         index_.capacity() * sizeof(std::uint32_t);
}

}  // namespace core
}  // namespace cyclestream
