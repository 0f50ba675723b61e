// Trivial O(m)-space one-pass exact triangle counter — Table 1's "trivial
// O(m)" baseline. Used as the space/accuracy reference point the sublinear
// algorithms are compared against.
//
// The adjacency-list promise (stream/algorithm.h): each vertex's list
// arrives once and whole. So edge {x, y} has been seen twice exactly when it
// is an edge and both x's and y's lists have ended, and a triangle is closed
// by the last of its three lists. The counter keeps each ended list, sorted,
// in one arena, indexed by vertex. At the end of u's list it sorts the list
// and walks it in ascending order; each neighbour x whose list has ended
// adds |list(x) ∩ E| to the count, where E holds u's ended neighbours below
// x, and then joins E. Each triangle is thus counted once, at its last list,
// from the larger of its two earlier vertices. Each neighbour costs one
// index lookup; the rest is merging sorted arrays, or, when one list is
// much longer than the other (a Chung–Lu hub's), searching the longer one
// for the shorter one's entries. The two sizes decide which.
//
// Space: Θ(m) words. The arena holds both directions of each stored edge,
// two 4-byte ids; each stored list adds an entry (its vertex, offset and
// size) and an index slot. Every array grows to power-of-two capacities, so
// each capacity is a function of what the counter holds at a list boundary
// (the arena's of the neighbours stored, the current list's of the longest
// list stored, the index's of the entry count). That is what lets a
// checkpoint store contents only and a restore rebuild the same
// CurrentSpaceBytes(). No vertex id sizes anything: the index is a flat
// open-addressing table probed from the id's Mix64 hash.
//
// Checkpoints before snapshot version 7 stored a per-edge map (edge → copies
// seen) instead. The map does not say which endpoint of a once-seen edge has
// ended, and the counter does not need to know: every vertex z in the map
// becomes a *pending* entry holding A(z), its neighbours through seen edges.
// Under the promise an ended x has A(x) = N(x), and a list w still to come
// has exactly its ended neighbours in A(w), so x is in A(w) exactly when w
// is in A(x). At w's end a pending neighbour x therefore counts as ended
// when its entry holds w. Pending entries stay pending in later
// checkpoints.
//
// A trusted stream that breaks the promise is not checked here; the checked
// path (RunPassesChecked) rejects it before the counter sees it. On such a
// stream the count may differ from that of the per-edge map this counter
// kept before version 7: a repeated list replaces the stored one, a
// neighbour listed twice counts once, and a split list is two lists. The
// state stays valid and checkpoints, but a restore may then report other
// capacities than the uninterrupted run.

#ifndef CYCLESTREAM_CORE_EXACT_STREAM_H_
#define CYCLESTREAM_CORE_EXACT_STREAM_H_

#include <cstdint>
#include <limits>
#include <span>

#include "graph/types.h"
#include "obs/accounting.h"
#include "stream/algorithm.h"

namespace cyclestream {
namespace core {

/// One-pass exact triangle counting with Θ(m) state.
class ExactStreamTriangleCounter final : public stream::PairDispatch<ExactStreamTriangleCounter> {
 public:
  ExactStreamTriangleCounter()
      : arena_(decltype(arena_)::allocator_type(&space_domain_)),
        entries_(decltype(entries_)::allocator_type(&space_domain_)),
        index_(decltype(index_)::allocator_type(&space_domain_)),
        list_(decltype(list_)::allocator_type(&space_domain_)) {}

  int passes() const override { return 1; }

  void BeginList(VertexId u) override;
  void EndList(VertexId u) override;
  std::size_t CurrentSpaceBytes() const override;

  std::uint64_t triangles() const { return triangles_; }
  std::uint64_t edge_count() const { return pair_events_ / 2; }

  /// Snapshot contract (stream/algorithm.h): complete state at an
  /// adjacency-list boundary, restore is bit-identical. Version 7 stores
  /// the pair and triangle counts, then each entry in end order: its
  /// vertex, its pending bit and its sorted neighbours.
  void Serialize(snapshot::SnapshotWriter& w) const override;
  Status Restore(snapshot::SnapshotReader& r) override;

 private:
  friend class stream::PairDispatch<ExactStreamTriangleCounter>;

  // A stored list: its vertex and where its sorted neighbours sit in
  // arena_. Pending entries come from a per-edge map (see above).
  struct Entry {
    std::uint64_t offset : 63;
    std::uint64_t pending : 1;
    VertexId vertex;
    std::uint32_t size;
  };

  // An index slot naming no entry.
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  // Per-element mutation, driven by PairDispatch for both deliveries.
  void HandlePair(VertexId u, VertexId v);

  // Checkpoint layout, run by Serialize and Restore (snapshot/codec.h).
  static void Fields(auto& self, auto& ar);
  // Versions 1-6: the per-edge map, read into pending entries.
  void LoadEdgeMap(auto& ar);
  // One version-7 entry whose vertex, bit and size `ar` has just read.
  void LoadEntry(auto& ar, VertexId vertex, bool pending, std::uint64_t size);

  std::span<const VertexId> ListOf(const Entry& e) const {
    return {arena_.data() + e.offset, e.size};
  }
  // Position in entries_ of `v`'s entry, or kNone.
  std::uint32_t PositionOf(VertexId v) const;
  // Appends an entry for a vertex that has none.
  void Insert(const Entry& entry);
  // Points the index slot that ends entry `at`'s probe at it.
  void Place(std::uint32_t at);
  // Copies `list` to the arena's end and returns its offset.
  std::uint64_t Append(std::span<const VertexId> list);

  obs::AccountedVector<VertexId> arena_;
  obs::AccountedVector<Entry> entries_;  // in end order
  obs::AccountedVector<std::uint32_t> index_;  // positions in entries_
  obs::AccountedVector<VertexId> list_;  // the current list
  std::size_t dead_ = 0;  // arena words no entry names
  std::uint64_t pair_events_ = 0;
  std::uint64_t triangles_ = 0;
};

}  // namespace core
}  // namespace cyclestream

#endif  // CYCLESTREAM_CORE_EXACT_STREAM_H_
