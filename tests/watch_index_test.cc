// core::WatchIndex against a plain mirror: the estimators' watcher lists
// must behave exactly as the push_back / swap-remove maps they replaced,
// for the all-ones key (the table's empty sentinel) too, keep the table and
// list capacities the index promises (its own meter), and checkpoint to
// bytes a fresh index restores bit for bit. core::SampledEdges: each
// member's recorded list positions point back at it, and a slot is reused
// only after its member leaves. core::ListMarks: a list completes an item
// once, when it delivers the item's second end, and no earlier list's mark
// counts, across the stamp's wrap too.

#include "core/watch_index.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/types.h"
#include "obs/accounting.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "util/random.h"

namespace cyclestream {
namespace core {
namespace {

// The map the estimators hand-wrote: push_back to add, move the last entry
// over the first equal one (or the one at a position) to remove, erase a
// key whose list empties. It also models the index's geometry: a table of
// at least 8 positions that doubles past load 1/4 and halves below 1/8,
// and list capacities that double when full and halve at a quarter. The
// all-ones key's list is kept outside the table.
template <typename K, typename V>
class Mirror {
 public:
  void Add(K key, V value) {
    if (!lists_.contains(key) && key != kAllOnes &&
        4 * (TableKeys() + 1) > table_) {
      table_ *= 2;
    }
    List& list = lists_[key];
    if (list.values.size() == list.capacity) {
      list.capacity = list.capacity == 0 ? 1 : 2 * list.capacity;
    }
    list.values.push_back(value);
  }

  void Remove(K key, V value) {
    auto it = lists_.find(key);
    if (it == lists_.end()) return;
    const std::vector<V>& values = it->second.values;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] == value) {
        RemoveAt(key, i);
        return;
      }
    }
  }

  void RemoveAt(K key, std::size_t pos) {
    auto it = lists_.find(key);
    List& list = it->second;
    list.values[pos] = list.values.back();
    list.values.pop_back();
    if (4 * list.values.size() <= list.capacity) list.capacity /= 2;
    if (list.values.empty()) {
      lists_.erase(it);
      if (key != kAllOnes && table_ > 8 && 8 * TableKeys() < table_) {
        table_ /= 2;
      }
    }
  }

  // The table (a key and a 4-byte header index per position), a 16-byte
  // list header per four positions and one for the all-ones key, and every
  // list's buffer.
  std::size_t MemoryBytes() const {
    std::size_t bytes = table_ * (sizeof(K) + 4) + (table_ / 4 + 1) * 16;
    for (const auto& [key, list] : lists_) bytes += list.capacity * sizeof(V);
    return bytes;
  }

  std::vector<V> ListOf(K key) const {
    const auto it = lists_.find(key);
    return it == lists_.end() ? std::vector<V>{} : it->second.values;
  }

  std::size_t size() const { return lists_.size(); }

 private:
  static constexpr K kAllOnes = std::numeric_limits<K>::max();

  std::size_t TableKeys() const {
    return lists_.size() - (lists_.contains(kAllOnes) ? 1 : 0);
  }

  struct List {
    std::vector<V> values;
    std::size_t capacity = 0;
  };

  std::map<K, List> lists_;
  std::size_t table_ = 8;
};

// The keys the mirror runs draw from: 0 to 46, and the all-ones key.
template <typename K>
K KeyNumber(std::uint64_t i) {
  return i == 47 ? std::numeric_limits<K>::max() : static_cast<K>(i);
}

template <typename K, typename V>
void ExpectMatches(const WatchIndex<K, V>& index, const Mirror<K, V>& mirror) {
  ASSERT_EQ(index.size(), mirror.size());
  ASSERT_EQ(index.MemoryBytes(), mirror.MemoryBytes());
  for (std::uint64_t i = 0; i < 48; ++i) {
    const K key = KeyNumber<K>(i);
    const auto got = index.Find(key);
    ASSERT_EQ(std::vector<V>(got.begin(), got.end()), mirror.ListOf(key))
        << "key " << key;
  }
}

template <typename K, typename V>
std::vector<std::uint8_t> Save(const WatchIndex<K, V>& index) {
  snapshot::SnapshotWriter w;
  snapshot::Saver ar(w);
  WatchIndex<K, V>::Fields(index, ar);
  return std::move(w).Finish();
}

// A seeded mix of adds, removes by value and removes by position over many
// keys and few values, so lists hold repeated values, removes hit absent
// keys and absent values, lists empty out and refill, and the table grows
// and shrinks. The index and the mirror must agree after every operation,
// and the end state must survive a checkpoint round trip.
template <typename K, typename V>
void RunAgainstMirror(std::uint64_t seed) {
  constexpr std::uint64_t kValues = 7;
  obs::MemoryDomain domain;
  WatchIndex<K, V> index(&domain);
  Mirror<K, V> mirror;
  Rng rng(seed);
  int dropped = 0;
  int refilled = 0;
  int moved = 0;
  std::set<K> ever_dropped;
  std::size_t most_keys = 0;
  int all_ones_held = 0;
  // Alternating phases of mostly-add and mostly-remove, ending on an add
  // phase: lists grow past several capacity doublings, then drain.
  for (int op = 0; op < 6300; ++op) {
    const K key = KeyNumber<K>(rng.NextBounded(48));
    const V value = static_cast<V>(rng.NextBounded(kValues));
    const bool adding_phase = op % 2000 < 300;
    const std::uint64_t kind = rng.NextBounded(10);
    const bool add = kind < (adding_phase ? 7u : 1u);
    const std::size_t keys_before = mirror.size();
    if (add) {
      if (index.Find(key).empty() && ever_dropped.contains(key)) ++refilled;
      const std::size_t pos = index.Find(key).size();
      EXPECT_EQ(index.Add(key, value), pos);
      mirror.Add(key, value);
    } else if (kind % 2 == 0 || index.Find(key).empty()) {
      index.Remove(key, value);
      mirror.Remove(key, value);
    } else {
      const std::vector<V> before = mirror.ListOf(key);
      const std::size_t pos = rng.NextBounded(before.size());
      int calls = 0;
      index.RemoveAt(key, static_cast<std::uint32_t>(pos), [&](const V& v) {
        ++calls;
        EXPECT_EQ(v, before.back());
      });
      EXPECT_EQ(calls, pos + 1 == before.size() ? 0 : 1);
      moved += calls;
      mirror.RemoveAt(key, pos);
    }
    if (mirror.size() < keys_before) {
      ++dropped;
      ever_dropped.insert(key);
    }
    most_keys = std::max(most_keys, mirror.size());
    all_ones_held += !index.Find(KeyNumber<K>(47)).empty();
    ExpectMatches(index, mirror);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "diverged at op " << op << (add ? " (add)" : " (remove)");
    }
    ASSERT_EQ(domain.live_bytes(), index.MemoryBytes()) << "op " << op;
  }
  EXPECT_GT(dropped, 0);
  EXPECT_GT(refilled, 0);
  EXPECT_GT(moved, 0);
  EXPECT_GT(most_keys, 4u);  // the table doubled at least once
  EXPECT_GT(all_ones_held, 0);
  // The checkpoint holds the all-ones key's list too.
  index.Add(KeyNumber<K>(47), V{1});
  mirror.Add(KeyNumber<K>(47), V{1});
  ExpectMatches(index, mirror);

  const std::vector<std::uint8_t> bytes = Save(index);
  StatusOr<snapshot::SnapshotReader> reader =
      snapshot::SnapshotReader::Open(bytes);
  ASSERT_TRUE(reader.ok());
  obs::MemoryDomain restored_domain;
  WatchIndex<K, V> restored(&restored_domain);
  snapshot::Loader loader(*reader);
  WatchIndex<K, V>::Fields(restored, loader);
  ASSERT_TRUE(loader.status().ok()) << loader.status().ToString();
  EXPECT_TRUE(reader->Final().ok());
  EXPECT_EQ(Save(restored), bytes);
  EXPECT_EQ(restored.MemoryBytes(), index.MemoryBytes());
  EXPECT_EQ(restored_domain.live_bytes(), domain.live_bytes());
  ExpectMatches(restored, mirror);
}

TEST(WatchIndex, MatchesTheMirrorByVertex) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    RunAgainstMirror<VertexId, EdgeKey>(seed);
  }
}

TEST(WatchIndex, MatchesTheMirrorByEndpointPair) {
  for (std::uint64_t seed : {4u, 5u, 6u}) {
    SCOPED_TRACE(seed);
    RunAgainstMirror<EdgeKey, std::uint32_t>(seed);
  }
}

struct EdgeState {
  VertexId lo = 0;
  VertexId hi = 0;
  std::uint32_t ends = 0;
};

// A seeded offer sequence over a small vertex set, one of them the all-ones
// id, so the sample fills and evicts. The test keeps each vertex's list of
// slots as the swap-remove map would: an admitted edge is appended at both
// ends, an evicted one replaced by its list's last entry. After every
// offer each member keeps the slot it was admitted to, and every vertex's
// list yields exactly the mirror's slots in the mirror's order, which an
// eviction that unlisted at a wrong recorded position would break; an
// admission takes a slot no member holds.
TEST(SampledEdges,
     PositionsPointBackAndSlotsAreReusedOnlyAfterTheMemberLeaves) {
  constexpr VertexId kVertices = 12;
  const auto vertex = [](std::uint64_t i) {
    return i + 1 == kVertices ? ~VertexId{0} : static_cast<VertexId>(i);
  };
  for (const std::size_t capacity : {1u, 3u, 16u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + ", seed " +
                   std::to_string(seed));
      obs::MemoryDomain domain;
      SampledEdges<EdgeState> edges(capacity, seed, &domain);
      std::map<EdgeKey, std::uint32_t> slot_of;  // member -> its slot
      std::map<VertexId, std::vector<std::uint32_t>> lists;
      const auto unlist = [&](VertexId x, std::uint32_t slot) {
        std::vector<std::uint32_t>& list = lists[x];
        *std::ranges::find(list, slot) = list.back();
        list.pop_back();
      };
      Rng rng(seed);
      int evictions = 0;
      int reused = 0;
      int all_ones_listed = 0;
      std::set<std::uint32_t> ever_freed;
      for (int op = 0; op < 2000; ++op) {
        const VertexId u = vertex(rng.NextBounded(kVertices));
        const VertexId v = vertex(rng.NextBounded(kVertices));
        if (u == v) continue;
        const EdgeKey key = MakeEdgeKey(u, v);
        std::uint32_t slot = SampledEdges<EdgeState>::kNoSlot;
        const sampling::OfferResult result = edges.Offer(
            key, EdgeState{},
            [&](EdgeKey evicted, EdgeState&& state) {
              ++evictions;
              EXPECT_EQ(MakeEdgeKey(state.lo, state.hi), evicted);
              ASSERT_TRUE(slot_of.contains(evicted));
              ever_freed.insert(slot_of[evicted]);
              unlist(state.lo, slot_of[evicted]);
              unlist(state.hi, slot_of[evicted]);
              slot_of.erase(evicted);
            },
            &slot);
        if (result == sampling::OfferResult::kInserted) {
          for (const auto& [member, held] : slot_of) {
            ASSERT_NE(held, slot) << "slot " << slot << " still holds "
                                  << member;
          }
          reused += ever_freed.contains(slot);
          slot_of[key] = slot;
          lists[EdgeKeyLo(key)].push_back(slot);
          lists[EdgeKeyHi(key)].push_back(slot);
        } else if (result == sampling::OfferResult::kAlreadyPresent) {
          ASSERT_EQ(slot, slot_of.at(key));
        }
        ASSERT_EQ(edges.size(), slot_of.size());
        for (std::uint64_t i = 0; i < kVertices; ++i) {
          const VertexId x = vertex(i);
          std::vector<std::uint32_t> yielded;
          edges.ForEachAt(x, [&](std::uint32_t at, EdgeKey member,
                                 EdgeState& state) {
            ASSERT_TRUE(slot_of.contains(member)) << "lists a non-member";
            EXPECT_EQ(slot_of.at(member), at);
            EXPECT_TRUE(edges.Holds(at, member));
            EXPECT_EQ(&edges.At(at), &state);
            yielded.push_back(at);
          });
          ASSERT_EQ(yielded, lists[x]) << "vertex " << x;
          ASSERT_EQ(edges.CountAt(x), yielded.size());
        }
        for (const auto& [member, held] : slot_of) {
          ASSERT_EQ(edges.SlotOf(member), held);
        }
        all_ones_listed += !lists[vertex(kVertices - 1)].empty();
      }
      EXPECT_GT(evictions, 0);
      if (capacity > 1) {
        EXPECT_GT(reused, 0);
        EXPECT_GT(all_ones_listed, 0);
      }
    }
  }
}

TEST(ListMarks, BothEndsInOneListCompleteOnceInEitherOrder) {
  for (const int first : {0, 1}) {
    SCOPED_TRACE("first end " + std::to_string(first));
    ListMarks marks;
    std::uint32_t word = 0;
    EXPECT_FALSE(marks.Mark(word, first));
    EXPECT_TRUE(marks.Mark(word, 1 - first));
    EXPECT_FALSE(marks.Mark(word, 1 - first));
    EXPECT_FALSE(marks.Mark(word, first));
  }
}

TEST(ListMarks, ARepeatedEndDoesNotComplete) {
  ListMarks marks;
  std::uint32_t word = 0;
  EXPECT_FALSE(marks.Mark(word, 1));
  EXPECT_FALSE(marks.Mark(word, 1));
  EXPECT_TRUE(marks.Mark(word, 0));
}

TEST(ListMarks, ZeroAndEarlierListWordsReadAsUnmarked) {
  // Stamps start at 1, so a zero word (a new or restored item) holds no
  // mark: its first end completes nothing.
  ListMarks marks;
  std::uint32_t zero = 0;
  EXPECT_FALSE(marks.Mark(zero, 0));
  std::uint32_t earlier = 0;
  EXPECT_FALSE(marks.Mark(earlier, 0));
  EXPECT_FALSE(marks.EndList());
  // The next list: the first list's mark has lapsed.
  EXPECT_FALSE(marks.Mark(earlier, 1));
  EXPECT_TRUE(marks.Mark(earlier, 0));
}

TEST(ListMarks, StampWrapsOnItsLastListAndAZeroedWordCompletesNothing) {
  // 30 stamp bits starting at 1: the (2^30 - 1)-th EndList runs the stamp
  // round to 1, and only that call returns true. A word the first list
  // marked then reads as marked again unless the caller zeroes it.
  ListMarks marks;
  std::uint32_t zeroed = 0;
  std::uint32_t kept = 0;
  EXPECT_FALSE(marks.Mark(zeroed, 0));
  EXPECT_FALSE(marks.Mark(kept, 0));
  constexpr std::uint64_t kLists = (std::uint64_t{1} << 30) - 1;
  std::uint64_t wraps = 0;
  for (std::uint64_t call = 1; call < kLists; ++call) wraps += marks.EndList();
  EXPECT_EQ(wraps, 0u);
  EXPECT_TRUE(marks.EndList());
  // Back on the first list's stamp. The caller zeroes its words; one it
  // missed reports a completion no list made.
  zeroed = 0;
  EXPECT_FALSE(marks.Mark(zeroed, 1));
  EXPECT_TRUE(marks.Mark(kept, 1));
  EXPECT_FALSE(marks.EndList());
}

}  // namespace
}  // namespace core
}  // namespace cyclestream
