// core::WatchIndex against a plain mirror: the estimators' watcher lists
// must behave exactly as the push_back / swap-remove maps they replaced,
// keep their capacity and item counts current (the index's own meter), and
// checkpoint to bytes a fresh index restores bit for bit. core::ListMarks: a list completes an item once,
// when it delivers the item's second end, and no earlier list's mark
// counts, across the stamp's wrap too.

#include "core/watch_index.h"

#include <cstddef>
#include <cstdint>
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
// over the first equal one to remove, erase a key whose list empties.
template <typename K, typename V>
class Mirror {
 public:
  void Add(K key, V value) { lists_[key].push_back(value); }

  void Remove(K key, V value) {
    auto it = lists_.find(key);
    if (it == lists_.end()) return;
    std::vector<V>& list = it->second;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i] == value) {
        list[i] = list.back();
        list.pop_back();
        break;
      }
    }
    if (list.empty()) lists_.erase(it);
  }

  std::size_t CapacityBytes() const {
    std::size_t bytes = 0;
    for (const auto& [key, list] : lists_) bytes += list.capacity() * sizeof(V);
    return bytes;
  }

  // The meter the estimators hand-wrote: 48 bytes per key and sizeof(V)
  // per listed item.
  std::size_t MemoryBytes() const {
    std::size_t bytes = lists_.size() * 48;
    for (const auto& [key, list] : lists_) bytes += list.size() * sizeof(V);
    return bytes;
  }

  const std::map<K, std::vector<V>>& lists() const { return lists_; }

 private:
  std::map<K, std::vector<V>> lists_;
};

template <typename K, typename V>
void ExpectMatches(const WatchIndex<K, V>& index, const Mirror<K, V>& mirror,
                   K max_key) {
  ASSERT_EQ(index.size(), mirror.lists().size());
  ASSERT_EQ(index.capacity_bytes(), mirror.CapacityBytes());
  ASSERT_EQ(index.MemoryBytes(), mirror.MemoryBytes());
  for (K key = 0; key <= max_key; ++key) {
    const auto it = mirror.lists().find(key);
    const std::vector<V> want =
        it == mirror.lists().end() ? std::vector<V>{} : it->second;
    const auto got = index.Find(key);
    ASSERT_EQ(std::vector<V>(got.begin(), got.end()), want) << "key " << key;
  }
}

template <typename K, typename V>
std::vector<std::uint8_t> Save(const WatchIndex<K, V>& index) {
  snapshot::SnapshotWriter w;
  snapshot::Saver ar(w);
  WatchIndex<K, V>::Fields(index, ar);
  return std::move(w).Finish();
}

// A seeded mix of adds and removes over few keys and values, so lists hold
// repeated values, removes hit absent keys and absent values, and lists
// empty out and refill. The index and the mirror must agree after every
// operation, and the end state must survive a checkpoint round trip.
template <typename K, typename V>
void RunAgainstMirror(std::uint64_t seed) {
  constexpr K kMaxKey = 11;
  constexpr std::uint64_t kValues = 7;
  obs::MemoryDomain domain;
  WatchIndex<K, V> index(&domain);
  Mirror<K, V> mirror;
  Rng rng(seed);
  int dropped = 0;
  int refilled = 0;
  std::set<K> ever_dropped;
  // Alternating phases of mostly-add and mostly-remove, ending on an add
  // phase: lists grow past several capacity doublings, then drain.
  for (int op = 0; op < 3300; ++op) {
    const K key = static_cast<K>(rng.NextBounded(kMaxKey + 1));
    const V value = static_cast<V>(rng.NextBounded(kValues));
    const bool adding_phase = op % 1000 < 300;
    const bool add = rng.NextBounded(10) < (adding_phase ? 7u : 1u);
    const std::size_t keys_before = mirror.lists().size();
    if (add) {
      if (index.Find(key).empty() && ever_dropped.contains(key)) ++refilled;
      index.Add(key, value);
      mirror.Add(key, value);
    } else {
      index.Remove(key, value);
      mirror.Remove(key, value);
      if (mirror.lists().size() < keys_before) {
        ++dropped;
        ever_dropped.insert(key);
      }
    }
    ExpectMatches(index, mirror, kMaxKey);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "diverged at op " << op << (add ? " (add)" : " (remove)");
    }
  }
  EXPECT_GT(dropped, 0);
  EXPECT_GT(refilled, 0);
  ASSERT_GT(index.size(), 0u);

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
  EXPECT_EQ(restored.capacity_bytes(), index.capacity_bytes());
  EXPECT_EQ(restored_domain.live_bytes(), domain.live_bytes());
  ExpectMatches(restored, mirror, kMaxKey);
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
