#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sampling/bottom_k.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "test_util.h"
#include "util/hashing.h"
#include "util/random.h"
#include "util/status.h"

namespace cyclestream {
namespace sampling {
namespace {

TEST(BottomK, KeepsEverythingBelowCapacity) {
  BottomKSampler<int> s(10, 1);
  for (std::uint64_t key = 0; key < 7; ++key) {
    EXPECT_EQ(s.Offer(key, static_cast<int>(key)), OfferResult::kInserted);
  }
  EXPECT_EQ(s.size(), 7u);
  for (std::uint64_t key = 0; key < 7; ++key) EXPECT_TRUE(s.Contains(key));
}

TEST(BottomK, NeverExceedsCapacity) {
  BottomKSampler<int> s(5, 2);
  for (std::uint64_t key = 0; key < 1000; ++key) s.Offer(key, 0);
  EXPECT_EQ(s.size(), 5u);
}

TEST(BottomK, FinalSampleIsBottomKByPriority) {
  BottomKSampler<int> s(8, 3);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> priorities;  // (pri, key)
  for (std::uint64_t key = 0; key < 200; ++key) {
    priorities.push_back({s.PriorityOf(key), key});
    s.Offer(key, 0);
  }
  std::sort(priorities.begin(), priorities.end());
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(s.Contains(priorities[i].second))
        << "missing bottom-priority key " << priorities[i].second;
  }
  for (std::size_t i = 8; i < priorities.size(); ++i) {
    EXPECT_FALSE(s.Contains(priorities[i].second));
  }
}

TEST(BottomK, OfferIsIdempotent) {
  BottomKSampler<int> s(3, 4);
  EXPECT_EQ(s.Offer(42, 1), OfferResult::kInserted);
  EXPECT_EQ(s.Offer(42, 2), OfferResult::kAlreadyPresent);
  EXPECT_EQ(*s.Find(42), 1);  // original payload kept
}

TEST(BottomK, FinalMembersAdmittedAtFirstOffer) {
  // The property the paper's algorithms rely on: replay the same key
  // sequence; every key in the final sample must have been kInserted the
  // first time it was offered.
  BottomKSampler<int> trial(16, 5);
  std::map<std::uint64_t, OfferResult> first_result;
  for (std::uint64_t key = 0; key < 500; ++key) {
    first_result[key] = trial.Offer(key, 0);
  }
  trial.ForEach([&](std::uint64_t key, const int&) {
    EXPECT_EQ(first_result[key], OfferResult::kInserted);
  });
}

TEST(BottomK, EvictionCallbackFiresWithPayload) {
  // Every inserted key must end up either still in the sample or reported
  // through the eviction callback with its original payload — no key may
  // vanish silently. (Offers above the threshold are rejected outright and
  // never evict.)
  BottomKSampler<int> s(2, 6);
  std::set<std::uint64_t> inserted;
  std::map<std::uint64_t, int> evicted;
  auto on_evict = [&](std::uint64_t key, int&& payload) {
    EXPECT_TRUE(inserted.contains(key)) << "evicted a never-inserted key";
    evicted[key] = payload;
  };
  for (std::uint64_t key = 0; key < 50; ++key) {
    if (s.Offer(key, static_cast<int>(key) * 10, on_evict) ==
        OfferResult::kInserted) {
      inserted.insert(key);
    }
  }
  EXPECT_EQ(s.size(), 2u);
  EXPECT_GT(evicted.size(), 0u);
  EXPECT_EQ(evicted.size(), inserted.size() - s.size());
  for (const auto& [key, payload] : evicted) {
    EXPECT_EQ(payload, static_cast<int>(key) * 10);
    EXPECT_FALSE(s.Contains(key));
  }
  s.ForEach([&](std::uint64_t key, const int&) {
    EXPECT_TRUE(inserted.contains(key));
    EXPECT_FALSE(evicted.contains(key));
  });
}

TEST(BottomK, EraseRemovesAndToleratesStaleHeap) {
  BottomKSampler<int> s(4, 7);
  for (std::uint64_t key = 0; key < 4; ++key) s.Offer(key, 0);
  EXPECT_TRUE(s.Erase(2));
  EXPECT_FALSE(s.Erase(2));
  EXPECT_EQ(s.size(), 3u);
  // Filling past capacity again must still evict correctly despite the
  // stale heap entry for key 2.
  for (std::uint64_t key = 10; key < 200; ++key) s.Offer(key, 0);
  EXPECT_EQ(s.size(), 4u);
}

TEST(BottomK, UniformityOverKeys) {
  // Each key should land in the final sample with probability ~ k/n.
  constexpr int kTrials = 2000;
  constexpr std::uint64_t kKeys = 50;
  constexpr std::size_t kCap = 10;
  std::vector<int> hits(kKeys, 0);
  for (int t = 0; t < kTrials; ++t) {
    BottomKSampler<int> s(kCap, 1000 + t);
    for (std::uint64_t key = 0; key < kKeys; ++key) s.Offer(key, 0);
    s.ForEach([&](std::uint64_t key, const int&) { ++hits[key]; });
  }
  const double expected = kTrials * static_cast<double>(kCap) / kKeys;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    EXPECT_NEAR(hits[key], expected, 6 * std::sqrt(expected))
        << "key " << key;
  }
}

TEST(BottomK, MemoryStaysBoundedUnderChurn) {
  BottomKSampler<int> s(32, 8);
  for (std::uint64_t key = 0; key < 100000; ++key) s.Offer(key, 0);
  // Heap compaction keeps the footprint O(capacity), not O(offers).
  EXPECT_LT(s.MemoryBytes(), 32u * 200);
}

// The sampler's contract restated over a std::map: a full sampler admits a
// key below its largest member's priority and evicts that member.
class ReferenceSampler {
 public:
  ReferenceSampler(std::size_t capacity, const BottomKSampler<int>& priorities)
      : capacity_(capacity), priorities_(priorities) {}

  OfferResult Offer(std::uint64_t key, int payload,
                    std::vector<std::pair<std::uint64_t, int>>* evicted) {
    if (members_.contains(key)) return OfferResult::kAlreadyPresent;
    const std::uint64_t priority = priorities_.PriorityOf(key);
    if (members_.size() >= capacity_ &&
        priority >= by_priority_.rbegin()->first) {
      return OfferResult::kRejected;
    }
    members_[key] = payload;
    by_priority_[priority] = key;
    if (members_.size() > capacity_) {
      const auto top = std::prev(by_priority_.end());
      evicted->push_back({top->second, members_[top->second]});
      members_.erase(top->second);
      by_priority_.erase(top);
    }
    return OfferResult::kInserted;
  }

  bool Erase(std::uint64_t key) {
    if (!members_.contains(key)) return false;
    members_.erase(key);
    by_priority_.erase(priorities_.PriorityOf(key));
    return true;
  }

  std::optional<int> Find(std::uint64_t key) const {
    auto it = members_.find(key);
    if (it == members_.end()) return std::nullopt;
    return it->second;
  }

  const std::map<std::uint64_t, int>& members() const { return members_; }

 private:
  std::size_t capacity_;
  const BottomKSampler<int>& priorities_;
  std::map<std::uint64_t, int> members_;
  std::map<std::uint64_t, std::uint64_t> by_priority_;  // priority -> key
};

std::map<std::uint64_t, int> MembersOf(const BottomKSampler<int>& s) {
  std::map<std::uint64_t, int> members;
  s.ForEach([&](std::uint64_t key, const int& payload) {
    EXPECT_TRUE(members.emplace(key, payload).second)
        << "key " << key << " visited twice";
  });
  return members;
}

TEST(BottomK, MatchesAReferenceModelUnderRandomOperations) {
  // Keys come from a universe a few times the capacity, so offers hit
  // members, erased keys return, and probe clusters form and break up.
  for (const std::size_t capacity : {1u, 2u, 3u, 7u, 16u, 33u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + ", seed " +
                   std::to_string(seed));
      BottomKSampler<int> sampler(capacity, seed);
      ReferenceSampler reference(capacity, sampler);
      Rng rng(seed * 7919 + capacity);
      const std::uint64_t universe = 4 * capacity + 3;
      for (int op = 0; op < 3000; ++op) {
        const std::uint64_t key = rng.NextBounded(universe);
        const std::uint64_t kind = rng.NextBounded(10);
        if (kind < 6) {
          std::vector<std::pair<std::uint64_t, int>> got_evicted;
          std::vector<std::pair<std::uint64_t, int>> want_evicted;
          const OfferResult got = sampler.Offer(
              key, op, [&](std::uint64_t k, int&& payload) {
                got_evicted.push_back({k, payload});
              });
          ASSERT_EQ(got, reference.Offer(key, op, &want_evicted))
              << "offer " << key << " at op " << op;
          ASSERT_EQ(got_evicted, want_evicted) << "op " << op;
        } else if (kind < 8) {
          ASSERT_EQ(sampler.Erase(key), reference.Erase(key))
              << "erase " << key << " at op " << op;
        } else {
          const int* found = sampler.Find(key);
          const std::optional<int> want = reference.Find(key);
          ASSERT_EQ(found != nullptr, want.has_value()) << "find " << key;
          if (found != nullptr) {
            ASSERT_EQ(*found, *want);
          }
          ASSERT_EQ(sampler.Contains(key), want.has_value());
        }
        ASSERT_EQ(sampler.size(), reference.members().size());
      }
      EXPECT_EQ(MembersOf(sampler), reference.members());
    }
  }
}

TEST(BottomK, EraseInsideAClusterThatWrapsPastTheIndexEnd) {
  // Capacity 7 gives a 16-slot index (twice capacity + 1, rounded up to a
  // power of two). Three keys whose home is the last slot fill slots 15, 0
  // and 1; a key homed at slot 0 lands at 2. Erasing each in turn must
  // shift the others back across the wrap and keep every one findable.
  constexpr std::size_t kCapacity = 7;
  constexpr std::uint64_t kMask = 15;
  std::vector<std::uint64_t> last_home;
  std::uint64_t first_home = 0;
  bool have_first = false;
  for (std::uint64_t key = 1; last_home.size() < 3 || !have_first; ++key) {
    const std::uint64_t home = Mix64(key) & kMask;
    if (home == kMask && last_home.size() < 3) last_home.push_back(key);
    if (home == 0 && !have_first) {
      first_home = key;
      have_first = true;
    }
  }
  const std::vector<std::uint64_t> keys = {last_home[0], last_home[1],
                                           last_home[2], first_home};
  for (std::size_t erased = 0; erased < keys.size(); ++erased) {
    SCOPED_TRACE("erasing key " + std::to_string(keys[erased]));
    BottomKSampler<int> s(kCapacity, 11);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(s.Offer(keys[i], static_cast<int>(i)), OfferResult::kInserted);
    }
    ASSERT_TRUE(s.Erase(keys[erased]));
    EXPECT_FALSE(s.Contains(keys[erased]));
    EXPECT_EQ(s.Find(keys[erased]), nullptr);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (i == erased) continue;
      const int* payload = s.Find(keys[i]);
      ASSERT_NE(payload, nullptr) << "lost key " << keys[i];
      EXPECT_EQ(*payload, static_cast<int>(i));
    }
    // The freed slot takes a new key, and the erased key comes back.
    EXPECT_EQ(s.Offer(keys[erased], 40), OfferResult::kInserted);
    EXPECT_EQ(*s.Find(keys[erased]), 40);
    EXPECT_EQ(s.size(), keys.size());
  }
}

TEST(BottomK, HoldsBoolPayloads) {
  BottomKSampler<bool> s(4, 12);
  std::map<std::uint64_t, bool> evicted;
  for (std::uint64_t key = 0; key < 64; ++key) {
    s.Offer(key, key % 2 == 1,
            [&](std::uint64_t k, bool&& payload) { evicted[k] = payload; });
  }
  EXPECT_EQ(s.size(), 4u);
  for (const auto& [key, payload] : evicted) EXPECT_EQ(payload, key % 2 == 1);
  int visited = 0;
  s.ForEach([&](std::uint64_t key, bool& payload) {
    EXPECT_EQ(payload, key % 2 == 1);
    payload = !payload;
    ++visited;
  });
  EXPECT_EQ(visited, 4);
  s.ForEach([&](std::uint64_t key, const bool& payload) {
    EXPECT_EQ(*s.Find(key), payload);
    EXPECT_EQ(payload, key % 2 == 0);
  });
}

// A payload without a default constructor, like the one-pass 4-cycle
// counter's edge state.
struct NoDefault {
  explicit NoDefault(int v) : value(v) {}
  int value;
};

TEST(BottomK, HoldsPayloadsWithoutADefaultConstructor) {
  BottomKSampler<NoDefault> s(3, 13);
  std::map<std::uint64_t, int> evicted;
  for (std::uint64_t key = 0; key < 40; ++key) {
    s.Offer(key, NoDefault(static_cast<int>(key) + 100),
            [&](std::uint64_t k, NoDefault&& payload) {
              evicted[k] = payload.value;
            });
  }
  EXPECT_EQ(s.size(), 3u);
  EXPECT_FALSE(evicted.empty());
  for (const auto& [key, value] : evicted) {
    EXPECT_EQ(value, static_cast<int>(key) + 100);
  }
  std::vector<std::uint64_t> members;
  s.ForEach([&](std::uint64_t key, const NoDefault& payload) {
    EXPECT_EQ(payload.value, static_cast<int>(key) + 100);
    members.push_back(key);
  });
  ASSERT_EQ(members.size(), 3u);
  EXPECT_TRUE(s.Erase(members[0]));
  EXPECT_EQ(s.Find(members[0]), nullptr);
  EXPECT_EQ(s.Find(members[2])->value, static_cast<int>(members[2]) + 100);
}

TEST(BottomK, ForEachVisitsEachMemberOnce) {
  BottomKSampler<int> s(24, 14);
  Rng rng(15);
  for (int op = 0; op < 5000; ++op) {
    const std::uint64_t key = rng.NextBounded(200);
    if (rng.NextBounded(4) == 0) {
      s.Erase(key);
    } else {
      s.Offer(key, static_cast<int>(key));
    }
  }
  const std::map<std::uint64_t, int> members = MembersOf(s);
  EXPECT_EQ(members.size(), s.size());
  for (const auto& [key, payload] : members) {
    EXPECT_TRUE(s.Contains(key));
    EXPECT_EQ(payload, static_cast<int>(key));
  }
}

// The sampler's checkpoint with each int payload as a u32.
void SaveSampler(const BottomKSampler<int>& s, snapshot::SnapshotWriter& w) {
  snapshot::Saver ar(w);
  BottomKSampler<int>::Fields(
      s, ar, [](auto) { return 0; },
      [](auto& ar, auto& payload) { ar.U32(payload); });
}

Status LoadSampler(BottomKSampler<int>& s,
                   std::span<const std::uint8_t> bytes) {
  StatusOr<snapshot::SnapshotReader> r = snapshot::SnapshotReader::Open(bytes);
  if (!r.ok()) return r.status();
  snapshot::Loader ar(*r);
  BottomKSampler<int>::Fields(
      s, ar, [](auto) { return 0; },
      [](auto& ar, auto& payload) { ar.U32(payload); });
  return ar.status();
}

TEST(BottomK, CheckpointRoundTripsAndResumesIdentically) {
  BottomKSampler<int> s(6, 16);
  for (std::uint64_t key = 0; key < 30; ++key) {
    s.Offer(key, static_cast<int>(key));
    if (key % 5 == 0) s.Erase(key / 2);
  }
  snapshot::SnapshotWriter w;
  SaveSampler(s, w);
  const std::vector<std::uint8_t> bytes = std::move(w).Finish();
  BottomKSampler<int> restored(6, 16);
  ASSERT_TRUE(LoadSampler(restored, bytes).ok());
  EXPECT_EQ(MembersOf(restored), MembersOf(s));
  EXPECT_EQ(restored.MemoryBytes(), s.MemoryBytes());
  for (std::uint64_t key = 30; key < 200; ++key) {
    std::vector<std::uint64_t> got, want;
    const OfferResult got_result = restored.Offer(
        key, 0, [&](std::uint64_t k, int&&) { got.push_back(k); });
    const OfferResult want_result =
        s.Offer(key, 0, [&](std::uint64_t k, int&&) { want.push_back(k); });
    ASSERT_EQ(got_result, want_result);
    ASSERT_EQ(got, want);
    ASSERT_EQ(restored.MemoryBytes(), s.MemoryBytes());
  }
}

TEST(BottomK, CheckpointWithMoreMembersThanTheCapacityIsDataLoss) {
  // Saved from a sampler two slots larger: the restoring table is full at
  // its capacity, before the first extra member.
  BottomKSampler<int> larger(7, 17);
  for (std::uint64_t key = 0; key < 50; ++key) larger.Offer(key, 1);
  ASSERT_EQ(larger.size(), 7u);
  snapshot::SnapshotWriter w;
  SaveSampler(larger, w);
  const std::vector<std::uint8_t> bytes = std::move(w).Finish();
  BottomKSampler<int> s(5, 17);
  EXPECT_EQ(LoadSampler(s, bytes).code(), StatusCode::kDataLoss);
  BottomKSampler<int> roomy(7, 17);
  EXPECT_TRUE(LoadSampler(roomy, bytes).ok());
}

TEST(BottomK, CheckpointWhoseHeapMissesAMemberIsDataLoss) {
  // The heap is the payload's last section: its size, its capacity, then
  // its keys. A size one short leaves the last key unread, and a member
  // the heap does not list.
  BottomKSampler<int> s(4, 18);
  for (std::uint64_t key = 0; key < 4; ++key) s.Offer(key, 1);
  snapshot::SnapshotWriter w;
  SaveSampler(s, w);
  std::vector<std::uint8_t> bytes = std::move(w).Finish();
  const std::size_t heap_size_at = bytes.size() - 4 - 8 * (2 + 4);
  ASSERT_EQ(testing_util::PeekU64(bytes, heap_size_at), 4u);
  BottomKSampler<int> intact(4, 18);
  EXPECT_TRUE(LoadSampler(intact, bytes).ok());
  testing_util::PatchU64(bytes, heap_size_at, 3);
  testing_util::Reseal(bytes);
  BottomKSampler<int> restored(4, 18);
  EXPECT_EQ(LoadSampler(restored, bytes).code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace sampling
}  // namespace cyclestream
