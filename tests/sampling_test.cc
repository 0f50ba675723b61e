#include <cmath>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "sampling/bottom_k.h"

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

}  // namespace
}  // namespace sampling
}  // namespace cyclestream
